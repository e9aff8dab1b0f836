open Qnum

type coords = { c1 : float; c2 : float; c3 : float }

let quarter_pi = Float.pi /. 4.
let half_pi = Float.pi /. 2.

let cnot_coords = { c1 = quarter_pi; c2 = 0.; c3 = 0. }
let iswap_coords = { c1 = quarter_pi; c2 = quarter_pi; c3 = 0. }
let swap_coords = { c1 = quarter_pi; c2 = quarter_pi; c3 = quarter_pi }

(* the magic (Bell) basis, in which local unitaries are real orthogonal and
   canonical gates are diagonal *)
let magic =
  let s = 1. /. Float.sqrt 2. in
  let c re im = Cx.make (s *. re) (s *. im) in
  Cmat.of_lists
    [ [ c 1. 0.; Cx.zero; Cx.zero; c 0. 1. ];
      [ Cx.zero; c 0. 1.; c 1. 0.; Cx.zero ];
      [ Cx.zero; c 0. 1.; c (-1.) 0.; Cx.zero ];
      [ c 1. 0.; Cx.zero; Cx.zero; c 0. (-1.) ] ]

let canonicalize (a, b, cc) =
  (* multiple eigenvalues (identity-like or SWAP-like gates) are computed
     with ~1e-4 accuracy by any root finder; snapping to the chamber
     corners costs < 0.03 ns of model time and keeps anchors exact *)
  let snap v =
    if Float.abs v < 5e-4 then 0.
    else if Float.abs (v -. quarter_pi) < 5e-4 then quarter_pi
    else v
  in
  let fold v =
    let r = Float.rem v half_pi in
    let r = if r < 0. then r +. half_pi else r in
    snap (if r > quarter_pi then half_pi -. r else r)
  in
  match List.sort (fun x y -> compare y x) [ fold a; fold b; fold cc ] with
  | [ c1; c2; c3 ] -> { c1; c2; c3 }
  | _ -> assert false

let gram u =
  if Cmat.rows u <> 4 || Cmat.cols u <> 4 then
    invalid_arg "Weyl.coordinates: expected a 4x4 matrix";
  if not (Cmat.is_unitary ~eps:1e-7 u) then
    invalid_arg "Weyl.coordinates: matrix is not unitary";
  (* normalize into SU(4) *)
  let d = Cmat.det u in
  let root = Cx.pow d (Cx.of_float (-0.25)) in
  let su = Cmat.scale root u in
  let m = Cmat.mul (Cmat.dagger magic) (Cmat.mul su magic) in
  Cmat.mul m (Cmat.transpose m)

(* eigenphases of M·Mᵀ are 2φ_k; any consistent assignment of
   (φ_a+φ_c)/2-style combinations lands in the symmetry orbit of the true
   coordinates, which canonicalization quotients out *)
let of_eigenvalues eigs =
  let phi = Array.map (fun lam -> Cx.arg lam /. 2.) eigs in
  canonicalize
    ( (phi.(0) +. phi.(2)) /. 2.,
      (phi.(1) +. phi.(2)) /. 2.,
      (phi.(0) +. phi.(1)) /. 2. )

let coordinates u =
  let { Poly.roots; capped } = Eig.eigenvalues (gram u) in
  Qobs.Metrics.tick "weyl.calls";
  if capped then Qobs.Metrics.tick "weyl.capped";
  of_eigenvalues roots

let canonical_gate { c1; c2; c3 } =
  let xx = Cmat.kron Qgate.Unitary.pauli_x Qgate.Unitary.pauli_x in
  let yy = Cmat.kron Qgate.Unitary.pauli_y Qgate.Unitary.pauli_y in
  let zz = Cmat.kron Qgate.Unitary.pauli_z Qgate.Unitary.pauli_z in
  let h =
    Cmat.add
      (Cmat.scale_real c1 xx)
      (Cmat.add (Cmat.scale_real c2 yy) (Cmat.scale_real c3 zz))
  in
  Expm.expm (Cmat.scale Cx.i h)

(* time-optimal canonical-class synthesis under each Appendix-A coupling
   (segment constructions and matching lower bounds in DESIGN.md): an XY
   segment advances (a, a, 0), a ZZ segment (a, 0, 0), a Heisenberg
   segment (a, a, a); local rotations permute and pairwise-negate
   coordinates between segments *)
let interaction_time device { c1; c2; c3 } =
  let mu = device.Device.mu2 in
  match device.Device.interaction with
  | Device.Xy -> Float.max ((c1 +. c2 +. c3) /. (2. *. mu)) (c1 /. mu)
  | Device.Zz -> (c1 +. c2 +. c3) /. mu
  | Device.Heisenberg -> c1 /. mu
