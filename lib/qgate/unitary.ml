open Qnum

let c = Cx.make
let rl x = Cx.of_float x

let m2 a b cc d = Cmat.of_lists [ [ a; b ]; [ cc; d ] ]

let pauli_x = m2 Cx.zero Cx.one Cx.one Cx.zero
let pauli_y = m2 Cx.zero (c 0. (-1.)) (c 0. 1.) Cx.zero
let pauli_z = m2 Cx.one Cx.zero Cx.zero (rl (-1.))

let hadamard =
  let s = 1. /. Float.sqrt 2. in
  m2 (rl s) (rl s) (rl s) (rl (-.s))

let rot_x theta =
  let ct = rl (Float.cos (theta /. 2.)) in
  let st = c 0. (-.Float.sin (theta /. 2.)) in
  m2 ct st st ct

let rot_y theta =
  let ct = Float.cos (theta /. 2.) and st = Float.sin (theta /. 2.) in
  m2 (rl ct) (rl (-.st)) (rl st) (rl ct)

let rot_z theta =
  Cmat.diag [| Cx.cis (-.theta /. 2.); Cx.cis (theta /. 2.) |]

let phase_gate theta = Cmat.diag [| Cx.one; Cx.cis theta |]

let controlled u =
  (* |0⟩⟨0| ⊗ I + |1⟩⟨1| ⊗ u, control as the new most-significant qubit *)
  let d = Cmat.rows u in
  let m = Cmat.identity (2 * d) in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      Cmat.set m (d + i) (d + j) (Cmat.get u i j)
    done
  done;
  m

let cnot = controlled pauli_x
let cz_mat = controlled pauli_z

let swap_mat =
  Cmat.of_real_lists
    [ [ 1.; 0.; 0.; 0. ];
      [ 0.; 0.; 1.; 0. ];
      [ 0.; 1.; 0.; 0. ];
      [ 0.; 0.; 0.; 1. ] ]

let iswap_mat =
  Cmat.of_lists
    [ [ Cx.one; Cx.zero; Cx.zero; Cx.zero ];
      [ Cx.zero; Cx.zero; c 0. 1.; Cx.zero ];
      [ Cx.zero; c 0. 1.; Cx.zero; Cx.zero ];
      [ Cx.zero; Cx.zero; Cx.zero; Cx.one ] ]

let sqrt_iswap_mat =
  let s = 1. /. Float.sqrt 2. in
  Cmat.of_lists
    [ [ Cx.one; Cx.zero; Cx.zero; Cx.zero ];
      [ Cx.zero; rl s; c 0. s; Cx.zero ];
      [ Cx.zero; c 0. s; rl s; Cx.zero ];
      [ Cx.zero; Cx.zero; Cx.zero; Cx.one ] ]

(* exp(-i θ/2 σ⊗σ) for a Pauli pair whose square is the identity *)
let two_pauli_rotation sigma_pair theta =
  let cos_part = Cmat.scale_real (Float.cos (theta /. 2.)) (Cmat.identity 4) in
  let sin_part = Cmat.scale (c 0. (-.Float.sin (theta /. 2.))) sigma_pair in
  Cmat.add cos_part sin_part

let of_kind = function
  | Gate.I -> Cmat.identity 2
  | Gate.X -> pauli_x
  | Gate.Y -> pauli_y
  | Gate.Z -> pauli_z
  | Gate.H -> hadamard
  | Gate.S -> phase_gate (Float.pi /. 2.)
  | Gate.Sdg -> phase_gate (-.Float.pi /. 2.)
  | Gate.T -> phase_gate (Float.pi /. 4.)
  | Gate.Tdg -> phase_gate (-.Float.pi /. 4.)
  | Gate.Rx theta -> rot_x theta
  | Gate.Ry theta -> rot_y theta
  | Gate.Rz theta -> rot_z theta
  | Gate.Phase theta -> phase_gate theta
  | Gate.Cnot -> cnot
  | Gate.Cz -> cz_mat
  | Gate.Cphase theta ->
    Cmat.diag [| Cx.one; Cx.one; Cx.one; Cx.cis theta |]
  | Gate.Swap -> swap_mat
  | Gate.Iswap -> iswap_mat
  | Gate.Sqrt_iswap -> sqrt_iswap_mat
  | Gate.Rxx theta -> two_pauli_rotation (Cmat.kron pauli_x pauli_x) theta
  | Gate.Ryy theta -> two_pauli_rotation (Cmat.kron pauli_y pauli_y) theta
  | Gate.Rzz theta -> two_pauli_rotation (Cmat.kron pauli_z pauli_z) theta
  | Gate.Ccx -> controlled cnot

let of_gate ~n_qubits g =
  Cmat.embed ~n_qubits ~targets:(Gate.qubits g) (of_kind g.Gate.kind)

let of_gates ~n_qubits gates =
  List.fold_left
    (fun acc g ->
      Cmat.mul_embedded ~n_qubits ~targets:(Gate.qubits g)
        (of_kind g.Gate.kind) acc)
    (Cmat.identity (1 lsl n_qubits))
    gates

let equal_up_to_global_phase ?eps a b = Cmat.equal_up_to_phase ?eps a b

(* ---- fused programs ---- *)

(* Each kind's matrix as flat row-major real and imaginary parts. The
   constant kinds' arrays are built once from [of_kind], indexed by
   [constant_slot], and never written; the parametric kinds' are filled
   from cos/sin per call. *)
let constant_flat =
  List.map
    (fun kind ->
      let u = of_kind kind in
      let d = Cmat.rows u in
      ( Array.init (d * d) (fun k -> Cx.re (Cmat.get u (k / d) (k mod d))),
        Array.init (d * d) (fun k -> Cx.im (Cmat.get u (k / d) (k mod d))) ))
    Gate.[ I; X; Y; Z; H; S; Sdg; T; Tdg; Cnot; Cz; Swap; Iswap; Sqrt_iswap; Ccx ]
  |> Array.of_list

let constant_slot = function
  | Gate.I -> 0
  | Gate.X -> 1
  | Gate.Y -> 2
  | Gate.Z -> 3
  | Gate.H -> 4
  | Gate.S -> 5
  | Gate.Sdg -> 6
  | Gate.T -> 7
  | Gate.Tdg -> 8
  | Gate.Cnot -> 9
  | Gate.Cz -> 10
  | Gate.Swap -> 11
  | Gate.Iswap -> 12
  | Gate.Sqrt_iswap -> 13
  | Gate.Ccx -> 14
  | _ -> invalid_arg "Unitary.constant_slot: parametric kind"

let flat_of_kind kind =
  let half t = (Float.cos (t /. 2.), Float.sin (t /. 2.)) in
  match kind with
  | Gate.Rx t ->
    let c, s = half t in
    ([| c; 0.; 0.; c |], [| 0.; -.s; -.s; 0. |])
  | Gate.Ry t ->
    let c, s = half t in
    ([| c; -.s; s; c |], [| 0.; 0.; 0.; 0. |])
  | Gate.Rz t ->
    let c, s = half t in
    ([| c; 0.; 0.; c |], [| -.s; 0.; 0.; s |])
  | Gate.Phase t ->
    ([| 1.; 0.; 0.; Float.cos t |], [| 0.; 0.; 0.; Float.sin t |])
  | Gate.Cphase t ->
    let re = Array.make 16 0. and im = Array.make 16 0. in
    re.(0) <- 1.; re.(5) <- 1.; re.(10) <- 1.;
    re.(15) <- Float.cos t; im.(15) <- Float.sin t;
    (re, im)
  | Gate.Rxx t | Gate.Ryy t | Gate.Rzz t ->
    (* cos(t/2)·I − i·sin(t/2)·σ⊗σ: σ⊗σ is ±1 on the anti-diagonal for
       XX and YY, and diag(1, −1, −1, 1) for ZZ *)
    let c, s = half t in
    let re = Array.make 16 0. and im = Array.make 16 0. in
    List.iter (fun k -> re.(k) <- c) [ 0; 5; 10; 15 ];
    (match kind with
     | Gate.Rxx _ -> List.iter (fun k -> im.(k) <- -.s) [ 3; 6; 9; 12 ]
     | Gate.Ryy _ ->
       im.(3) <- s; im.(6) <- -.s; im.(9) <- -.s; im.(12) <- s
     | _ -> im.(0) <- -.s; im.(5) <- s; im.(10) <- s; im.(15) <- -.s);
    (re, im)
  | kind -> constant_flat.(constant_slot kind)

(* ---- index groups ---- *)

(* Apply a [dl]×[dl] matrix [u]/[v] (real/imaginary parts, row-major) to
   one index group of the buffers [re]/[im]: local index l sits at
   ((base lor spread.(l)) * stride) + col. A state uses stride 1 and col
   0; a kernel's matrix, row-major, uses its row length and the column. A
   group whose entries are all exactly zero maps to zero and is left
   alone. The 2-qubit case, nearly every group after fusion, is written
   out as straight-line code: against the loop alone it cut qaoa-parallel
   and serial-agg `sweep_s` by 7% (10 and 4 alternating pairs, 2-vCPU
   VM). [ar]/[ai] are scratch of length [dl] for the other sizes. *)
let group2 u v re im x0 x1 x2 x3 =
  let r0 = re.(x0) and i0 = im.(x0) and r1 = re.(x1) and i1 = im.(x1) in
  let r2 = re.(x2) and i2 = im.(x2) and r3 = re.(x3) and i3 = im.(x3) in
  if
    r0 <> 0. || i0 <> 0. || r1 <> 0. || i1 <> 0. || r2 <> 0. || i2 <> 0.
    || r3 <> 0. || i3 <> 0.
  then begin
    re.(x0) <-
      (u.(0) *. r0) -. (v.(0) *. i0) +. ((u.(1) *. r1) -. (v.(1) *. i1))
      +. ((u.(2) *. r2) -. (v.(2) *. i2)) +. ((u.(3) *. r3) -. (v.(3) *. i3));
    im.(x0) <-
      (u.(0) *. i0) +. (v.(0) *. r0) +. ((u.(1) *. i1) +. (v.(1) *. r1))
      +. ((u.(2) *. i2) +. (v.(2) *. r2)) +. ((u.(3) *. i3) +. (v.(3) *. r3));
    re.(x1) <-
      (u.(4) *. r0) -. (v.(4) *. i0) +. ((u.(5) *. r1) -. (v.(5) *. i1))
      +. ((u.(6) *. r2) -. (v.(6) *. i2)) +. ((u.(7) *. r3) -. (v.(7) *. i3));
    im.(x1) <-
      (u.(4) *. i0) +. (v.(4) *. r0) +. ((u.(5) *. i1) +. (v.(5) *. r1))
      +. ((u.(6) *. i2) +. (v.(6) *. r2)) +. ((u.(7) *. i3) +. (v.(7) *. r3));
    re.(x2) <-
      (u.(8) *. r0) -. (v.(8) *. i0) +. ((u.(9) *. r1) -. (v.(9) *. i1))
      +. ((u.(10) *. r2) -. (v.(10) *. i2))
      +. ((u.(11) *. r3) -. (v.(11) *. i3));
    im.(x2) <-
      (u.(8) *. i0) +. (v.(8) *. r0) +. ((u.(9) *. i1) +. (v.(9) *. r1))
      +. ((u.(10) *. i2) +. (v.(10) *. r2))
      +. ((u.(11) *. i3) +. (v.(11) *. r3));
    re.(x3) <-
      (u.(12) *. r0) -. (v.(12) *. i0) +. ((u.(13) *. r1) -. (v.(13) *. i1))
      +. ((u.(14) *. r2) -. (v.(14) *. i2))
      +. ((u.(15) *. r3) -. (v.(15) *. i3));
    im.(x3) <-
      (u.(12) *. i0) +. (v.(12) *. r0) +. ((u.(13) *. i1) +. (v.(13) *. r1))
      +. ((u.(14) *. i2) +. (v.(14) *. r2))
      +. ((u.(15) *. i3) +. (v.(15) *. r3))
  end

let group ~dl ~spread ~stride ~col ~ar ~ai u v re im base =
  match dl with
  | 4 ->
    group2 u v re im (base * stride + col)
      ((base lor spread.(1)) * stride + col)
      ((base lor spread.(2)) * stride + col)
      ((base lor spread.(3)) * stride + col)
  | _ ->
    let nonzero = ref false in
    for l = 0 to dl - 1 do
      let x = ((base lor spread.(l)) * stride) + col in
      let r = re.(x) and i = im.(x) in
      ar.(l) <- r;
      ai.(l) <- i;
      if r <> 0. || i <> 0. then nonzero := true
    done;
    if !nonzero then
      for i = 0 to dl - 1 do
        let sr = ref 0. and si = ref 0. in
        for j = 0 to dl - 1 do
          let ur = u.((i * dl) + j) and ui = v.((i * dl) + j) in
          sr := !sr +. ((ur *. ar.(j)) -. (ui *. ai.(j)));
          si := !si +. ((ur *. ai.(j)) +. (ui *. ar.(j)))
        done;
        let x = ((base lor spread.(i)) * stride) + col in
        re.(x) <- !sr;
        im.(x) <- !si
      done

(* ---- fusion ---- *)

(* A kernel while its program is being fused: its qubits (the t-th
   listed is local bit k-1-t, the frame of Cmat.embed) and its matrix,
   row-major. [live] turns false when a later kernel absorbs it. *)
type kernel = {
  qs : int array;
  kre : float array;
  kim : float array;
  mutable live : bool;
}

(* [left_multiply k qs ure uim] replaces k's matrix by U·M, for U
   (matrix [ure]/[uim]) acting on qubits [qs], each one of k's: U runs
   over every column of M exactly as {!run} runs a kernel over a state.
   [spread], [ar] and [ai] are scratch of length 8. *)
let left_multiply ~spread ~ar ~ai k qs ure uim =
  let dl = 1 lsl Array.length k.qs and dg = 1 lsl Array.length qs in
  Array.fill spread 0 dg 0;
  for t = 0 to Array.length qs - 1 do
    let p = ref 0 in
    while k.qs.(!p) <> qs.(t) do incr p done;
    let local = dl lsr (!p + 1) and bit = dg lsr (t + 1) in
    for l = 0 to dg - 1 do
      if l land bit <> 0 then spread.(l) <- spread.(l) lor local
    done
  done;
  let mask = spread.(dg - 1) in
  for col = 0 to dl - 1 do
    for base = 0 to dl - 1 do
      if base land mask = 0 then
        group ~dl:dg ~spread ~stride:dl ~col ~ar ~ai ure uim k.kre k.kim base
    done
  done

let identity_kernel qs =
  let dl = 1 lsl Array.length qs in
  { qs;
    kre = Array.init (dl * dl) (fun x -> if x mod (dl + 1) = 0 then 1. else 0.);
    kim = Array.make (dl * dl) 0.;
    live = true }

(* Fuse a gate list into kernels of at most two qubits (a Toffoli starts
   a three-qubit one), in time order:
   - a gate whose qubits all have the same last kernel multiplies into
     it: a 1-qubit gate folds into the last kernel on its qubit, and
     consecutive gates on one pair into one 4×4. Every later kernel is
     disjoint from the gate, so the gate commutes back to that kernel;
   - otherwise the gate starts a new kernel, which first absorbs the
     pending 1-qubit kernels on its qubits: each is the last kernel on
     its qubit, so it commutes forward to the new one.
   Raises [Invalid_argument] on a qubit outside [0, n_qubits). *)
let fuse ~n_qubits ~ar ~ai gates =
  let none = { qs = [||]; kre = [||]; kim = [||]; live = false } in
  let last = Array.make n_qubits none in
  let spread = Array.make 8 0 in
  let built = ref [] in
  List.iter
    (fun (g : Gate.t) ->
      let qs = Array.of_list g.Gate.qubits in
      for t = 0 to Array.length qs - 1 do
        let q = qs.(t) in
        if q < 0 || q >= n_qubits then
          invalid_arg
            (Printf.sprintf "Unitary.program: qubit %d outside [0, %d)" q
               n_qubits)
      done;
      let ure, uim = flat_of_kind g.Gate.kind in
      let k = last.(qs.(0)) in
      let shared = ref (k != none) in
      for t = 1 to Array.length qs - 1 do
        if last.(qs.(t)) != k then shared := false
      done;
      if !shared then left_multiply ~spread ~ar ~ai k qs ure uim
      else begin
        let pending = ref false in
        for t = 0 to Array.length qs - 1 do
          if Array.length last.(qs.(t)).qs = 1 then pending := true
        done;
        let k =
          if not !pending then
            { qs; kre = Array.copy ure; kim = Array.copy uim; live = true }
          else begin
            let k = identity_kernel qs in
            Array.iter
              (fun q ->
                let p = last.(q) in
                if Array.length p.qs = 1 then begin
                  p.live <- false;
                  left_multiply ~spread ~ar ~ai k p.qs p.kre p.kim
                end)
              qs;
            left_multiply ~spread ~ar ~ai k qs ure uim;
            k
          end
        in
        built := k :: !built;
        for t = 0 to Array.length qs - 1 do
          last.(qs.(t)) <- k
        done
      end)
    gates;
  List.rev (List.filter (fun k -> k.live) !built)

(* One fused kernel prepared for in-place application on an n-qubit
   register: [spread.(l)] is the global-index offset of kernel-local
   index l (local bit k-1-t lives at global bit n-1-q for q the t-th
   listed qubit), [targets] the bits it acts on, [moves] whether it
   carries amplitude between indices (an off-diagonal entry is nonzero),
   and [ure]/[uim] its matrix, row-major. *)
type op = {
  dl : int;
  spread : int array;
  targets : int;
  moves : bool;
  ure : float array;
  uim : float array;
}

type program = { dim : int; ops : op array; ar : float array; ai : float array }

let program ~n_qubits gates =
  let op_of k =
    let dl = 1 lsl Array.length k.qs in
    let spread = Array.make dl 0 in
    Array.iteri
      (fun t q ->
        let local = dl lsr (t + 1) and global = 1 lsl (n_qubits - 1 - q) in
        for l = 0 to dl - 1 do
          if l land local <> 0 then spread.(l) <- spread.(l) lor global
        done)
      k.qs;
    let moves = ref false in
    for i = 0 to dl - 1 do
      for j = 0 to dl - 1 do
        let x = (i * dl) + j in
        if i <> j && (k.kre.(x) <> 0. || k.kim.(x) <> 0.) then moves := true
      done
    done;
    { dl; spread; targets = spread.(dl - 1); moves = !moves; ure = k.kre;
      uim = k.kim }
  in
  (* per-program scratch for one index group's amplitudes (arity ≤ 3) *)
  let ar = Array.make 8 0. and ai = Array.make 8 0. in
  let ops = Array.of_list (List.map op_of (fuse ~n_qubits ~ar ~ai gates)) in
  { dim = 1 lsl n_qubits; ops; ar; ai }

let kernels p = Array.length p.ops

(* Apply every kernel in turn to the state held in [re]/[im]. Every nonzero
   amplitude sits at an index that agrees with [fixed] outside the bits
   of [free]: at the start, the bits on which the nonzero indices differ;
   after each kernel that moves amplitude, widened by its targets. A kernel
   visits only the index groups inside that set (the subsets of [vary]),
   and a group whose amplitudes are all exactly zero maps to zero and is
   skipped, so a basis column costs a handful of groups per kernel until
   the kernels have spread it over the register. *)
let run p re im =
  if Array.length re <> p.dim || Array.length im <> p.dim then
    invalid_arg "Unitary.run: buffer length does not match the program";
  let all_and = ref (p.dim - 1) and all_or = ref 0 in
  for x = 0 to p.dim - 1 do
    if re.(x) <> 0. || im.(x) <> 0. then begin
      all_and := !all_and land x;
      all_or := !all_or lor x
    end
  done;
  let fixed = !all_and and free = ref (!all_and lxor !all_or) in
  for k = 0 to Array.length p.ops - 1 do
    let o = p.ops.(k) in
    if o.moves then free := !free lor o.targets;
    let vary = !free land lnot o.targets in
    let outside = fixed land lnot (!free lor o.targets) in
    let sub = ref 0 and more = ref true in
    while !more do
      group ~dl:o.dl ~spread:o.spread ~stride:1 ~col:0 ~ar:p.ar ~ai:p.ai o.ure
        o.uim re im (outside lor !sub);
      sub := ((!sub lor lnot vary) + 1) land vary;
      if !sub = 0 then more := false
    done
  done

let state_of_gates ~n_qubits gates =
  let p = program ~n_qubits gates in
  let re = Array.make p.dim 0. and im = Array.make p.dim 0. in
  re.(0) <- 1.;
  run p re im;
  Array.init p.dim (fun x -> Cx.make re.(x) im.(x))

let on_support gates =
  if gates = [] then invalid_arg "Unitary.on_support: empty gate list";
  let support =
    List.sort_uniq compare (List.concat_map Gate.qubits gates)
  in
  let local = Hashtbl.create 8 in
  List.iteri (fun k q -> Hashtbl.replace local q k) support;
  let relabelled =
    List.map (Gate.map_qubits (fun q -> Hashtbl.find local q)) gates
  in
  (support, of_gates ~n_qubits:(List.length support) relabelled)
