(* unit + property tests for the numerical substrate *)

open Qnum
open Util

let c = Cx.make

(* --- Cx --- *)

let cx_cases =
  [ case "add" (fun () ->
        check_bool "1+2i + 3+4i" true (Cx.equal (c 4. 6.) (Cx.add (c 1. 2.) (c 3. 4.))));
    case "mul" (fun () ->
        check_bool "(1+2i)(3+4i) = -5+10i" true
          (Cx.equal (c (-5.) 10.) (Cx.mul (c 1. 2.) (c 3. 4.))));
    case "i squared" (fun () ->
        check_bool "i*i = -1" true (Cx.equal (Cx.of_float (-1.)) (Cx.mul Cx.i Cx.i)));
    case "div" (fun () ->
        check_bool "z/z = 1" true (Cx.equal Cx.one (Cx.div (c 2. 3.) (c 2. 3.))));
    case "div by zero" (fun () ->
        Alcotest.check_raises "raises" Division_by_zero (fun () ->
            ignore (Cx.div Cx.one Cx.zero)));
    case "conj" (fun () ->
        check_bool "conj" true (Cx.equal (c 1. (-2.)) (Cx.conj (c 1. 2.))));
    case "abs" (fun () -> check_float "3-4i" 5. (Cx.abs (c 3. (-4.))));
    case "arg quadrant" (fun () ->
        check_float "arg(-1+0i)" Float.pi (Cx.arg (c (-1.) 0.)));
    case "arg zero" (fun () -> check_float "arg 0" 0. (Cx.arg Cx.zero));
    case "sqrt of -1" (fun () ->
        check_bool "sqrt(-1) = i" true (Cx.equal Cx.i (Cx.sqrt (Cx.of_float (-1.)))));
    case "exp of i pi" (fun () ->
        check_bool "exp(i pi) = -1" true
          (Cx.equal ~eps:1e-12 (Cx.of_float (-1.)) (Cx.exp (c 0. Float.pi))));
    case "cis" (fun () ->
        check_bool "cis(pi/2) = i" true (Cx.equal ~eps:1e-12 Cx.i (Cx.cis (Float.pi /. 2.))));
    case "polar" (fun () ->
        check_bool "polar 2 0" true (Cx.equal (c 2. 0.) (Cx.polar 2. 0.)));
    case "pow fourth root" (fun () ->
        let z = Cx.pow (Cx.of_float 16.) (Cx.of_float 0.25) in
        check_bool "16^(1/4) = 2" true (Cx.equal ~eps:1e-9 (Cx.of_float 2.) z));
    case "pow of zero" (fun () ->
        check_bool "0^w" true (Cx.equal Cx.zero (Cx.pow Cx.zero (c 0.3 0.))));
    qcheck "sqrt squares back" QCheck.(pair (float_bound_exclusive 10.) (float_bound_exclusive 10.))
      (fun (re, im) ->
        let z = c re im in
        let s = Cx.sqrt z in
        Cx.equal ~eps:1e-6 z (Cx.mul s s));
    qcheck "log-exp roundtrip" QCheck.(pair (float_range (-3.) 3.) (float_range (-3.) 3.))
      (fun (re, im) ->
        QCheck.assume (Float.abs re +. Float.abs im > 1e-3);
        let z = c re im in
        Cx.equal ~eps:1e-9 z (Cx.exp (Cx.log z)));
    qcheck "mul commutes" QCheck.(quad (float_range (-5.) 5.) (float_range (-5.) 5.) (float_range (-5.) 5.) (float_range (-5.) 5.))
      (fun (a, b, x, y) ->
        Cx.equal ~eps:1e-9 (Cx.mul (c a b) (c x y)) (Cx.mul (c x y) (c a b)));
    qcheck "norm2 multiplicative" QCheck.(quad (float_range (-5.) 5.) (float_range (-5.) 5.) (float_range (-5.) 5.) (float_range (-5.) 5.))
      (fun (a, b, x, y) ->
        let lhs = Cx.norm2 (Cx.mul (c a b) (c x y)) in
        let rhs = Cx.norm2 (c a b) *. Cx.norm2 (c x y) in
        Float.abs (lhs -. rhs) <= 1e-6 *. (1. +. Float.abs rhs)) ]

(* --- Vec --- *)

let vec_cases =
  [ case "basis is normalized" (fun () ->
        check_float "norm" 1. (Vec.norm (Vec.basis 8 3)));
    case "dot orthogonal" (fun () ->
        check_bool "e0 . e1 = 0" true
          (Cx.equal Cx.zero (Vec.dot (Vec.basis 4 0) (Vec.basis 4 1))));
    case "dot conjugates the left side" (fun () ->
        let v = Vec.of_array [| Cx.i |] in
        check_bool "⟨i|i⟩ = 1" true (Cx.equal Cx.one (Vec.dot v v)));
    case "add sub roundtrip" (fun () ->
        let a = Vec.init 5 (fun k -> c (float_of_int k) 1.) in
        let b = Vec.init 5 (fun k -> c 2. (float_of_int (-k))) in
        check_bool "a+b-b = a" true (Vec.equal a (Vec.sub (Vec.add a b) b)));
    case "scale" (fun () ->
        let v = Vec.scale (c 0. 1.) (Vec.basis 2 0) in
        check_bool "i*e0" true (Cx.equal Cx.i (Vec.get v 0)));
    case "normalize zero raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Vec.normalize: zero vector")
          (fun () -> ignore (Vec.normalize (Vec.create 3))));
    case "dimension mismatch raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Vec.dot: dimension mismatch")
          (fun () -> ignore (Vec.dot (Vec.create 2) (Vec.create 3))));
    qcheck "cauchy-schwarz" QCheck.(list_of_size (Gen.return 6) (float_range (-2.) 2.))
      (fun xs ->
        QCheck.assume (List.length xs = 6);
        let a = Vec.init 3 (fun k -> c (List.nth xs k) 0.) in
        let b = Vec.init 3 (fun k -> c (List.nth xs (k + 3)) 0.) in
        Cx.abs (Vec.dot a b) <= (Vec.norm a *. Vec.norm b) +. 1e-9) ]

(* --- Cmat --- *)

let rng = Qgraph.Rand.create 99

let rand_mat n m =
  Cmat.init n m (fun _ _ ->
      c (Qgraph.Rand.float rng 2. -. 1.) (Qgraph.Rand.float rng 2. -. 1.))

let cmat_cases =
  [ case "identity multiplication" (fun () ->
        let m = rand_mat 4 4 in
        check_mat "I*m = m" m (Cmat.mul (Cmat.identity 4) m);
        check_mat "m*I = m" m (Cmat.mul m (Cmat.identity 4)));
    case "mul dimensions" (fun () ->
        let a = rand_mat 2 3 and b = rand_mat 3 4 in
        let p = Cmat.mul a b in
        check_int "rows" 2 (Cmat.rows p);
        check_int "cols" 4 (Cmat.cols p));
    case "mul mismatch raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Cmat.mul: dimension mismatch")
          (fun () -> ignore (Cmat.mul (rand_mat 2 3) (rand_mat 2 3))));
    case "mul associativity" (fun () ->
        let a = rand_mat 3 3 and b = rand_mat 3 3 and d = rand_mat 3 3 in
        check_mat ~eps:1e-9 "(ab)d = a(bd)"
          (Cmat.mul (Cmat.mul a b) d)
          (Cmat.mul a (Cmat.mul b d)));
    case "dagger involution" (fun () ->
        let m = rand_mat 3 2 in
        check_mat "m†† = m" m (Cmat.dagger (Cmat.dagger m)));
    case "dagger antihomomorphism" (fun () ->
        let a = rand_mat 3 3 and b = rand_mat 3 3 in
        check_mat ~eps:1e-9 "(ab)† = b†a†"
          (Cmat.dagger (Cmat.mul a b))
          (Cmat.mul (Cmat.dagger b) (Cmat.dagger a)));
    case "trace cyclic" (fun () ->
        let a = rand_mat 3 3 and b = rand_mat 3 3 in
        check_bool "tr(ab) = tr(ba)" true
          (Cx.equal ~eps:1e-9 (Cmat.trace (Cmat.mul a b)) (Cmat.trace (Cmat.mul b a))));
    case "kron dimensions" (fun () ->
        let k = Cmat.kron (rand_mat 2 3) (rand_mat 4 5) in
        check_int "rows" 8 (Cmat.rows k);
        check_int "cols" 15 (Cmat.cols k));
    case "kron mixed-product" (fun () ->
        let a = rand_mat 2 2 and b = rand_mat 2 2 in
        let x = rand_mat 2 2 and y = rand_mat 2 2 in
        check_mat ~eps:1e-9 "(a⊗b)(x⊗y) = ax ⊗ by"
          (Cmat.mul (Cmat.kron a b) (Cmat.kron x y))
          (Cmat.kron (Cmat.mul a x) (Cmat.mul b y)));
    case "kron identity" (fun () ->
        check_mat "I2 ⊗ I2 = I4" (Cmat.identity 4)
          (Cmat.kron (Cmat.identity 2) (Cmat.identity 2)));
    case "pow" (fun () ->
        let m = rand_mat 3 3 in
        check_mat ~eps:1e-6 "m^3" (Cmat.mul m (Cmat.mul m m)) (Cmat.pow m 3);
        check_mat "m^0 = I" (Cmat.identity 3) (Cmat.pow m 0));
    case "one-by-one matrices behave" (fun () ->
        let m = Cmat.diag [| c 2. 1. |] in
        check_bool "det" true (Cx.equal (c 2. 1.) (Cmat.det m));
        check_bool "trace" true (Cx.equal (c 2. 1.) (Cmat.trace m));
        check_mat "identity product" m (Cmat.mul m (Cmat.identity 1)));
    case "zero-dimension matrices" (fun () ->
        let e = Cmat.create 0 0 in
        check_int "rows" 0 (Cmat.rows e);
        check_bool "det of empty is 1" true (Cx.equal Cx.one (Cmat.det e)));
    case "det of identity" (fun () ->
        check_bool "det I = 1" true (Cx.equal Cx.one (Cmat.det (Cmat.identity 5))));
    case "det multiplicative" (fun () ->
        let a = rand_mat 3 3 and b = rand_mat 3 3 in
        check_bool "det(ab) = det a det b" true
          (Cx.equal ~eps:1e-6
             (Cmat.det (Cmat.mul a b))
             (Cx.mul (Cmat.det a) (Cmat.det b))));
    case "det singular" (fun () ->
        let m = Cmat.of_real_lists [ [ 1.; 2. ]; [ 2.; 4. ] ] in
        check_bool "det = 0" true (Cx.equal ~eps:1e-12 Cx.zero (Cmat.det m)));
    case "diag and diagonal" (fun () ->
        let d = [| c 1. 0.; c 0. 2.; c 3. 4. |] in
        let m = Cmat.diag d in
        check_bool "roundtrip" true
          (Array.for_all2 (fun a b -> Cx.equal a b) d (Cmat.diagonal m));
        check_bool "is_diagonal" true (Cmat.is_diagonal m));
    case "is_unitary detects non-unitary" (fun () ->
        check_bool "random not unitary" false (Cmat.is_unitary (rand_mat 3 3)));
    case "is_hermitian" (fun () ->
        let m = rand_mat 3 3 in
        let h = Cmat.add m (Cmat.dagger m) in
        check_bool "m + m† hermitian" true (Cmat.is_hermitian h));
    case "equal_up_to_phase" (fun () ->
        let m = rand_mat 3 3 in
        let rotated = Cmat.scale (Cx.cis 1.234) m in
        check_bool "phase-rotated equal" true (Cmat.equal_up_to_phase m rotated);
        check_bool "different not equal" false
          (Cmat.equal_up_to_phase m (Cmat.add m (Cmat.identity 3))));
    case "apply matches mul" (fun () ->
        let m = rand_mat 4 4 in
        let v = Vec.init 4 (fun k -> c (float_of_int k) 0.5) in
        let direct = Cmat.apply m v in
        let via_col = Cmat.mul m (Cmat.init 4 1 (fun i _ -> Vec.get v i)) in
        for i = 0 to 3 do
          check_bool "entry" true
            (Cx.equal ~eps:1e-9 (Vec.get direct i) (Cmat.get via_col i 0))
        done);
    case "fidelity of identical unitaries" (fun () ->
        let u = random_unitary (Qgraph.Rand.create 5) 2 12 in
        check_float ~eps:1e-9 "fid = 1" 1. (Cmat.fidelity u u));
    case "fidelity phase-insensitive" (fun () ->
        let u = random_unitary (Qgraph.Rand.create 6) 2 12 in
        check_float ~eps:1e-9 "fid = 1" 1.
          (Cmat.fidelity u (Cmat.scale (Cx.cis 0.7) u)));
    case "embed single qubit on msb" (fun () ->
        let x = Qgate.Unitary.pauli_x in
        let e = Cmat.embed ~n_qubits:2 ~targets:[ 0 ] x in
        check_mat "X ⊗ I" (Cmat.kron x (Cmat.identity 2)) e);
    case "embed single qubit on lsb" (fun () ->
        let x = Qgate.Unitary.pauli_x in
        let e = Cmat.embed ~n_qubits:2 ~targets:[ 1 ] x in
        check_mat "I ⊗ X" (Cmat.kron (Cmat.identity 2) x) e);
    case "embed order matters" (fun () ->
        let cnot = Qgate.Unitary.of_kind Qgate.Gate.Cnot in
        let fwd = Cmat.embed ~n_qubits:2 ~targets:[ 0; 1 ] cnot in
        let rev = Cmat.embed ~n_qubits:2 ~targets:[ 1; 0 ] cnot in
        check_mat "forward is cnot" cnot fwd;
        check_bool "reversed differs" false (Cmat.equal fwd rev));
    case "embed duplicate raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Cmat.embed: duplicate target qubit 0")
          (fun () ->
            ignore
              (Cmat.embed ~n_qubits:2 ~targets:[ 0; 0 ]
                 (Qgate.Unitary.of_kind Qgate.Gate.Cnot))));
    case "permute_qubits swap" (fun () ->
        let cnot = Qgate.Unitary.of_kind Qgate.Gate.Cnot in
        let swapped = Cmat.permute_qubits [| 1; 0 |] cnot in
        let expect = Cmat.embed ~n_qubits:2 ~targets:[ 1; 0 ] cnot in
        check_mat "swapped cnot" expect swapped);
    case "permute identity" (fun () ->
        let u = random_unitary (Qgraph.Rand.create 7) 3 15 in
        check_mat "id perm" u (Cmat.permute_qubits [| 0; 1; 2 |] u));
    qcheck ~count:30 "unitary products stay unitary" QCheck.(int_range 0 10000)
      (fun seed ->
        let u = random_unitary (Qgraph.Rand.create seed) 2 10 in
        Cmat.is_unitary ~eps:1e-8 u) ]

(* --- Expm --- *)

let expm_cases =
  [ case "expm of zero" (fun () ->
        check_mat "e^0 = I" (Cmat.identity 3) (Expm.expm (Cmat.zeros 3 3)));
    case "expm of diagonal" (fun () ->
        let m = Cmat.diag [| c 1. 0.; c 0. 2. |] in
        let e = Expm.expm m in
        check_bool "e^1" true (Cx.equal ~eps:1e-9 (Cx.of_float (Float.exp 1.)) (Cmat.get e 0 0));
        check_bool "e^2i" true (Cx.equal ~eps:1e-9 (Cx.cis 2.) (Cmat.get e 1 1)));
    case "expm of pauli x rotation" (fun () ->
        (* e^{-i θ/2 X} = Rx(θ) *)
        let theta = 0.7 in
        let h = Cmat.scale (c 0. (-.theta /. 2.)) Qgate.Unitary.pauli_x in
        check_mat ~eps:1e-10 "matches Rx"
          (Qgate.Unitary.of_kind (Qgate.Gate.Rx theta))
          (Expm.expm h));
    case "propagator is unitary" (fun () ->
        let h = Qgate.Unitary.pauli_y in
        check_bool "unitary" true (Cmat.is_unitary ~eps:1e-10 (Expm.propagator h 3.0)));
    case "propagator additivity" (fun () ->
        let h =
          Cmat.add Qgate.Unitary.pauli_z
            (Cmat.scale_real 0.3 Qgate.Unitary.pauli_x)
        in
        check_mat ~eps:1e-9 "U(2t) = U(t)U(t)"
          (Expm.propagator h 2.4)
          (Cmat.mul (Expm.propagator h 1.2) (Expm.propagator h 1.2)));
    case "large norm scaling" (fun () ->
        let h = Cmat.scale_real 50. Qgate.Unitary.pauli_x in
        check_bool "still unitary" true
          (Cmat.is_unitary ~eps:1e-8 (Expm.propagator h 1.0)));
    case "non-square raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Expm.expm: not square")
          (fun () -> ignore (Expm.expm (Cmat.zeros 2 3)))) ]

(* --- Poly / Eig --- *)

(* every root's bits, and the cap flag *)
let solution_bits roots capped =
  ( Array.to_list
      (Array.map (fun z -> Printf.sprintf "%h %h" (Cx.re z) (Cx.im z)) roots),
    capped )

(* a quartic whose later roots repeat an earlier one exactly, sit 1e-2 to
   1e-9 away from one (a cluster), or are drawn fresh *)
let random_quartic rng =
  let fresh () =
    c (Qgraph.Rand.float rng 4. -. 2.) (Qgraph.Rand.float rng 4. -. 2.)
  in
  let rs = Array.make 4 Cx.zero in
  rs.(0) <- fresh ();
  for k = 1 to 3 do
    let prev = rs.(Qgraph.Rand.int rng k) in
    rs.(k) <-
      (match Qgraph.Rand.int rng 3 with
       | 0 -> prev
       | 1 ->
         let eps = 10. ** -.float_of_int (2 + Qgraph.Rand.int rng 8) in
         Cx.add prev (Cx.scale eps (fresh ()))
       | _ -> fresh ())
  done;
  Poly.of_roots rs

(* the characteristic polynomial Weyl.coordinates solves, for a product
   of 1-8 random gates on two qubits (Clifford products give the
   degenerate spectra that hit the sweep cap) *)
let random_gram_poly rng =
  let gates =
    List.init (1 + Qgraph.Rand.int rng 8) (fun _ -> random_vocabulary_gate rng 2)
  in
  Eig.char_poly (Qcontrol.Weyl.gram (Qgate.Unitary.of_gates ~n_qubits:2 gates))

let poly_cases =
  [ qcheck ~count:400 "roots match the reference bit for bit"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let p =
          if seed mod 2 = 0 then random_quartic rng else random_gram_poly rng
        in
        let s = Poly.roots p and z, capped = Qref.poly_roots p in
        solution_bits s.Poly.roots s.Poly.capped = solution_bits z capped);
    case "eval horner" (fun () ->
        (* p(z) = 1 + 2z + z², p(3) = 16 *)
        let p = [| Cx.one; Cx.of_float 2.; Cx.one |] in
        check_bool "p(3)" true (Cx.equal (Cx.of_float 16.) (Poly.eval p (Cx.of_float 3.))));
    case "derive" (fun () ->
        let p = [| Cx.one; Cx.of_float 2.; Cx.of_float 3. |] in
        let d = Poly.derive p in
        check_bool "p' = 2 + 6z" true
          (Cx.equal (Cx.of_float 2.) d.(0) && Cx.equal (Cx.of_float 6.) d.(1)));
    case "roots of quadratic" (fun () ->
        (* z² + 1: roots ±i *)
        let roots = (Poly.roots [| Cx.one; Cx.zero; Cx.one |]).Poly.roots in
        let has z = Array.exists (fun r -> Cx.equal ~eps:1e-8 r z) roots in
        check_bool "i" true (has Cx.i);
        check_bool "-i" true (has (Cx.neg Cx.i)));
    case "roots of quartic with known roots" (fun () ->
        let expected = [| c 1. 0.; c (-2.) 0.; c 0. 3.; c 1. 1. |] in
        let p = Poly.of_roots expected in
        let roots = (Poly.roots p).Poly.roots in
        Array.iter
          (fun e ->
            check_bool "found" true
              (Array.exists (fun r -> Cx.equal ~eps:1e-6 r e) roots))
          expected);
    case "roots evaluate to zero" (fun () ->
        let p = [| c 2. 1.; c 0. (-1.); c 1. 1.; Cx.one |] in
        Array.iter
          (fun r -> check_bool "p(r) ~ 0" true (Cx.abs (Poly.eval p r) < 1e-7))
          (Poly.roots p).Poly.roots);
    case "roots of linear polynomial" (fun () ->
        let s = Poly.roots [| Cx.of_float (-3.); Cx.of_float 1.5 |] in
        let roots = s.Poly.roots in
        check_bool "converged" false s.Poly.capped;
        check_int "one root" 1 (Array.length roots);
        check_bool "z = 2" true (Cx.equal ~eps:1e-9 (Cx.of_float 2.) roots.(0)));
    case "repeated roots found with multiplicity" (fun () ->
        (* (z-1)^3: accuracy degrades to ~tol^(1/3) for triple roots *)
        let p = Poly.of_roots [| Cx.one; Cx.one; Cx.one |] in
        let s = Poly.roots p in
        let roots = s.Poly.roots in
        (* a triple root converges only linearly: the cap is reported *)
        check_bool "capped" true s.Poly.capped;
        check_int "three roots" 3 (Array.length roots);
        Array.iter
          (fun r -> check_bool "near 1" true (Cx.abs (Cx.sub r Cx.one) < 1e-3))
          roots);
    case "monic of zero polynomial raises" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Poly.monic: zero polynomial")
          (fun () -> ignore (Poly.monic [| Cx.zero; Cx.zero |])));
    case "eigenvalues of diagonal" (fun () ->
        let m = Cmat.diag [| c 2. 0.; c 0. 1.; c (-1.) 1. |] in
        let eigs = (Eig.eigenvalues m).Poly.roots in
        Array.iter
          (fun e ->
            check_bool "eig present" true
              (Array.exists (fun d -> Cx.equal ~eps:1e-7 d e) eigs))
          [| c 2. 0.; c 0. 1.; c (-1.) 1. |]);
    case "eigenvalues of pauli x" (fun () ->
        let eigs = (Eig.eigenvalues Qgate.Unitary.pauli_x).Poly.roots in
        let has v = Array.exists (fun e -> Cx.equal ~eps:1e-8 e (Cx.of_float v)) eigs in
        check_bool "+1" true (has 1.);
        check_bool "-1" true (has (-1.)));
    case "char poly of 2x2" (fun () ->
        (* [[1, 2], [3, 4]]: z² - 5z - 2 *)
        let m = Cmat.of_real_lists [ [ 1.; 2. ]; [ 3.; 4. ] ] in
        let p = Eig.char_poly m in
        check_bool "c0 = -2" true (Cx.equal ~eps:1e-12 (Cx.of_float (-2.)) p.(0));
        check_bool "c1 = -5" true (Cx.equal ~eps:1e-12 (Cx.of_float (-5.)) p.(1));
        check_bool "c2 = 1" true (Cx.equal ~eps:1e-12 Cx.one p.(2)));
    qcheck ~count:25 "eigenvalue phases of unitaries are unit modulus"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let u = random_unitary (Qgraph.Rand.create seed) 2 8 in
        Array.for_all
          (fun e -> Float.abs (Cx.abs e -. 1.) < 1e-5)
          (Eig.eigenvalues u).Poly.roots) ]

let suites =
  [ ("qnum.cx", cx_cases);
    ("qnum.vec", vec_cases);
    ("qnum.cmat", cmat_cases);
    ("qnum.expm", expm_cases);
    ("qnum.poly_eig", poly_cases) ]
