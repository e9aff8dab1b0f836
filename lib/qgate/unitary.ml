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

(* One gate prepared for in-place application on an n-qubit register:
   [spread.(l)] is the global-index offset of gate-local index l (local
   bit k-1-pos lives at global bit n-1-q for q the pos-th listed qubit —
   the same frame as Cmat.embed), [targets] the bits the gate acts on,
   [moves] whether it carries amplitude between indices (an off-diagonal
   entry is nonzero), and [ure]/[uim] the gate's matrix, row-major. *)
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
  let dim = 1 lsl n_qubits in
  let op_of (g : Gate.t) =
    let dl = 1 lsl Gate.arity g in
    (* the t-th listed target is local bit (arity-1-t), mask dl lsr (t+1) *)
    let spread = Array.make dl 0 in
    List.iteri
      (fun t q ->
        let local = dl lsr (t + 1) and global = 1 lsl (n_qubits - 1 - q) in
        for l = 0 to dl - 1 do
          if l land local <> 0 then spread.(l) <- spread.(l) lor global
        done)
      (Gate.qubits g);
    let u = of_kind g.Gate.kind in
    let ure = Array.make (dl * dl) 0. and uim = Array.make (dl * dl) 0. in
    let moves = ref false in
    for i = 0 to dl - 1 do
      for j = 0 to dl - 1 do
        let z = Cmat.get u i j in
        ure.((i * dl) + j) <- Cx.re z;
        uim.((i * dl) + j) <- Cx.im z;
        if i <> j && not (Cx.is_zero ~eps:0. z) then moves := true
      done
    done;
    { dl; spread; targets = spread.(dl - 1); moves = !moves; ure; uim }
  in
  let ops = Array.of_list (List.map op_of gates) in
  (* per-program scratch for one index group's amplitudes (arity ≤ 3) *)
  { dim; ops; ar = Array.make 8 0.; ai = Array.make 8 0. }

(* Apply every gate in turn to the state held in [re]/[im]. Every nonzero
   amplitude sits at an index that agrees with [fixed] outside the bits
   of [free]: at the start, the bits on which the nonzero indices differ;
   after each gate that moves amplitude, widened by its targets. A gate
   visits only the index groups inside that set (the subsets of [vary]),
   and a group whose amplitudes are all exactly zero maps to zero and is
   skipped, so a basis column costs a handful of groups per gate until
   the gates have spread it over the register. *)
let run p re im =
  if Array.length re <> p.dim || Array.length im <> p.dim then
    invalid_arg "Unitary.run: buffer length does not match the program";
  let ar = p.ar and ai = p.ai in
  let all_and = ref (p.dim - 1) and all_or = ref 0 in
  for x = 0 to p.dim - 1 do
    if re.(x) <> 0. || im.(x) <> 0. then begin
      all_and := !all_and land x;
      all_or := !all_or lor x
    end
  done;
  let fixed = !all_and and free = ref (!all_and lxor !all_or) in
  Array.iter
    (fun o ->
      let dl = o.dl and spread = o.spread and ure = o.ure and uim = o.uim in
      if o.moves then free := !free lor o.targets;
      let vary = !free land lnot o.targets in
      let outside = fixed land lnot (!free lor o.targets) in
      let sub = ref 0 and more = ref true in
      while !more do
        let base = outside lor !sub in
        let nonzero = ref false in
        for l = 0 to dl - 1 do
          let x = base lor spread.(l) in
          let r = re.(x) and i = im.(x) in
          ar.(l) <- r;
          ai.(l) <- i;
          if r <> 0. || i <> 0. then nonzero := true
        done;
        if !nonzero then
          for i = 0 to dl - 1 do
            let sr = ref 0. and si = ref 0. in
            let off = i * dl in
            for j = 0 to dl - 1 do
              let ur = ure.(off + j) and ui = uim.(off + j) in
              sr := !sr +. ((ur *. ar.(j)) -. (ui *. ai.(j)));
              si := !si +. ((ur *. ai.(j)) +. (ui *. ar.(j)))
            done;
            let x = base lor spread.(i) in
            re.(x) <- !sr;
            im.(x) <- !si
          done;
        sub := ((!sub lor lnot vary) + 1) land vary;
        if !sub = 0 then more := false
      done)
    p.ops

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
