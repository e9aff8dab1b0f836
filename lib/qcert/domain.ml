module Gate = Qgate.Gate

type verdict = Proved | Refuted | Unknown

let verdict_to_string = function
  | Proved -> "proved"
  | Refuted -> "refuted"
  | Unknown -> "unknown"

let dense_limit = 10

let support gates =
  List.sort_uniq compare (List.concat_map Gate.qubits gates)

(* relabel a word onto local indices of a (sorted) joint support *)
let relabel joint gates =
  let local = Hashtbl.create 16 in
  List.iteri (fun k q -> Hashtbl.replace local q k) joint;
  List.map (Gate.map_qubits (fun q -> Hashtbl.find local q)) gates

let gates_equal = List.equal Gate.equal

(* decide a ≡ b (up to global phase) for words already relabelled to a
   common register of [n] qubits *)
let equal_on n a b =
  if gates_equal a b then (Proved, "identical")
  else
    match
      ( Qdomain.Tableau.of_gates ~n_qubits:n a,
        Qdomain.Tableau.of_gates ~n_qubits:n b )
    with
    | Some ta, Some tb ->
      (* complete on the Clifford fragment *)
      if Qdomain.Tableau.equal ta tb then (Proved, "tableau")
      else (Refuted, "tableau")
    | _ ->
      (* dense work is ~(|a|+|b|)·4ⁿ·2^arity flops; refuse pathological
         combinations of width and length rather than stall *)
      let affordable =
        n <= dense_limit
        && (List.length a + List.length b) * (1 lsl (2 * n)) <= 100_000_000
      in
      if affordable then begin
        let ua = Qgate.Unitary.of_gates ~n_qubits:n a
        and ub = Qgate.Unitary.of_gates ~n_qubits:n b in
        if Qgate.Unitary.equal_up_to_global_phase ~eps:1e-7 ua ub then
          (Proved, "dense")
        else (Refuted, "dense")
      end
      else
        match
          ( Qdomain.Phase_poly.of_gates ~n_qubits:n a,
            Qdomain.Phase_poly.of_gates ~n_qubits:n b )
        with
        | Some pa, Some pb ->
          (* sound both ways in practice; see the caveat in phase_poly.mli *)
          if Qdomain.Phase_poly.equal pa pb then (Proved, "phase-poly")
          else (Refuted, "phase-poly")
        | _ -> (Unknown, "too-wide")

let equal_gates a b =
  let joint = support (a @ b) in
  let n = List.length joint in
  if n = 0 then (Proved, "trivial")
  else equal_on n (relabel joint a) (relabel joint b)

let is_diagonal_gates gates =
  if List.for_all (fun (g : Gate.t) -> Gate.is_diagonal_kind g.Gate.kind) gates
  then (Proved, "kinds")
  else
    let joint = support gates in
    let n = List.length joint in
    if n = 0 then (Proved, "trivial")
    else
      let local = relabel joint gates in
      match Qdomain.Phase_poly.of_gates ~n_qubits:n local with
      | Some p ->
        (* the affine part decides diagonality exactly on this fragment *)
        if Qdomain.Phase_poly.is_linear_identity p then (Proved, "phase-poly")
        else (Refuted, "phase-poly")
      | None ->
        if n <= dense_limit then
          if Qnum.Cmat.is_diagonal ~eps:1e-7
               (Qgate.Unitary.of_gates ~n_qubits:n local)
          then (Proved, "dense")
          else (Refuted, "dense")
        else (Unknown, "too-wide")

let blocks_commute a b =
  let sa = support a and sb = support b in
  if not (List.exists (fun q -> List.mem q sb) sa) then (Proved, "disjoint")
  else if gates_equal a b then (Proved, "identical")
  else
    let diag gates =
      match is_diagonal_gates gates with
      | Proved, _ -> true
      | _ -> false
    in
    if diag a && diag b then (Proved, "diagonal")
    else
      let joint = List.sort_uniq compare (sa @ sb) in
      let n = List.length joint in
      let a = relabel joint a and b = relabel joint b in
      equal_on n (a @ b) (b @ a)
