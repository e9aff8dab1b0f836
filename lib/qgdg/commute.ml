module Gate = Qgate.Gate

let max_check_width = Oracle.max_check_width

let all_diagonal gs = List.for_all (fun g -> Gate.is_diagonal_kind g.Gate.kind) gs

(* order-preserving relabelling of a gate list onto 0..|support|-1 *)
let relabel_onto support gs =
  let local = Hashtbl.create 8 in
  List.iteri (fun k q -> Hashtbl.replace local q k) support;
  List.map (Gate.map_qubits (fun q -> Hashtbl.find local q)) gs

let is_diagonal_block gs =
  match gs with
  | [] -> true
  | _ when all_diagonal gs -> true
  | _ ->
    let support = List.sort_uniq compare (List.concat_map Gate.qubits gs) in
    List.length support <= max_check_width
    &&
    let n_qubits = List.length support in
    (* |x⟩ ↦ e^{iφ(x)}|Ax⊕c⟩ is diagonal iff the affine part is the
       identity, so CNOT+diagonal blocks (CNOT–Rz–CNOT contractions in
       particular) are decided without a dense unitary *)
    (match Qdomain.Phase_poly.of_gates ~n_qubits (relabel_onto support gs) with
    | Some p -> Qdomain.Phase_poly.is_linear_identity p
    | None ->
      let _, u = Qgate.Unitary.on_support gs in
      Qnum.Cmat.is_diagonal ~eps:1e-9 u)

let dense_commute a_gates b_gates =
  let support =
    List.sort_uniq compare
      (List.concat_map Gate.qubits a_gates @ List.concat_map Gate.qubits b_gates)
  in
  if List.length support > max_check_width then begin
    Qobs.Metrics.tick "commute.oversize";
    false
  end
  else
    Oracle.dense_on ~n_qubits:(List.length support)
      (relabel_onto support a_gates)
      (relabel_onto support b_gates)

(* The pre-oracle decision chain, retained memo-free as the reference the
   qcheck suite pins {!blocks} against: structural shortcuts, support
   width gate, then the attempt-and-fail algebraic dispatch (phase
   polynomial, then tableau), then the dense comparison. No metrics, no
   decision memo — results must be reproducible independently of any
   cache the oracle keeps ([dense_on] keeps none). *)
let blocks_reference a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | _ ->
    let qa = List.sort_uniq compare (List.concat_map Gate.qubits a) in
    let qb = List.sort_uniq compare (List.concat_map Gate.qubits b) in
    let disjoint = not (List.exists (fun q -> List.mem q qb) qa) in
    if disjoint then true
    else if all_diagonal a && all_diagonal b then true
    else begin
      let support = List.sort_uniq compare (qa @ qb) in
      if List.length support > max_check_width then false
      else begin
        let n_qubits = List.length support in
        let a = relabel_onto support a and b = relabel_onto support b in
        match
          ( Qdomain.Phase_poly.of_gates ~n_qubits (a @ b),
            Qdomain.Phase_poly.of_gates ~n_qubits (b @ a) )
        with
        | Some p_ab, Some p_ba -> (
          match Qdomain.Phase_poly.strict_equal ~eps:1e-9 p_ab p_ba with
          | Some r -> r
          | None -> Oracle.dense_on ~n_qubits a b)
        | _ -> (
          match
            ( Qdomain.Tableau.of_gates ~n_qubits (a @ b),
              Qdomain.Tableau.of_gates ~n_qubits (b @ a) )
          with
          | Some t_ab, Some t_ba ->
            if not (Qdomain.Tableau.equal t_ab t_ba) then false
            else begin
              let s_ab = Qgate.Unitary.state_of_gates ~n_qubits (a @ b) in
              let s_ba = Qgate.Unitary.state_of_gates ~n_qubits (b @ a) in
              let ok = ref true in
              Array.iteri
                (fun i z ->
                  if Qnum.Cx.abs (Qnum.Cx.sub z s_ba.(i)) > 1e-6 then
                    ok := false)
                s_ab;
              !ok
            end
          | _ -> Oracle.dense_on ~n_qubits a b)
      end
    end

let blocks a b = Oracle.blocks a b
let gates a b = Oracle.gates a b
let insts a b = Oracle.blocks a.Inst.gates b.Inst.gates

let insts_reference a b = blocks_reference a.Inst.gates b.Inst.gates

(* idempotent; clears the calling domain's oracle tables *)
let reset_memos () = Oracle.reset_memos ()
