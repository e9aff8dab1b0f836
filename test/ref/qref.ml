(* Memo-free executable specifications for the commutation oracle and
   the detect pass. The qcheck suite pins every production path in
   Qgdg against these; nothing here is linked into the compiler. *)

module Gate = Qgate.Gate
module Gdg = Qgdg.Gdg
module Inst = Qgdg.Inst

let max_check_width = Qgdg.Oracle.max_check_width

let all_diagonal gs = List.for_all (fun g -> Gate.is_diagonal_kind g.Gate.kind) gs

(* order-preserving relabelling of a gate list onto 0..|support|-1 *)
let relabel_onto support gs =
  let local = Hashtbl.create 8 in
  List.iteri (fun k q -> Hashtbl.replace local q k) support;
  List.map (Gate.map_qubits (fun q -> Hashtbl.find local q)) gs

(* Is the composed unitary diagonal in the computational basis? True
   when every member is diagonal; otherwise decided on the support
   (false beyond [max_check_width]). *)
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
       identity, so CNOT+diagonal blocks are decided without a dense
       unitary *)
    (match Qdomain.Phase_poly.of_gates ~n_qubits (relabel_onto support gs) with
    | Some p -> Qdomain.Phase_poly.is_linear_identity p
    | None ->
      let _, u = Qgate.Unitary.on_support gs in
      Qnum.Cmat.is_diagonal ~eps:1e-9 u)

(* The dense comparison on the joint support (false beyond
   [max_check_width]), with no algebraic shortcut. *)
let dense_commute a_gates b_gates =
  let support =
    List.sort_uniq compare
      (List.concat_map Gate.qubits a_gates @ List.concat_map Gate.qubits b_gates)
  in
  List.length support <= max_check_width
  && Qgdg.Oracle.dense_on ~n_qubits:(List.length support)
       (relabel_onto support a_gates)
       (relabel_onto support b_gates)

(* The pre-oracle decision chain: structural shortcuts, support width
   gate, then the attempt-and-fail algebraic dispatch (phase polynomial,
   then tableau), then the dense comparison. No metrics, no decision
   memo. *)
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
          | None -> Qgdg.Oracle.dense_on ~n_qubits a b)
        | _ -> (
          match
            ( Qdomain.Tableau.of_gates ~n_qubits (a @ b),
              Qdomain.Tableau.of_gates ~n_qubits (b @ a) )
          with
          | Some t_ab, Some t_ba ->
            Qdomain.Tableau.equal t_ab t_ba
            &&
            let s_ab = Qgate.Unitary.state_of_gates ~n_qubits (a @ b) in
            let s_ba = Qgate.Unitary.state_of_gates ~n_qubits (b @ a) in
            let ok = ref true in
            Array.iteri
              (fun i z ->
                if Qnum.Cx.abs (Qnum.Cx.sub z s_ba.(i)) > 1e-6 then ok := false)
              s_ab;
            !ok
          | _ -> Qgdg.Oracle.dense_on ~n_qubits a b)
      end
    end

let insts_reference a b = blocks_reference a.Inst.gates b.Inst.gates

(* ---- the pre-oracle detect pass ---- *)

(* grow the longest contiguous run starting at [id] whose support stays
   within one qubit pair; each appended node must have its predecessor (on
   every qubit it shares with the run) inside the run, so the run is a
   schedulable contiguous block. [last_on] tracks, per qubit, the most
   recently appended run node touching it — appends only extend chains
   forward, so it is the chain-last run node on that qubit. *)
let grow_run_reference g id =
  let start = Gdg.find g id in
  let run = ref [ id ] in
  let run_mem = Hashtbl.create 8 in
  Hashtbl.replace run_mem id ();
  let gate_count = ref (List.length start.Inst.gates) in
  let support = ref start.Inst.qubits in
  let last_on = Hashtbl.create 4 in
  List.iter (fun q -> Hashtbl.replace last_on q id) start.Inst.qubits;
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let candidates =
      List.filter_map
        (fun q ->
          match Hashtbl.find_opt last_on q with
          | None -> None
          | Some last ->
            (match Gdg.succ_on g last ~qubit:q with
             | Some s when not (Hashtbl.mem run_mem s.Inst.id) -> Some s
             | Some _ | None -> None))
        !support
    in
    let eligible (c : Inst.t) =
      let union = List.sort_uniq compare (c.Inst.qubits @ !support) in
      List.length union <= 2
      && !gate_count + List.length c.Inst.gates <= Qgdg.Diagonal.max_run_gates
      && List.for_all
           (fun q ->
             (not (List.mem q !support))
             ||
             match Gdg.pred_on g c.Inst.id ~qubit:q with
             | Some p -> Hashtbl.mem run_mem p.Inst.id
             | None -> false)
           c.Inst.qubits
    in
    match List.find_opt eligible candidates with
    | Some c ->
      run := c.Inst.id :: !run;
      Hashtbl.replace run_mem c.Inst.id ();
      gate_count := !gate_count + List.length c.Inst.gates;
      support := List.sort_uniq compare (c.Inst.qubits @ !support);
      List.iter (fun q -> Hashtbl.replace last_on q c.Inst.id) c.Inst.qubits;
      continue_ := true
    | None -> ()
  done;
  List.rev !run

(* longest prefix (>= 2 nodes) whose composed unitary is diagonal *)
let diagonal_prefix_reference g run =
  let rec prefixes acc rev_best = function
    | [] -> rev_best
    | id :: rest ->
      let acc = acc @ [ id ] in
      let gates = List.concat_map (fun i -> (Gdg.find g i).Inst.gates) acc in
      let rev_best =
        if List.length acc >= 2 && is_diagonal_block gates then Some acc
        else rev_best
      in
      prefixes acc rev_best rest
  in
  prefixes [] None run

(* full re-sweep per round, per-prefix dense re-checks, full topological
   validation per merge *)
let detect_and_contract_reference ~latency g =
  let merges = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let ids = List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g) in
    List.iter
      (fun id ->
        if Gdg.mem g id then begin
          match diagonal_prefix_reference g (grow_run_reference g id) with
          | Some (first :: (_ :: _ as rest)) ->
            ignore
              (List.fold_left
                 (fun acc next ->
                   let gates =
                     (Gdg.find g acc).Inst.gates @ (Gdg.find g next).Inst.gates
                   in
                   (Gdg.merge g ~latency:(latency gates) acc next).Inst.id)
                 first rest);
            incr merges;
            changed := true
          | Some _ | None -> ()
        end)
      ids
  done;
  !merges
