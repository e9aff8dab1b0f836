module Inst = Qgdg.Inst
module Ready = Set.Make (Int)

let schedule g =
  let n_qubits = Qgdg.Gdg.n_qubits g in
  let nq = max 1 n_qubits in
  let groups = Qgdg.Comm_group.build g in
  (* instructions by topological position; the ready set holds positions,
     so walking it in ascending order yields candidates in exactly the
     [Gdg.insts] order every matching decision depends on *)
  let order = Array.of_list (Qgdg.Gdg.insts g) in
  let total = Array.length order in
  let pos = Array.make (Qgdg.Gdg.next_id g) (-1) in
  Array.iteri (fun k (i : Inst.t) -> pos.(i.Inst.id) <- k) order;
  let width = Array.map Inst.width order in
  (* Per-qubit cursor over the ordered groups: [head.(q)] is the current
     group's position and [remaining.(q).(p)] counts its unscheduled
     members. [at_head.(k)] counts the qubits whose current group holds
     instruction [k]; it is ready once that reaches its width. Only the
     current group's members can be scheduled, so a group the cursor
     reaches is whole and unscheduled, and bumping its members there is
     the only way an instruction becomes ready. *)
  let members =
    Array.init nq (fun q ->
        Array.of_list (Qgdg.Comm_group.groups_on groups q))
  in
  let remaining = Array.map (Array.map List.length) members in
  let head = Array.make nq 0 in
  let at_head = Array.make total 0 in
  let ready = ref Ready.empty in
  let enter q =
    if head.(q) < Array.length members.(q) then
      List.iter
        (fun id ->
          let k = pos.(id) in
          at_head.(k) <- at_head.(k) + 1;
          if at_head.(k) = width.(k) then ready := Ready.add k !ready)
        members.(q).(head.(q))
  in
  for q = 0 to nq - 1 do
    enter q
  done;
  (* an instruction is scheduled out of the current group on each of its
     qubits, and a round schedules at most one instruction per qubit *)
  let leave_group q =
    remaining.(q).(head.(q)) <- remaining.(q).(head.(q)) - 1;
    while
      head.(q) < Array.length remaining.(q) && remaining.(q).(head.(q)) = 0
    do
      head.(q) <- head.(q) + 1;
      enter q
    done
  in
  let qubit_free = Array.make nq 0. in
  let claimed = Array.make nq false in
  let eps = 1e-9 in
  let time = ref 0. in
  let free k =
    List.for_all (fun q -> qubit_free.(q) <= !time +. eps) order.(k).Inst.qubits
  in
  let scheduled = ref 0 in
  let visits = ref 0 in
  let entries = ref [] in
  let select k =
    let i = order.(k) in
    let entry =
      { Schedule.inst = i; start = !time; finish = !time +. i.Inst.latency }
    in
    ready := Ready.remove k !ready;
    incr scheduled;
    entries := entry :: !entries;
    List.iter
      (fun q ->
        claimed.(q) <- true;
        qubit_free.(q) <- entry.Schedule.finish;
        leave_group q)
      i.Inst.qubits
  in
  while !scheduled < total do
    let candidates =
      List.rev
        (Ready.fold
           (fun k acc ->
             incr visits;
             if free k then k :: acc else acc)
           !ready [])
    in
    if candidates <> [] then begin
      Qobs.Metrics.tick "cls.matching_rounds";
      Array.fill claimed 0 nq false;
      (* wide instructions claim greedily; the rest go through matching *)
      let wide, narrow = List.partition (fun k -> width.(k) > 2) candidates in
      List.iter
        (fun k ->
          if List.for_all (fun q -> not claimed.(q)) order.(k).Inst.qubits
          then select k)
        wide;
      let edges =
        List.filter_map
          (fun k ->
            let i = order.(k) in
            if List.exists (fun q -> claimed.(q)) i.Inst.qubits then None
            else
              match i.Inst.qubits with
              | [ q ] -> Some { Qgraph.Matching.u = q; v = q; label = k }
              | [ q; r ] -> Some { Qgraph.Matching.u = q; v = r; label = k }
              | _ -> None)
          narrow
      in
      let chosen = Qgraph.Matching.maximal_edges ~n:n_qubits edges in
      Qobs.Metrics.tick ~by:(List.length chosen) "cls.matched";
      List.iter (fun e -> select e.Qgraph.Matching.label) chosen
    end;
    if !scheduled < total && not (Ready.exists free !ready) then begin
      (* advance to the next qubit-release event: a candidate only
         becomes startable when some qubit frees up, and the release
         instants are exactly the [qubit_free] values, so stepping to
         the least one past [time] visits every instant at which the
         candidate set can grow (completions that are not any qubit's
         latest were barren rounds) *)
      let next =
        Array.fold_left
          (fun acc f -> if f > !time +. eps then Float.min acc f else acc)
          Float.infinity qubit_free
      in
      if next = Float.infinity then
        failwith "Cls.schedule: deadlock (malformed dependence graph)";
      Qobs.Metrics.tick "cls.time_advances";
      time := next
    end
  done;
  Qobs.Metrics.tick ~by:!visits "cls.ready_visits";
  Schedule.make ~n_qubits !entries

let makespan g = (schedule g).Schedule.makespan
