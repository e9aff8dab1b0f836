let max_run_gates = 10

(* The test-scope reference fixpoint costs O(sweeps × nodes ×
   chain-length) in [Gdg.succ_on]/[pred_on] walks plus a full Kahn pass
   per merge. The production path below reads the chain tables of
   {!Timing}, patched only around each contraction; the ASAP start
   doubles as the topological potential handed to [Gdg.merge ~rank], so
   acyclicity checks are bounded reachability probes instead of full
   topological passes. *)

(* table-backed run growth, yielding the same runs as the list-based
   test-scope reference (the qcheck suite pins the equality), with the support held as at most two sorted ints
   ([Int.compare] ordering — supports are non-negative, so this matches
   the reference's polymorphic sort) and run membership as a linear scan
   of the ≤ [max_run_gates]-node run array. Candidates are probed in
   ascending support-qubit order and the first eligible one is appended,
   exactly the reference's [filter_map] + [find_opt] order. *)
let grow_run_state (st : Timing.t) id =
  let g = st.g in
  let nq = st.nq in
  let start = Gdg.find g id in
  let run = Array.make (max_run_gates + 1) (-1) in
  run.(0) <- id;
  let run_len = ref 1 in
  let in_run x =
    let rec scan k = k < !run_len && (run.(k) = x || scan (k + 1)) in
    scan 0
  in
  let gate_count = ref (List.length start.Inst.gates) in
  (* sorted support, at most a pair: s0 < s1 when both present *)
  let s0 = ref (-1) and s1 = ref (-1) in
  let last0 = ref (-1) and last1 = ref (-1) in
  List.iter
    (fun q ->
      if !s0 < 0 then begin
        s0 := q;
        last0 := id
      end
      else if q < !s0 then begin
        s1 := !s0;
        last1 := !last0;
        s0 := q;
        last0 := id
      end
      else begin
        s1 := q;
        last1 := id
      end)
    start.Inst.qubits;
  (* reference eligibility: the union of supports stays within one
     qubit pair, the gate budget holds, and every qubit the candidate
     shares with the run has its chain predecessor inside the run
     (qubits fresh to the run always pass) *)
  let eligible (c : Inst.t) =
    let fresh =
      List.fold_left
        (fun acc q -> if q = !s0 || q = !s1 then acc else acc + 1)
        0 c.Inst.qubits
    in
    let width = (if !s0 >= 0 then 1 else 0) + (if !s1 >= 0 then 1 else 0) in
    width + fresh <= 2
    && !gate_count + List.length c.Inst.gates <= max_run_gates
    && List.for_all
         (fun q ->
           (q <> !s0 && q <> !s1)
           ||
           let p = st.pred.((c.Inst.id * nq) + q) in
           p >= 0 && in_run p)
         c.Inst.qubits
  in
  let append (c : Inst.t) =
    run.(!run_len) <- c.Inst.id;
    incr run_len;
    gate_count := !gate_count + List.length c.Inst.gates;
    List.iter
      (fun q ->
        if q = !s0 then last0 := c.Inst.id
        else if q = !s1 then last1 := c.Inst.id
        else if !s0 < 0 then begin
          s0 := q;
          last0 := c.Inst.id
        end
        else if !s1 < 0 then
          if q < !s0 then begin
            s1 := !s0;
            last1 := !last0;
            s0 := q;
            last0 := c.Inst.id
          end
          else begin
            s1 := q;
            last1 := c.Inst.id
          end
        else assert false)
      c.Inst.qubits
  in
  let candidate_on last q =
    if last < 0 then None
    else
      let sid = st.succ.((last * nq) + q) in
      if sid >= 0 && not (in_run sid) then Some (Gdg.find g sid) else None
  in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let pick =
      match candidate_on !last0 !s0 with
      | Some c when eligible c -> Some c
      | _ -> (
        if !s1 < 0 then None
        else
          match candidate_on !last1 !s1 with
          | Some c when eligible c -> Some c
          | _ -> None)
    in
    match pick with
    | Some c ->
      append c;
      continue_ := true
    | None -> ()
  done;
  Array.to_list (Array.sub run 0 !run_len)

let grow_run g id = grow_run_state (Timing.create g) id

(* longest prefix (>= 2 nodes) whose composed unitary is diagonal,
   decided by one incremental oracle scan over the run *)
let diagonal_prefix_state (st : Timing.t) run =
  let scan = Oracle.scan_create () in
  let best = ref 0 in
  List.iteri
    (fun k id ->
      Oracle.scan_push scan (Gdg.find st.g id).Inst.gates;
      if k >= 1 && Oracle.scan_is_diagonal scan then best := k + 1)
    run;
  if !best >= 2 then Some (List.filteri (fun k _ -> k < !best) run) else None

(* Invalidation window: a node's run outcome depends only on its forward
   cone along the chains — at most [max_run_gates] run nodes (every
   instruction carries at least one gate), one candidate hop beyond, and
   those candidates' chain predecessors, which are exactly the nodes a
   merge re-links (the merged node and its immediate neighbors). So after
   a contraction, only nodes within a bounded backward reach of the
   merged node and its neighbors can change their decision; everything
   else re-derives its previous no-merge outcome and is skipped on later
   sweeps. *)
let invalidate_depth = max_run_gates + 2

let mark_dirty (st : Timing.t) dirty (merged : Inst.t) =
  let nq = st.nq in
  let seeds = ref [ merged.Inst.id ] in
  List.iter
    (fun q ->
      let p = st.pred.((merged.Inst.id * nq) + q) in
      if p >= 0 then seeds := p :: !seeds;
      let s = st.succ.((merged.Inst.id * nq) + q) in
      if s >= 0 then seeds := s :: !seeds)
    merged.Inst.qubits;
  let frontier = ref !seeds in
  for _ = 0 to invalidate_depth do
    let next = ref [] in
    List.iter
      (fun x ->
        if not (Hashtbl.mem dirty x) then begin
          Hashtbl.replace dirty x ();
          match Gdg.find st.g x with
          | inst ->
            List.iter
              (fun q ->
                let p = st.pred.((x * nq) + q) in
                if p >= 0 && not (Hashtbl.mem dirty p) then next := p :: !next)
              inst.Inst.qubits
          | exception Not_found -> ()
        end)
      !frontier;
    frontier := !next
  done

let detect_and_contract ~latency g =
  let merges = ref 0 in
  let st = Timing.create g in
  let dirty : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let first_sweep = ref true in
  let changed = ref true in
  let sweeps = ref 0 and processed = ref 0 in
  while !changed do
    changed := false;
    incr sweeps;
    let ids = List.map (fun (i : Inst.t) -> i.Inst.id) (Gdg.insts g) in
    List.iter
      (fun id ->
        if Gdg.mem g id && (!first_sweep || Hashtbl.mem dirty id) then begin
          incr processed;
          Hashtbl.remove dirty id;
          let run = grow_run_state st id in
          match diagonal_prefix_state st run with
          | Some (first :: (_ :: _ as rest)) ->
            let merged =
              List.fold_left
                (fun acc next ->
                  let ia = Gdg.find g acc and ib = Gdg.find g next in
                  let gates = ia.Inst.gates @ ib.Inst.gates in
                  let merged =
                    Gdg.merge g ~rank:(Timing.rank st) ~latency:(latency gates)
                      acc next
                  in
                  ignore (Timing.splice st ~a:acc ~b:next merged : int);
                  merged.Inst.id)
                first rest
            in
            mark_dirty st dirty (Gdg.find g merged);
            incr merges;
            changed := true
          | Some _ | None -> ()
        end)
      ids;
    first_sweep := false
  done;
  Qobs.Metrics.tick ~by:!sweeps "detect.sweeps";
  Qobs.Metrics.tick ~by:!processed "detect.nodes_scanned";
  !merges
