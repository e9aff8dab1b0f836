let max_run_gates = 10

(* ---- windowed detection over flat per-qubit frontier tables ---- *)

(* The test-scope reference fixpoint costs O(sweeps × nodes ×
   chain-length) in [Gdg.succ_on]/[pred_on] walks plus a full Kahn pass
   per merge. The production path below keeps flat pred/succ tables
   ([id*nq+q], -1 absent) and an incremental ASAP schedule, patched only
   around each contraction the way Qagg patches its slack tables; the
   ASAP start doubles as the topological potential handed to
   [Gdg.merge ~rank], so acyclicity checks are bounded reachability
   probes instead of full topological passes. *)
type state = {
  g : Gdg.t;
  nq : int;
  mutable pred : int array;  (* id*nq+q -> chain predecessor id, -1 none *)
  mutable succ : int array;
  mutable start : float array;  (* ASAP start, nan = absent *)
  mutable finish : float array;
  mutable stamp : int array;  (* worklist dedup, epoch-stamped *)
  mutable epoch : int;
}

let ensure_capacity st id =
  let cap = Array.length st.start in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * max 1 cap) in
    let grow_int a def =
      let b = Array.make (ncap * (Array.length a / max 1 cap)) def in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    let grow_float a =
      let b = Array.make ncap nan in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    st.pred <- grow_int st.pred (-1);
    st.succ <- grow_int st.succ (-1);
    st.stamp <- grow_int st.stamp 0;
    st.start <- grow_float st.start;
    st.finish <- grow_float st.finish
  end

let build_state g =
  let nq = max 1 (Gdg.n_qubits g) in
  let cap = max 1 (Gdg.next_id g) in
  let st =
    { g;
      nq;
      pred = Array.make (cap * nq) (-1);
      succ = Array.make (cap * nq) (-1);
      start = Array.make cap nan;
      finish = Array.make cap nan;
      stamp = Array.make cap 0;
      epoch = 0 }
  in
  let indeg = Array.make cap 0 in
  for q = 0 to Gdg.n_qubits g - 1 do
    let rec link = function
      | x :: (y :: _ as rest) ->
        st.succ.((x * nq) + q) <- y;
        st.pred.((y * nq) + q) <- x;
        indeg.(y) <- indeg.(y) + 1;
        link rest
      | _ -> ()
    in
    link (Gdg.chain_ids g q)
  done;
  (* forward ASAP pass (Kahn over the chain edges) *)
  let queue = Queue.create () in
  Gdg.iter_insts g (fun i ->
      if indeg.(i.Inst.id) = 0 then Queue.add i.Inst.id queue);
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let inst = Gdg.find g id in
    let s =
      List.fold_left
        (fun acc q ->
          let p = st.pred.((id * nq) + q) in
          if p < 0 then acc else Float.max acc st.finish.(p))
        0. inst.Inst.qubits
    in
    st.start.(id) <- s;
    st.finish.(id) <- s +. inst.Inst.latency;
    List.iter
      (fun q ->
        let c = st.succ.((id * nq) + q) in
        if c >= 0 then begin
          indeg.(c) <- indeg.(c) - 1;
          if indeg.(c) = 0 then Queue.add c queue
        end)
      inst.Inst.qubits
  done;
  st

let rank st id =
  if id < Array.length st.start && not (Float.is_nan st.start.(id)) then
    st.start.(id)
  else neg_infinity

(* Incremental counterpart of {!build_state} after one accepted merge of
   [a] and [b] into [merged] (Qagg's slack-patching idiom): only the
   merged support's chains changed, so their pred/succ entries are
   re-linked and the ASAP times re-propagated by worklist from those
   chains — each recomputation uses exactly the folds of the full pass,
   and the fixpoint on a DAG is unique, so the tables equal a
   from-scratch recomputation. [old_chains] are the (qubit, chain ids) of
   the merged support captured before the merge. *)
let update_state_after_merge st ~old_chains ~a ~b (merged : Inst.t) =
  ensure_capacity st merged.Inst.id;
  let nq = st.nq in
  let a_id = a and b_id = b in
  let new_chains =
    List.map (fun q -> (q, Gdg.chain_ids st.g q)) merged.Inst.qubits
  in
  (* nodes whose chain predecessor was a merge endpoint: the only nodes
     (besides the merged one) whose ASAP inputs changed structurally —
     the seeds of the repropagation below *)
  let reseeds = ref [] in
  List.iter
    (fun (q, old_ids) ->
      let prev = ref (-1) in
      List.iter
        (fun x ->
          if (!prev = a_id || !prev = b_id) && x <> a_id && x <> b_id then
            reseeds := x :: !reseeds;
          prev := x;
          st.pred.((x * nq) + q) <- -1;
          st.succ.((x * nq) + q) <- -1)
        old_ids)
    old_chains;
  List.iter
    (fun (q, ids) ->
      let rec link = function
        | x :: (y :: _ as rest) ->
          st.succ.((x * nq) + q) <- y;
          st.pred.((y * nq) + q) <- x;
          link rest
        | _ -> ()
      in
      link ids)
    new_chains;
  st.start.(a) <- nan;
  st.finish.(a) <- nan;
  st.start.(b) <- nan;
  st.finish.(b) <- nan;
  st.epoch <- st.epoch + 1;
  let ep = st.epoch in
  let queue = Queue.create () in
  let push x =
    if st.stamp.(x) <> ep then begin
      st.stamp.(x) <- ep;
      Queue.add x queue
    end
  in
  (* seed only where an ASAP input changed: the merged node (fresh
     latency, inherited predecessors) and the old followers of the two
     endpoints (their chain predecessor is now the merged node or the
     endpoint's former predecessor); everything downstream is reached by
     the finish-changed cascade *)
  push merged.Inst.id;
  List.iter push !reseeds;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    st.stamp.(x) <- 0;
    let inst = Gdg.find st.g x in
    let s =
      List.fold_left
        (fun acc q ->
          let p = st.pred.((x * nq) + q) in
          if p < 0 then acc
          else
            let f = st.finish.(p) in
            Float.max acc (if Float.is_nan f then 0. else f))
        0. inst.Inst.qubits
    in
    let f = s +. inst.Inst.latency in
    if not (st.start.(x) = s && st.finish.(x) = f) then begin
      st.start.(x) <- s;
      st.finish.(x) <- f;
      List.iter
        (fun q ->
          let c = st.succ.((x * nq) + q) in
          if c >= 0 then push c)
        inst.Inst.qubits
    end
  done

(* table-backed run growth, yielding the same runs as the list-based
   test-scope reference (the qcheck suite pins the equality), with the support held as at most two sorted ints
   ([Int.compare] ordering — supports are non-negative, so this matches
   the reference's polymorphic sort) and run membership as a linear scan
   of the ≤ [max_run_gates]-node run array. Candidates are probed in
   ascending support-qubit order and the first eligible one is appended,
   exactly the reference's [filter_map] + [find_opt] order. *)
let grow_run_state st id =
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

let grow_run g id = grow_run_state (build_state g) id

(* longest prefix (>= 2 nodes) whose composed unitary is diagonal,
   decided by one incremental oracle scan over the run *)
let diagonal_prefix_state st run =
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

let mark_dirty st dirty (merged : Inst.t) =
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
  let st = build_state g in
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
                  let old_chains =
                    List.map
                      (fun q -> (q, Gdg.chain_ids g q))
                      (List.sort_uniq compare (ia.Inst.qubits @ ib.Inst.qubits))
                  in
                  let merged =
                    Gdg.merge g ~rank:(rank st) ~latency:(latency gates) acc
                      next
                  in
                  update_state_after_merge st ~old_chains ~a:acc ~b:next merged;
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
