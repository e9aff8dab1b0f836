let max_run_gates = 10

(* The test-scope reference fixpoint re-sweeps every node per round and
   re-checks every prefix densely. The production path below reads the
   {!Gdg} links directly. Every contraction is an exclusive edge (run
   members are contiguous on each chain, so when the fold merges [acc]
   with [next], either [next] adds no qubit and all its predecessors are
   [acc], or it adds one and [acc], on one qubit, has [next] as its only
   successor), so no merge here closes a cycle. *)

(* the longest contiguous run from [id] within one qubit pair, grown
   exactly as the test-scope reference grows it (the qcheck suite pins
   the equality): [last] pairs each support qubit, in ascending order,
   with the chain-last run node on it; their chain successors outside the
   run are the candidates, probed in that order, and the first eligible
   one is appended. A candidate is eligible when the support stays
   within a pair, the gate budget holds, and on every qubit it shares
   with the run its chain predecessor is in the run. *)
let grow_run (g : Gdg.t) id =
  let run = ref [] and gates = ref 0 and last = ref [] in
  let append (c : Inst.t) =
    run := c.Inst.id :: !run;
    gates := !gates + List.length c.Inst.gates;
    last :=
      List.sort compare
        (List.map (fun q -> (q, c.Inst.id)) c.Inst.qubits
        @ List.filter (fun (q, _) -> not (Inst.acts_on c q)) !last)
  in
  let eligible (c : Inst.t) =
    let l = g.Gdg.links.(c.Inst.id) in
    let w = Array.length l / 3 in
    let shared k = List.mem_assoc l.(k) !last in
    let fresh = List.filter (fun k -> not (shared k)) (List.init w Fun.id) in
    List.length !last + List.length fresh <= 2
    && !gates + List.length c.Inst.gates <= max_run_gates
    && List.for_all
         (fun k -> (not (shared k)) || List.mem l.(w + k) !run)
         (List.init w Fun.id)
  in
  let rec grow () =
    let candidates =
      List.filter_map
        (fun (q, x) ->
          match Gdg.succ_on g x ~qubit:q with
          | Some c when not (List.mem c.Inst.id !run) -> Some c
          | _ -> None)
        !last
    in
    match List.find_opt eligible candidates with
    | Some c ->
      append c;
      grow ()
    | None -> List.rev !run
  in
  append (Gdg.find g id);
  grow ()

(* longest prefix (>= 2 nodes) whose composed unitary is diagonal,
   decided by one incremental oracle scan over the run *)
let diagonal_prefix g run =
  let scan = Oracle.scan_create () in
  let best = ref 0 in
  List.iteri
    (fun k id ->
      Oracle.scan_push scan (Gdg.find g id).Inst.gates;
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

let mark_dirty (g : Gdg.t) dirty m =
  let seeds = ref [ m ] in
  let l = g.Gdg.links.(m) in
  let w = Array.length l / 3 in
  for k = w to (3 * w) - 1 do
    if l.(k) >= 0 then seeds := l.(k) :: !seeds
  done;
  let frontier = ref !seeds in
  for _ = 0 to invalidate_depth do
    let next = ref [] in
    List.iter
      (fun x ->
        if not (Hashtbl.mem dirty x) then begin
          Hashtbl.replace dirty x ();
          let l = g.Gdg.links.(x) in
          let w = Array.length l / 3 in
          for k = w to (2 * w) - 1 do
            let p = l.(k) in
            if p >= 0 && not (Hashtbl.mem dirty p) then next := p :: !next
          done
        end)
      !frontier;
    frontier := !next
  done

let detect_and_contract ~latency g =
  let merges = ref 0 in
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
          let run = grow_run g id in
          match diagonal_prefix g run with
          | Some (first :: (_ :: _ as rest)) ->
            let merged =
              List.fold_left
                (fun acc next ->
                  let ia = Gdg.find g acc and ib = Gdg.find g next in
                  let gates = ia.Inst.gates @ ib.Inst.gates in
                  (Gdg.merge g ~latency:(latency gates) acc next).Inst.id)
                first rest
            in
            mark_dirty g dirty merged;
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
