type t = {
  g : Gdg.t;
  nq : int;
  mutable index : int array;
      (** [id * nq + qubit] -> group label, [-1] when the instruction is
          not on that qubit. A flat array because [same_group] sits on
          the aggregator's innermost candidate test. *)
  fresh : int array;  (** qubit -> the next unused label *)
  lists : int list list array;  (** qubit -> groups as {!groups_on} last built them *)
  stale : bool array;  (** qubit -> regrouped since its list was built *)
}

let ensure_capacity t id =
  let cap = Array.length t.index / t.nq in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * max 1 cap) in
    let index = Array.make (ncap * t.nq) (-1) in
    Array.blit t.index 0 index 0 (cap * t.nq);
    t.index <- index
  end

let lookup t ~qubit id =
  let k = (id * t.nq) + qubit in
  if id >= 0 && k < Array.length t.index then t.index.(k) else -1

(* The greedy partition of qubit [q]'s chain from the group start
   [start] on. A group closes at the first node that fails to commute
   with one of its members (probed most recent member first), and each
   group opened takes a fresh label. A group is settled by its members
   plus the node that closes it, so the partition from a group start
   depends only on the chain from there on: once a group opens at or
   after [stop_from] on a node that opened a group before the walk, every
   label from there on is already right and the walk stops. [last_old] is
   the old label of [stop_from]'s old predecessor, the node the merge
   unlinked or replaced. Returns the number of nodes examined. *)
let walk commute t q ~start ~stop_from ~last_old =
  let visits = ref 0 and current = ref [] and label = ref (-1) in
  let past = ref false and prev_old = ref (-1) in
  let x = ref start in
  while !x >= 0 do
    let id = !x in
    incr visits;
    if id = stop_from then begin
      past := true;
      prev_old := last_old
    end;
    (* the open group is kept as resolved instructions so each membership
       probe skips the node lookup *)
    let inst = Gdg.find t.g id in
    let old = lookup t ~qubit:q id in
    let opens =
      !current = [] || not (List.for_all (fun prev -> commute prev inst) !current)
    in
    if opens && !past && old <> !prev_old then x := -1
    else begin
      if opens then begin
        current := [];
        label := t.fresh.(q);
        t.fresh.(q) <- !label + 1
      end;
      current := inst :: !current;
      t.index.((id * t.nq) + q) <- !label;
      prev_old := old;
      x := Gdg.field t.g.Gdg.links.(id) q 2
    end
  done;
  !visits

let refresh ?(commute = fun a b -> Oracle.blocks a.Inst.gates b.Inst.gates) t
    ~a ~la ~b ~lb (merged : Inst.t) =
  let m = merged.Inst.id in
  ensure_capacity t m;
  let visits = ref 0 in
  List.iter
    (fun q ->
      (* [le] holds the links of the earlier endpoint on [q], which [m]
         replaced; [last] is the later endpoint if it was on [q], else
         the earlier one, and [llast] its links *)
      let on l = Gdg.field l q 0 >= 0 in
      let le, last, llast =
        if not (on lb) then (la, a, la)
        else if not (on la) then (lb, b, lb)
        else if t.g.Gdg.pos.(a) < t.g.Gdg.pos.(b) then (la, b, lb)
        else (lb, a, la)
      in
      (* restart at the start of the old group holding [p], the earlier
         endpoint's old predecessor: that endpoint closed the group or
         sat in it, so it can change, while every group before it is
         settled by unchanged nodes *)
      let start =
        match Gdg.field le q 1 with
        | -1 -> m
        | p ->
          (* the nodes from the group start to [p] are counted by the
             walk below, the one before the start here *)
          let rec back x =
            let y = Gdg.field t.g.Gdg.links.(x) q 1 in
            if y >= 0 && lookup t ~qubit:q y = lookup t ~qubit:q x then back y
            else begin
              if y >= 0 then incr visits;
              x
            end
          in
          back p
      in
      visits :=
        !visits
        + walk commute t q ~start ~stop_from:(Gdg.field llast q 2)
            ~last_old:(lookup t ~qubit:q last);
      t.stale.(q) <- true)
    merged.Inst.qubits;
  List.iter
    (fun (x, l) ->
      for k = 0 to (Array.length l / 3) - 1 do
        t.index.((x * t.nq) + l.(k)) <- -1
      done)
    [ (a, la); (b, lb) ];
  !visits

(* every pairwise check through the oracle, with one summary per
   instruction id for the closure's lifetime *)
let oracle_commute () =
  let summaries : (int, Oracle.t) Hashtbl.t = Hashtbl.create 256 in
  let summary_of (i : Inst.t) =
    match Hashtbl.find_opt summaries i.Inst.id with
    | Some s -> s
    | None ->
      let s = fst (Oracle.of_gates i.Inst.gates) in
      Hashtbl.replace summaries i.Inst.id s;
      s
  in
  fun a b ->
    Oracle.blocks ~sa:(summary_of a) ~sb:(summary_of b) a.Inst.gates
      b.Inst.gates

let build ?commute g =
  let commute =
    match commute with Some c -> c | None -> oracle_commute ()
  in
  let nq = max 1 (Gdg.n_qubits g) in
  let t =
    { g;
      nq;
      index = Array.make (max 1 (Gdg.next_id g) * nq) (-1);
      fresh = Array.make nq 0;
      lists = Array.make nq [];
      stale = Array.make nq true }
  in
  for q = 0 to Gdg.n_qubits g - 1 do
    ignore
      (walk commute t q ~start:g.Gdg.head.(q) ~stop_from:(-1) ~last_old:(-1))
  done;
  t

let groups_on t q =
  if t.stale.(q) then begin
    (* one walk of the chain, cut where the label changes *)
    let close group acc = if group = [] then acc else List.rev group :: acc in
    let rec split x label group acc =
      if x < 0 then List.rev (close group acc)
      else
        let next = Gdg.field t.g.Gdg.links.(x) q 2 in
        let l = lookup t ~qubit:q x in
        if l = label then split next label (x :: group) acc
        else split next l [ x ] (close group acc)
    in
    t.lists.(q) <- split t.g.Gdg.head.(q) (-1) [] [];
    t.stale.(q) <- false
  end;
  t.lists.(q)

let same_group t ~qubit a b =
  let x = lookup t ~qubit a in
  x >= 0 && x = lookup t ~qubit b

let reorderable t a b =
  List.for_all
    (fun q -> same_group t ~qubit:q a.Inst.id b.Inst.id)
    (Inst.common_qubits a b)
