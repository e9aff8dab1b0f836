type t = {
  per_qubit : int list list array;  (** ordered groups of instruction ids *)
  nq : int;
  mutable index : int array;
      (** [id * nq + qubit] -> group position, [-1] when the instruction
          is not on that qubit. A flat array because [same_group] sits on
          the aggregator's innermost candidate test and every refresh
          rewrites a whole chain's entries. *)
}

let ensure_capacity t id =
  let cap = Array.length t.index / t.nq in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * max 1 cap) in
    let index = Array.make (ncap * t.nq) (-1) in
    Array.blit t.index 0 index 0 (cap * t.nq);
    t.index <- index
  end

(* {!refresh} on one qubit. The greedy partition closes a group at the
   first element that fails to commute with one of its members, so a
   group is settled by its members plus that element, and the partition
   from a group start depends only on the chain from there on. Index
   entries are rewritten for the window, and for the spliced-in old tail
   only when the group count moved. *)
let regroup commute g t q =
  let old_groups = t.per_qubit.(q) in
  let old_ids = Array.of_list (List.concat old_groups) in
  let ids = Array.of_list (Gdg.chain_ids g q) in
  let n_old = Array.length old_ids and n = Array.length ids in
  let common = min n_old n in
  let prefix = ref 0 in
  while !prefix < common && old_ids.(!prefix) = ids.(!prefix) do
    incr prefix
  done;
  let suffix = ref 0 in
  while
    !prefix + !suffix < common
    && old_ids.(n_old - 1 - !suffix) = ids.(n - 1 - !suffix)
  do
    incr suffix
  done;
  let rec keep kept start = function
    | grp :: rest when start + List.length grp < !prefix ->
      keep (grp :: kept) (start + List.length grp) rest
    | rest -> (kept, start, rest)
  in
  let kept_rev, restart, old_rest = keep [] 0 old_groups in
  (* old groups from the restart on, with the chain position of the first *)
  let old_tail = ref old_rest and old_start = ref restart in
  let shift = n - n_old in
  let fresh = ref [] and current = ref [] and spliced = ref false in
  let close () =
    if !current <> [] then begin
      fresh :=
        List.rev_map (fun (i : Inst.t) -> i.Inst.id) !current :: !fresh;
      current := []
    end
  in
  let j = ref restart in
  while (not !spliced) && !j < n do
    (* the open group is kept as resolved instructions so each membership
       probe skips the node lookup *)
    let inst = Gdg.find g ids.(!j) in
    if
      !current = []
      || not (List.for_all (fun prev -> commute prev inst) !current)
    then begin
      close ();
      let old_j = !j - shift in
      while !old_start < old_j && !old_tail <> [] do
        old_start := !old_start + List.length (List.hd !old_tail);
        old_tail := List.tl !old_tail
      done;
      spliced := !j >= n - !suffix && !old_start = old_j
    end;
    if not !spliced then begin
      current := inst :: !current;
      incr j
    end
  done;
  close ();
  let tail = if !spliced then !old_tail else [] in
  let set pos grp =
    List.iter
      (fun id ->
        ensure_capacity t id;
        t.index.((id * t.nq) + q) <- pos)
      grp
  in
  let rec replaced k = function
    | rest when rest == tail -> k
    | grp :: rest ->
      set (-1) grp;
      replaced (k + 1) rest
    | [] -> k
  in
  let n_kept = List.length kept_rev in
  let tail_pos = n_kept + replaced 0 old_rest in
  let fresh = List.rev !fresh in
  List.iteri (fun k grp -> set (n_kept + k) grp) fresh;
  let n_fresh = List.length fresh in
  if tail_pos <> n_kept + n_fresh then
    List.iteri (fun k grp -> set (n_kept + n_fresh + k) grp) tail;
  t.per_qubit.(q) <- List.rev_append kept_rev (fresh @ tail)

let refresh
    ?(commute = fun a b -> Oracle.blocks a.Inst.gates b.Inst.gates) t g
    ~qubits =
  List.iter (regroup commute g t) (List.sort_uniq compare qubits)

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
  let n = Gdg.n_qubits g in
  let nq = max 1 n in
  let t =
    { per_qubit = Array.make nq [];
      nq;
      index = Array.make (max 1 (Gdg.next_id g) * nq) (-1) }
  in
  refresh ~commute t g ~qubits:(List.init n (fun q -> q));
  t

let groups_on t q = t.per_qubit.(q)

let lookup t ~qubit id =
  let k = (id * t.nq) + qubit in
  if id >= 0 && k < Array.length t.index then t.index.(k) else -1

let same_group t ~qubit a b =
  let x = lookup t ~qubit a in
  x >= 0 && x = lookup t ~qubit b

let reorderable t a b =
  List.for_all
    (fun q -> same_group t ~qubit:q a.Inst.id b.Inst.id)
    (Inst.common_qubits a b)
