module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module Comm_group = Qgdg.Comm_group

type stats = {
  merges : int;
  rounds : int;
  initial_makespan : float;
  final_makespan : float;
}

(* Slack tables are flat arrays indexed by node id (the id space is dense:
   initial nodes plus one fresh id per merge, so capacity grows by
   doubling). [nan] marks an id with no live node in the float tables;
   [-1] marks a missing chain neighbour / position in the int tables,
   which are laid out [id * nq + qubit].

   Deadlines are kept makespan-free: [tail x] is the longest path from [x]
   to any sink, [x]'s own latency included, so [x]'s ALAP start is
   [makespan -. tail x]. A merge that moves the makespan therefore leaves
   every tail valid, and both re-propagations start at the splice. *)
type slack = {
  mutable start : float array;
  mutable finish : float array;
  mutable tail : float array;
  mutable pred : int array;
  mutable succ : int array;
  mutable pos : int array;  (* position within the qubit's chain *)
  mutable node : Inst.t option array;  (* id -> live instruction *)
  mutable stamp : int array;  (* worklist membership, epoch-tagged *)
  mutable epoch : int;
  nq : int;
  ends : int array;  (* qubit -> last node of its chain, [-1] when empty *)
  mutable makespan : float;
}

(* Array-backed binary min-heap of node ids keyed by a float: the slack
   worklists pop in key order, so a topological potential as the key
   makes each re-timed node pop about once. The arrays grow by doubling
   and are reused across merges, so a push or pop allocates nothing. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable ids : int array;
    mutable size : int;
  }

  let create () = { keys = Array.make 64 0.; ids = Array.make 64 0; size = 0 }

  let is_empty h = h.size = 0

  let push h (key : float) id =
    if h.size = Array.length h.keys then begin
      let grow a fill =
        let b = Array.make (2 * h.size) fill in
        Array.blit a 0 b 0 h.size;
        b
      in
      h.keys <- grow h.keys 0.;
      h.ids <- grow h.ids 0
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > key do
      let p = (!i - 1) / 2 in
      h.keys.(!i) <- h.keys.(p);
      h.ids.(!i) <- h.ids.(p);
      i := p
    done;
    h.keys.(!i) <- key;
    h.ids.(!i) <- id

  let pop h =
    let top = h.ids.(0) in
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      let key = h.keys.(n) and id = h.ids.(n) in
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let c = if l + 1 < n && h.keys.(l + 1) < h.keys.(l) then l + 1 else l in
          if h.keys.(c) < key then begin
            h.keys.(!i) <- h.keys.(c);
            h.ids.(!i) <- h.ids.(c);
            i := c
          end
          else sifting := false
        end
      done;
      h.keys.(!i) <- key;
      h.ids.(!i) <- id
    end;
    top
end

let ensure_capacity s id =
  let cap = Array.length s.start in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * cap) in
    let grow_float a =
      let b = Array.make ncap nan in
      Array.blit a 0 b 0 cap;
      b
    and grow_int a =
      let b = Array.make (ncap * s.nq) (-1) in
      Array.blit a 0 b 0 (cap * s.nq);
      b
    in
    s.start <- grow_float s.start;
    s.finish <- grow_float s.finish;
    s.tail <- grow_float s.tail;
    s.pred <- grow_int s.pred;
    s.succ <- grow_int s.succ;
    s.pos <- grow_int s.pos;
    let node = Array.make ncap None in
    Array.blit s.node 0 node 0 cap;
    s.node <- node;
    let stamp = Array.make ncap 0 in
    Array.blit s.stamp 0 stamp 0 cap;
    s.stamp <- stamp
  end

(* one chain pass + one Kahn pass computes the topological order, the ASAP
   times, the makespan and the tails; the incremental path below
   maintains the same tables in place so this full pass only runs at
   round boundaries *)
let compute_slack g =
  let nq = Gdg.n_qubits g in
  let cap = Gdg.next_id g in
  let start = Array.make cap nan and finish = Array.make cap nan in
  let tail = Array.make cap nan in
  let pred = Array.make (cap * nq) (-1)
  and succ = Array.make (cap * nq) (-1)
  and pos = Array.make (cap * nq) (-1) in
  let ends = Array.make nq (-1) in
  let indeg = Array.make cap 0 in
  for q = 0 to nq - 1 do
    let rec link k = function
      | x :: (y :: _ as rest) ->
        pos.(x * nq + q) <- k;
        succ.(x * nq + q) <- y;
        pred.(y * nq + q) <- x;
        indeg.(y) <- indeg.(y) + 1;
        link (k + 1) rest
      | [ x ] ->
        pos.(x * nq + q) <- k;
        ends.(q) <- x
      | [] -> ()
    in
    link 0 (Gdg.chain_ids g q)
  done;
  let node = Array.make cap None in
  let queue = Queue.create () in
  Gdg.iter_insts g (fun i ->
      node.(i.Inst.id) <- Some i;
      if indeg.(i.Inst.id) = 0 then Queue.add i.Inst.id queue);
  let order = ref [] in
  let seen = ref 0 in
  let makespan = ref 0. in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order := id :: !order;
    incr seen;
    let inst = match node.(id) with Some i -> i | None -> assert false in
    let s =
      List.fold_left
        (fun acc q ->
          let p = pred.(id * nq + q) in
          if p < 0 then acc else Float.max acc finish.(p))
        0. inst.Inst.qubits
    in
    let f = s +. inst.Inst.latency in
    start.(id) <- s;
    finish.(id) <- f;
    if f > !makespan then makespan := f;
    List.iter
      (fun q ->
        let c = succ.(id * nq + q) in
        if c >= 0 then begin
          indeg.(c) <- indeg.(c) - 1;
          if indeg.(c) = 0 then Queue.add c queue
        end)
      inst.Inst.qubits
  done;
  if !seen <> Gdg.size g then failwith "Aggregator: cyclic dependence graph";
  List.iter
    (fun id ->
      let inst = match node.(id) with Some i -> i | None -> assert false in
      tail.(id) <-
        inst.Inst.latency
        +. List.fold_left
             (fun acc q ->
               let c = succ.(id * nq + q) in
               if c < 0 then acc else Float.max acc tail.(c))
             0. inst.Inst.qubits)
    !order;
  { start; finish; tail; pred; succ; pos; node;
    stamp = Array.make cap 0; epoch = 0; nq; ends; makespan = !makespan }

(* Incremental counterpart of {!compute_slack} after one accepted merge of
   [a] and [b] into [merged]. Only the chains of the merged support
   changed, so the pred/succ/position tables are patched for those chains
   alone. A node's start reads only its chain predecessors and its tail
   only its chain successors, and the splice changed those neighbours for
   [merged] and for the pre-merge chain neighbours of [a] and [b] alone
   ([old_neighbors]), so both worklists are seeded there; every
   recomputation uses exactly the fold of the full pass, and the fixpoint
   on a DAG is unique, so the visit order cannot change the tables. Both
   worklists are the min-heap [heap], keyed by the node's start (forward)
   or tail (backward) as the tables hold it at push time. Those are
   topological potentials, so a re-timed node is mostly popped once,
   after the inputs that re-time it have settled; only [merged] has a
   [nan] key, which reads as [neg_infinity] and pops first. The qcheck
   suite pins the resulting merges against the reference aggregator,
   which recomputes makespan-anchored deadlines from scratch. Returns the
   number of worklist pops over both directions. *)
let update_slack_after_merge g slack heap ~a ~b ~old_neighbors
    (merged : Inst.t) =
  let m = merged.Inst.id in
  ensure_capacity slack m;
  let nq = slack.nq in
  (* the merge removed [a] and [b] and added [merged]; every other node
     record is untouched (latencies only change at round boundaries,
     which rebuild the slack wholesale), so the id->instruction cache is
     patched in place *)
  let node_of x =
    match slack.node.(x) with Some i -> i | None -> assert false
  in
  List.iter
    (fun x ->
      List.iter
        (fun q ->
          slack.pos.(x * nq + q) <- -1;
          slack.pred.(x * nq + q) <- -1;
          slack.succ.(x * nq + q) <- -1)
        (node_of x).Inst.qubits;
      slack.node.(x) <- None;
      slack.start.(x) <- nan;
      slack.finish.(x) <- nan;
      slack.tail.(x) <- nan)
    [ a; b ];
  slack.node.(m) <- Some merged;
  (* 1. re-link the affected chains *)
  List.iter
    (fun q ->
      let rec link k = function
        | x :: (y :: _ as rest) ->
          slack.pos.(x * nq + q) <- k;
          slack.succ.(x * nq + q) <- y;
          slack.pred.(y * nq + q) <- x;
          link (k + 1) rest
        | [ x ] ->
          slack.pos.(x * nq + q) <- k;
          slack.succ.(x * nq + q) <- -1;
          slack.ends.(q) <- x
        | [] -> ()
      in
      link 0 (Gdg.chain_ids g q))
    merged.Inst.qubits;
  let seed push ~dir =
    push m;
    List.iter
      (fun q ->
        let x = dir.(m * nq + q) in
        if x >= 0 then push x)
      merged.Inst.qubits;
    List.iter
      (fun (_, xs) ->
        List.iter (fun x -> if x >= 0 && x <> a && x <> b then push x) xs)
      old_neighbors
  in
  let pops = ref 0 in
  (* one epoch per direction; [key] is the table that orders the heap *)
  let pusher key =
    slack.epoch <- slack.epoch + 1;
    let ep = slack.epoch in
    fun x ->
      if slack.stamp.(x) <> ep then begin
        slack.stamp.(x) <- ep;
        let k = key.(x) in
        Heap.push heap (if Float.is_nan k then neg_infinity else k) x
      end
  in
  let pop () =
    incr pops;
    let x = Heap.pop heap in
    slack.stamp.(x) <- 0;
    x
  in
  (* 2. forward ASAP re-propagation from the splice; a missing predecessor
     finish reads as 0 and is corrected when that predecessor lands
     (setting a value always re-pushes its successors) *)
  let push = pusher slack.start in
  seed push ~dir:slack.succ;
  while not (Heap.is_empty heap) do
    let x = pop () in
    let inst = node_of x in
    let s =
      List.fold_left
        (fun acc q ->
          let p = slack.pred.(x * nq + q) in
          if p < 0 then acc
          else
            let f = slack.finish.(p) in
            Float.max acc (if Float.is_nan f then 0. else f))
        0. inst.Inst.qubits
    in
    let f = s +. inst.Inst.latency in
    if not (slack.start.(x) = s && slack.finish.(x) = f) then begin
      slack.start.(x) <- s;
      slack.finish.(x) <- f;
      List.iter
        (fun q ->
          let c = slack.succ.(x * nq + q) in
          if c >= 0 then push c)
        inst.Inst.qubits
    end
  done;
  (* 3. makespan over the chain ends: latencies are non-negative, so
     [finish] never decreases along a chain and its maximum sits at one of
     them *)
  slack.makespan <-
    Array.fold_left
      (fun acc x -> if x < 0 then acc else Float.max acc slack.finish.(x))
      0. slack.ends;
  (* 4. backward tail re-propagation from the splice, mirroring step 2 *)
  let bpush = pusher slack.tail in
  seed bpush ~dir:slack.pred;
  while not (Heap.is_empty heap) do
    let x = pop () in
    let inst = node_of x in
    let t =
      inst.Inst.latency
      +. List.fold_left
           (fun acc q ->
             let c = slack.succ.(x * nq + q) in
             if c < 0 then acc
             else
               let tc = slack.tail.(c) in
               if Float.is_nan tc then acc else Float.max acc tc)
           0. inst.Inst.qubits
    in
    if slack.tail.(x) <> t then begin
      slack.tail.(x) <- t;
      List.iter
        (fun q ->
          let p = slack.pred.(x * nq + q) in
          if p >= 0 then bpush p)
        inst.Inst.qubits
    end
  done;
  !pops

(* merged block placed at a's start, delayed by b's predecessors on the
   qubits a does not cover; monotonic iff every successor's latest start
   ([deadline]) and the makespan still hold under the pessimistic serial
   latency *)
let monotonic g slack ~deadline a b ~merged_latency =
  let nq = slack.nq in
  let ia = Gdg.find g a and ib = Gdg.find g b in
  let delay =
    List.fold_left
      (fun acc q ->
        if Inst.acts_on ia q then acc
        else
          let p = slack.pred.(b * nq + q) in
          if p >= 0 && p <> a then Float.max acc slack.finish.(p) else acc)
      0. ib.Inst.qubits
  in
  let new_start = Float.max slack.start.(a) delay in
  let new_finish = new_start +. merged_latency in
  let succ_of id qubits =
    List.filter_map
      (fun q ->
        let c = slack.succ.(id * nq + q) in
        if c >= 0 then Some c else None)
      qubits
  in
  let succs =
    List.sort_uniq compare
      (List.filter
         (fun c -> c <> a && c <> b)
         (succ_of a ia.Inst.qubits @ succ_of b ib.Inst.qubits))
  in
  new_finish <= slack.makespan +. 1e-9
  && List.for_all
       (fun c -> new_finish <= deadline c +. 1e-9)
       succs

(* the monotonicity bound for a candidate merge: the paper's pessimistic
   serial sum by default, except that absorbing a single 1-qubit gate is
   bounded by the model's prediction — a lone rotation folds into the
   block's local layers, and pricing that is a cheap, reliable
   optimal-control query rather than speculation *)
let merge_bound ~pessimism (ia : Inst.t) (ib : Inst.t) ~predicted =
  let single_one_qubit (i : Inst.t) = Inst.width i = 1 in
  match pessimism with
  | `Model -> predicted
  | `Serial ->
    if single_one_qubit ia || single_one_qubit ib then predicted
    else ia.Inst.latency +. ib.Inst.latency

let merged_width g a b =
  let ia = Gdg.find g a and ib = Gdg.find g b in
  List.length (List.sort_uniq compare (ia.Inst.qubits @ ib.Inst.qubits))

(* a successor's latest start, read off its makespan-free tail *)
let tail_deadline slack c = slack.makespan -. slack.tail.(c)

(* the slack tables read a nan as "no live node" and the chain-end
   makespan needs latencies ≥ 0, so any other latency is refused before it
   reaches them *)
let check_latency what v =
  if not (Float.is_finite v && v >= 0.) then
    invalid_arg (Printf.sprintf "Aggregator.run: %s latency %g" what v)

let run ?(width_limit = 10) ?(max_rounds = 8) ?(pessimism = `Model) ~cost g =
  Gdg.iter_insts g (fun i -> check_latency "input" i.Inst.latency);
  let cost gates =
    let v = cost gates in
    check_latency "cost" v;
    v
  in
  let initial_makespan = Gdg.makespan g in
  (* unordered id pairs packed into one int (ids stay far below 2^31):
     unboxed keys hash and compare without allocation in these innermost
     caches *)
  let pack a b = if a < b then (a lsl 31) lor b else (b lsl 31) lor a in
  (* the id-pair decision cache sits on the oracle with one summary per
     block id ({!Comm_group.oracle_commute}) *)
  let oracle = Comm_group.oracle_commute () in
  let commute_cache : (int, bool) Hashtbl.t = Hashtbl.create 1024 in
  let commute (x : Inst.t) (y : Inst.t) =
    let key = pack x.Inst.id y.Inst.id in
    match Hashtbl.find_opt commute_cache key with
    | Some v -> v
    | None ->
      let v = oracle x y in
      Hashtbl.replace commute_cache key v;
      v
  in
  let cost_cache : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let merged_cost a b =
    (* normalized key: candidates are always oriented earlier-first on
       every shared chain, so (a, b) and (b, a) are never both queried
       and the min/max normalization (as in commute_cache) cannot alias
       distinct blocks *)
    let key = pack a b in
    match Hashtbl.find_opt cost_cache key with
    | Some v -> v
    | None ->
      let gates = (Gdg.find g a).Inst.gates @ (Gdg.find g b).Inst.gates in
      let v = cost gates in
      Hashtbl.replace cost_cache key v;
      v
  in
  (* persistent state maintained across merges and sweeps: commutation
     groups (refreshed on the merged support, which the qgdg suite pins
     as equivalent to a rebuild), chain positions, slack tables, and the
     candidate universe indexed by shared qubit *)
  let groups = Comm_group.build ~commute g in
  let slack = ref (compute_slack g) in
  let heap = Heap.create () and slack_visits = ref 0 in
  let rank id =
    let s = !slack in
    if id < Array.length s.start && not (Float.is_nan s.start.(id)) then
      s.start.(id)
    else neg_infinity
  in
  (* the action-space test of paper §4.1 against the array-backed chain
     tables: [a] precedes [b] on every shared qubit, where the two are
     same-group siblings or chain-adjacent; O(shared qubits) array reads *)
  let schedulable (ia : Inst.t) (ib : Inst.t) =
    let s = !slack in
    let nq = s.nq in
    let a = ia.Inst.id and b = ib.Inst.id in
    a <> b
    &&
    let common = Inst.common_qubits ia ib in
    common <> []
    && List.for_all
         (fun q ->
           s.pos.((a * nq) + q) < s.pos.((b * nq) + q)
           && (Comm_group.same_group groups ~qubit:q a b
               || s.succ.((a * nq) + q) = b))
         common
  in
  (* each pair is registered under (q, endpoint) for every qubit its
     endpoints share — its stored common-qubit list makes removal
     possible after an endpoint has been merged away, and the per-node
     registry lets a merge invalidate only the pairs touching the nodes
     whose chain neighbourhood or group actually changed *)
  let universe : (int * int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let reg : (int * int, (int * int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 4096
  in
  let reg_tbl key =
    match Hashtbl.find_opt reg key with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.replace reg key t;
      t
  in
  let add_pair ((a, b) as p) =
    if not (Hashtbl.mem universe p) then begin
      let common = Inst.common_qubits (Gdg.find g a) (Gdg.find g b) in
      Hashtbl.replace universe p common;
      List.iter
        (fun q ->
          Hashtbl.replace (reg_tbl (q, a)) p ();
          Hashtbl.replace (reg_tbl (q, b)) p ())
        common
    end
  in
  let remove_pair ((a, b) as p) =
    match Hashtbl.find_opt universe p with
    | None -> ()
    | Some common ->
      Hashtbl.remove universe p;
      List.iter
        (fun q ->
          (match Hashtbl.find_opt reg (q, a) with
          | Some t -> Hashtbl.remove t p
          | None -> ());
          match Hashtbl.find_opt reg (q, b) with
          | Some t -> Hashtbl.remove t p
          | None -> ())
        common
  in
  (* per-qubit candidate enumeration: a valid pair shares some qubit on
     which the two members are chain-adjacent or same-group, so walking
     one chain's consecutive pairs plus each group's ordered pairs
     (group lists preserve chain order) generates every candidate whose
     shared qubit this is — the union over qubits is exactly the set of
     schedulable pairs, without the per-node group searches *)
  let pair_ok u v =
    merged_width g u v <= width_limit
    && schedulable (Gdg.find g u) (Gdg.find g v)
  in
  let add_candidates_on q =
    let rec consec = function
      | u :: (v :: _ as rest) ->
        if pair_ok u v then add_pair (u, v);
        consec rest
      | _ -> ()
    in
    consec (Gdg.chain_ids g q);
    List.iter
      (fun group ->
        let rec pairs = function
          | [] -> ()
          | u :: rest ->
            List.iter (fun v -> if pair_ok u v then add_pair (u, v)) rest;
            pairs rest
        in
        pairs group)
      (Comm_group.groups_on groups q)
  in
  for q = 0 to Gdg.n_qubits g - 1 do
    add_candidates_on q
  done;
  (* After merging [a] and [b] into [merged], a pair's candidacy can flip
     only through a changed per-qubit certificate — same-group membership
     or chain adjacency on a shared qubit — and both are confined to a
     window around the splice. Groups outside the structurally-unchanged
     prefix/suffix of the old vs. new group lists ("middle" groups) hold
     every node whose group membership moved (equal-index ⟺ same-group
     survives an index shift, so untouched groups certify unchanged
     membership even when their positions slide); adjacency changes only
     at [merged]'s position and where [a]/[b] left their chains. The
     union of those nodes is the changed set: pairs registered under
     (q, changed node) are dropped, then each changed node re-proposes
     its chain-neighbour pairs and its current-group pairs, which covers
     every certificate a dropped-or-new candidate could hold on q.
     Positions only shift uniformly past the splice, so relative chain
     order — the remaining ingredient of candidacy — never changes for
     surviving pairs. *)
  let update_universe_after_merge ~a ~b (merged : Inst.t) ~old_groups
      ~old_neighbors =
    let s = !slack in
    let nq = s.nq in
    List.iter
      (fun q ->
        let old_gs = List.assoc q old_groups in
        let new_gs = Comm_group.groups_on groups q in
        let rec strip xs ys =
          match (xs, ys) with
          | x :: xs', y :: ys' when x = y -> strip xs' ys'
          | _ -> (xs, ys)
        in
        let mid_old, mid_new =
          let xs, ys = strip old_gs new_gs in
          let rx, ry = strip (List.rev xs) (List.rev ys) in
          (List.rev rx, List.rev ry)
        in
        let changed =
          List.sort_uniq compare
            (List.filter
               (fun x -> x >= 0)
               (a :: b :: merged.Inst.id
                :: s.pred.((merged.Inst.id * nq) + q)
                :: s.succ.((merged.Inst.id * nq) + q)
                :: (List.assoc q old_neighbors
                   @ List.concat mid_old @ List.concat mid_new)))
        in
        List.iter
          (fun x ->
            match Hashtbl.find_opt reg (q, x) with
            | None -> ()
            | Some pairs ->
              Hashtbl.fold (fun p () acc -> p :: acc) pairs []
              |> List.iter remove_pair)
          changed;
        List.iter
          (fun x ->
            if Gdg.mem g x then begin
              let p = s.pred.((x * nq) + q) and c = s.succ.((x * nq) + q) in
              if p >= 0 && pair_ok p x then add_pair (p, x);
              if c >= 0 && pair_ok x c then add_pair (x, c);
              match Comm_group.group_index groups ~qubit:q x with
              | exception Not_found -> ()
              | gi ->
                let group = List.nth (Comm_group.groups_on groups q) gi in
                (* group lists preserve chain order: members before [x]
                   are the earlier element of their pair *)
                let rec before = function
                  | [] -> ()
                  | w :: rest ->
                    if w = x then after rest
                    else begin
                      if pair_ok w x then add_pair (w, x);
                      before rest
                    end
                and after = function
                  | [] -> ()
                  | w :: rest ->
                    if pair_ok x w then add_pair (x, w);
                    after rest
                in
                before group
            end)
          changed)
      merged.Inst.qubits
  in
  let merges = ref 0 and rounds = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !rounds < max_rounds do
    incr rounds;
    let merged_this_round = ref 0 in
    (* inner sweeps: score the maintained universe, then apply best-first
       with rechecks against the live tables *)
    let sweep_again = ref true in
    while !sweep_again do
      sweep_again := false;
      let scored =
        Hashtbl.fold (fun p _ acc -> p :: acc) universe []
        |> List.filter_map (fun (a, b) ->
               Qobs.Metrics.tick "agg.attempted";
               let ia = Gdg.find g a and ib = Gdg.find g b in
               let predicted = merged_cost a b in
               let bound = merge_bound ~pessimism ia ib ~predicted in
               if
                 monotonic g !slack ~deadline:(tail_deadline !slack) a b
                   ~merged_latency:bound
               then begin
                 let gain = ia.Inst.latency +. ib.Inst.latency -. predicted in
                 (* neutral-gain growth merges are allowed: they never
                    lengthen the schedule and enable later wide wins *)
                 if gain >= -1e-6 then Some (gain, a, b, predicted) else None
               end
               else begin
                 Qobs.Metrics.tick "agg.vetoed_monotonic";
                 None
               end)
        |> List.sort (fun (ga, a1, b1, _) (gb, a2, b2, _) ->
               match compare gb ga with
               | 0 -> compare (a1, b1) (a2, b2)
               | c -> c)
      in
      List.iter
        (fun (_, a, b, _) ->
          if
            Gdg.mem g a && Gdg.mem g b
            && merged_width g a b <= width_limit
            && schedulable (Gdg.find g a) (Gdg.find g b)
            &&
            let predicted = merged_cost a b in
            let bound =
              merge_bound ~pessimism (Gdg.find g a) (Gdg.find g b) ~predicted
            in
            monotonic g !slack ~deadline:(tail_deadline !slack) a b
              ~merged_latency:bound
          then begin
            let predicted = merged_cost a b in
            match Gdg.merge ~rank g ~latency:predicted a b with
            | exception Invalid_argument _ -> ()
            | merged ->
              Qobs.Metrics.tick "agg.accepted";
              incr merges;
              incr merged_this_round;
              sweep_again := true;
              (* pre-merge groups and splice neighbours, read before the
                 refresh / slack update overwrite them — the universe
                 diff needs both sides of the change, and the slack
                 worklists start at the neighbours *)
              let old_groups =
                List.map
                  (fun q -> (q, Comm_group.groups_on groups q))
                  merged.Inst.qubits
              in
              let old_neighbors =
                let s = !slack in
                let nq = s.nq in
                List.map
                  (fun q ->
                    ( q,
                      [ s.pred.((a * nq) + q); s.succ.((a * nq) + q);
                        s.pred.((b * nq) + q); s.succ.((b * nq) + q) ] ))
                  merged.Inst.qubits
              in
              Comm_group.refresh ~commute groups g ~qubits:merged.Inst.qubits;
              slack_visits :=
                !slack_visits
                + update_slack_after_merge g !slack heap ~a ~b ~old_neighbors
                    merged;
              update_universe_after_merge ~a ~b merged ~old_groups
                ~old_neighbors
          end)
        scored
    done;
    (* optimal-control query: re-cost every block *)
    let recosted = ref false in
    List.iter
      (fun (i : Inst.t) ->
        let fresh = cost i.Inst.gates in
        if Float.abs (fresh -. i.Inst.latency) > 1e-9 then begin
          Gdg.set_latency g i.Inst.id fresh;
          recosted := true
        end)
      (Gdg.insts g);
    (* latencies moved globally, so the slack fixpoint is rebuilt once per
       round; groups, positions and the candidate universe are
       latency-independent and stay valid *)
    if !recosted then slack := compute_slack g;
    if !merged_this_round = 0 && not !recosted then continue_outer := false
  done;
  Qobs.Metrics.tick ~by:!rounds "agg.rounds";
  Qobs.Metrics.tick ~by:!slack_visits "agg.slack_visits";
  { merges = !merges;
    rounds = !rounds;
    initial_makespan;
    final_makespan = Gdg.makespan g }
