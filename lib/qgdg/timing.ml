(* Array-backed binary min-heap of node ids keyed by a float: the
   re-propagation worklists pop in key order, so a topological potential
   as the key makes each re-timed node pop about once. The arrays grow by
   doubling and are reused across splices, so a push or pop allocates
   nothing. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable ids : int array;
    mutable size : int;
  }

  let create () = { keys = Array.make 64 0.; ids = Array.make 64 0; size = 0 }

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

(* worklist state: the heap plus epoch-tagged membership stamps *)
type work = {
  heap : Heap.t;
  mutable stamp : int array;
  mutable epoch : int;
}

type t = {
  g : Gdg.t;
  nq : int;
  mutable start : float array;
  mutable finish : float array;
  mutable tail : float array;
  mutable pred : int array;
  mutable succ : int array;
  mutable pos : int array;
  mutable node : Inst.t option array;
  ends : int array;
  mutable makespan : float;
  work : work;
}

let ensure_capacity t id =
  let cap = Array.length t.start in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * cap) in
    let grow_float a =
      let b = Array.make ncap nan in
      Array.blit a 0 b 0 cap;
      b
    and grow_int a =
      let b = Array.make (ncap * t.nq) (-1) in
      Array.blit a 0 b 0 (cap * t.nq);
      b
    in
    t.start <- grow_float t.start;
    t.finish <- grow_float t.finish;
    t.tail <- grow_float t.tail;
    t.pred <- grow_int t.pred;
    t.succ <- grow_int t.succ;
    t.pos <- grow_int t.pos;
    let node = Array.make ncap None in
    Array.blit t.node 0 node 0 cap;
    t.node <- node;
    let stamp = Array.make ncap 0 in
    Array.blit t.work.stamp 0 stamp 0 cap;
    t.work.stamp <- stamp
  end

let node_of t x = match t.node.(x) with Some i -> i | None -> assert false

(* link qubit [q]'s chain as [Gdg] holds it now *)
let relink t q =
  let nq = t.nq in
  let rec link k = function
    | x :: (y :: _ as rest) ->
      t.pos.(x * nq + q) <- k;
      t.succ.(x * nq + q) <- y;
      t.pred.(y * nq + q) <- x;
      link (k + 1) rest
    | [ x ] ->
      t.pos.(x * nq + q) <- k;
      t.succ.(x * nq + q) <- -1;
      t.ends.(q) <- x
    | [] -> ()
  in
  link 0 (Gdg.chain_ids t.g q)

(* the two folds every start and tail is computed with, from scratch or
   incrementally; a neighbour not yet timed ([nan]) is skipped, and is
   corrected when it lands (setting a value always re-pushes the
   dependents) *)
let start_of t x (inst : Inst.t) =
  List.fold_left
    (fun acc q ->
      let p = t.pred.(x * t.nq + q) in
      if p < 0 then acc
      else
        let f = t.finish.(p) in
        Float.max acc (if Float.is_nan f then 0. else f))
    0. inst.Inst.qubits

let tail_of t x (inst : Inst.t) =
  inst.Inst.latency
  +. List.fold_left
       (fun acc q ->
         let c = t.succ.(x * t.nq + q) in
         if c < 0 then acc
         else
           let tc = t.tail.(c) in
           if Float.is_nan tc then acc else Float.max acc tc)
       0. inst.Inst.qubits

(* latencies are non-negative, so [finish] never decreases along a chain
   and its maximum sits at one of the chain ends *)
let set_makespan t =
  t.makespan <-
    Array.fold_left
      (fun acc x -> if x < 0 then acc else Float.max acc t.finish.(x))
      0. t.ends

(* one chain pass + one Kahn pass computes the topological order, the ASAP
   times, the makespan and the tails; [splice] maintains the same tables
   in place, so this full pass only runs when latencies move *)
let create g =
  let nq = Gdg.n_qubits g in
  let cap = Gdg.next_id g in
  let t =
    { g; nq;
      start = Array.make cap nan;
      finish = Array.make cap nan;
      tail = Array.make cap nan;
      pred = Array.make (cap * nq) (-1);
      succ = Array.make (cap * nq) (-1);
      pos = Array.make (cap * nq) (-1);
      node = Array.make cap None;
      ends = Array.make nq (-1);
      makespan = 0.;
      work = { heap = Heap.create (); stamp = Array.make cap 0; epoch = 0 } }
  in
  for q = 0 to nq - 1 do
    relink t q
  done;
  let indeg = Array.make cap 0 in
  let queue = Queue.create () in
  Gdg.iter_insts g (fun i ->
      let id = i.Inst.id in
      t.node.(id) <- Some i;
      List.iter
        (fun q -> if t.pred.(id * nq + q) >= 0 then indeg.(id) <- indeg.(id) + 1)
        i.Inst.qubits;
      if indeg.(id) = 0 then Queue.add id queue);
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order := id :: !order;
    let inst = node_of t id in
    let s = start_of t id inst in
    t.start.(id) <- s;
    t.finish.(id) <- s +. inst.Inst.latency;
    List.iter
      (fun q ->
        let c = t.succ.(id * nq + q) in
        if c >= 0 then begin
          indeg.(c) <- indeg.(c) - 1;
          if indeg.(c) = 0 then Queue.add c queue
        end)
      inst.Inst.qubits
  done;
  if List.length !order <> Gdg.size g then
    failwith "Timing.create: cyclic dependence graph";
  List.iter (fun id -> t.tail.(id) <- tail_of t id (node_of t id)) !order;
  set_makespan t;
  t

let rank t id =
  if id < Array.length t.start && not (Float.is_nan t.start.(id)) then
    t.start.(id)
  else neg_infinity

(* Incremental counterpart of {!create} after one accepted merge of [a]
   and [b] into [merged]. Only the chains of the merged support changed,
   so the pred/succ/position tables are patched for those chains alone. A
   node's start reads only its chain predecessors and its tail only its
   chain successors, and the splice changed those neighbours for [merged]
   and for the pre-merge chain neighbours of [a] and [b] alone, so both
   worklists are seeded there; every recomputation uses exactly the fold
   of the full pass, and the fixpoint on a DAG is unique, so the visit
   order cannot change the tables. Both worklists are the min-heap, keyed
   by the node's start (forward) or tail (backward) as the tables hold it
   at push time. Those are topological potentials, so a re-timed node is
   mostly popped once, after the inputs that re-time it have settled;
   only [merged] has a [nan] key, which reads as [neg_infinity] and pops
   first. *)
let splice t ~a ~b (merged : Inst.t) =
  let m = merged.Inst.id in
  let nq = t.nq in
  (* the splice neighbours, read before the relink overwrites them *)
  let old_neighbors =
    List.concat_map
      (fun q ->
        [ t.pred.((a * nq) + q); t.succ.((a * nq) + q);
          t.pred.((b * nq) + q); t.succ.((b * nq) + q) ])
      merged.Inst.qubits
  in
  ensure_capacity t m;
  (* the merge removed [a] and [b] and added [merged]; every other node
     record is untouched (latencies only move through [Gdg.set_latency],
     after which callers {!create} afresh), so the id->instruction cache
     is patched in place *)
  List.iter
    (fun x ->
      List.iter
        (fun q ->
          t.pos.(x * nq + q) <- -1;
          t.pred.(x * nq + q) <- -1;
          t.succ.(x * nq + q) <- -1)
        (node_of t x).Inst.qubits;
      t.node.(x) <- None;
      t.start.(x) <- nan;
      t.finish.(x) <- nan;
      t.tail.(x) <- nan)
    [ a; b ];
  t.node.(m) <- Some merged;
  List.iter (relink t) merged.Inst.qubits;
  let w = t.work in
  let pops = ref 0 in
  (* one epoch per direction: seed at the splice, keyed by [key], then
     pop until the fixpoint; [update x] re-times [x] and says whether it
     changed, [next] names the dependents to re-push *)
  let propagate key ~next update =
    w.epoch <- w.epoch + 1;
    let ep = w.epoch in
    let push x =
      if x >= 0 && x <> a && x <> b && w.stamp.(x) <> ep then begin
        w.stamp.(x) <- ep;
        let k = key.(x) in
        Heap.push w.heap (if Float.is_nan k then neg_infinity else k) x
      end
    in
    push m;
    List.iter (fun q -> push next.(m * nq + q)) merged.Inst.qubits;
    List.iter push old_neighbors;
    while w.heap.Heap.size > 0 do
      incr pops;
      let x = Heap.pop w.heap in
      w.stamp.(x) <- 0;
      let inst = node_of t x in
      if update x inst then
        List.iter (fun q -> push next.(x * nq + q)) inst.Inst.qubits
    done
  in
  (* forward ASAP re-propagation, then the makespan, then the backward
     tails *)
  propagate t.start ~next:t.succ (fun x inst ->
      let s = start_of t x inst in
      let f = s +. inst.Inst.latency in
      let changed = not (t.start.(x) = s && t.finish.(x) = f) in
      t.start.(x) <- s;
      t.finish.(x) <- f;
      changed);
  set_makespan t;
  propagate t.tail ~next:t.pred (fun x inst ->
      let tl = tail_of t x inst in
      let changed = t.tail.(x) <> tl in
      t.tail.(x) <- tl;
      changed);
  !pops
