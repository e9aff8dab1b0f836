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
  mutable start : float array;
  mutable finish : float array;
  mutable tail : float array;
  mutable makespan : float;
  work : work;
}

let ensure_capacity t id =
  let cap = Array.length t.start in
  if id >= cap then begin
    let ncap = max (id + 1) (2 * cap) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.start <- grow t.start nan;
    t.finish <- grow t.finish nan;
    t.tail <- grow t.tail nan;
    t.work.stamp <- grow t.work.stamp 0
  end

(* the fold every start and tail is computed with, from scratch or
   incrementally: the largest [table] value over one block of [x]'s
   chain slots in [Gdg] (1 predecessors, 2 successors), 0 when there is
   none. A neighbour not yet timed ([nan]) is skipped, and is corrected
   when it lands (setting a value always re-pushes the dependents) *)
let max_over t (table : float array) x block =
  let l = t.g.Gdg.links.(x) in
  let w = Array.length l / 4 in
  let acc = ref 0. in
  for k = block * w to ((block + 1) * w) - 1 do
    let y = l.(k) in
    if y >= 0 && not (Float.is_nan table.(y)) then acc := Float.max !acc table.(y)
  done;
  !acc

let start_of t x = max_over t t.finish x 1
let tail_of t x = (Gdg.find t.g x).Inst.latency +. max_over t t.tail x 2

(* latencies are non-negative, so [finish] never decreases along a chain
   and its maximum sits at one of the chain ends *)
let set_makespan t =
  t.makespan <-
    Array.fold_left
      (fun acc x -> if x < 0 then acc else Float.max acc t.finish.(x))
      0. t.g.Gdg.last

(* starts fold over the topological order and tails over its reverse;
   [merge] maintains the same tables in place, so this full pass only
   runs when latencies move *)
let create g =
  let order = Gdg.topo_ids g in
  let cap = Gdg.next_id g in
  let t =
    { g;
      start = Array.make cap nan;
      finish = Array.make cap nan;
      tail = Array.make cap nan;
      makespan = 0.;
      work = { heap = Heap.create (); stamp = Array.make cap 0; epoch = 0 } }
  in
  List.iter
    (fun id ->
      let s = start_of t id in
      t.start.(id) <- s;
      t.finish.(id) <- s +. (Gdg.find g id).Inst.latency)
    order;
  List.iter (fun id -> t.tail.(id) <- tail_of t id) (List.rev order);
  set_makespan t;
  t

let rank t id =
  if id < Array.length t.start && not (Float.is_nan t.start.(id)) then
    t.start.(id)
  else neg_infinity

(* [Gdg.merge] validated by the rank probe, then the incremental
   counterpart of {!create}. A node's start reads only its chain
   predecessors and its tail only its chain successors, and the splice
   changed those neighbours for [merged] and for the pre-merge chain
   neighbours of [a] and [b] alone, so both worklists are seeded there;
   every recomputation uses exactly the fold of the full pass, and the
   fixpoint on a DAG is unique, so the visit order cannot change the
   tables. Both worklists are the min-heap, keyed by the node's start
   (forward) or tail (backward) as the tables hold it at push time.
   Those are topological potentials, so a re-timed node is mostly popped
   once, after the inputs that re-time it have settled; only [merged]
   has a [nan] key, which reads as [neg_infinity] and pops first. *)
let merge t ~latency a b =
  let g = t.g in
  (* the splice neighbours, read before the merge clears [a]'s and
     [b]'s slots *)
  let neighbours x =
    let l = g.Gdg.links.(x) in
    Array.to_list (Array.sub l (Array.length l / 4) (Array.length l / 2))
  in
  let old_neighbours = neighbours a @ neighbours b in
  let merged = Gdg.merge ~rank:(rank t) g ~latency a b in
  let m = merged.Inst.id in
  ensure_capacity t m;
  List.iter
    (fun x ->
      t.start.(x) <- nan;
      t.finish.(x) <- nan;
      t.tail.(x) <- nan)
    [ a; b ];
  let w = t.work in
  let pops = ref 0 in
  (* one epoch per direction: seed at the splice, keyed by [key], then
     pop until the fixpoint; [update x] re-times [x] and says whether it
     changed, [next] is the slot block of the dependents to re-push *)
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
    let push_next x =
      let l = g.Gdg.links.(x) in
      let wx = Array.length l / 4 in
      for k = next * wx to ((next + 1) * wx) - 1 do
        push l.(k)
      done
    in
    push m;
    push_next m;
    List.iter push old_neighbours;
    while w.heap.Heap.size > 0 do
      incr pops;
      let x = Heap.pop w.heap in
      w.stamp.(x) <- 0;
      if update x then push_next x
    done
  in
  (* forward ASAP re-propagation (dependents are the successors, slot
     block 2), then the makespan, then the backward tails (block 1) *)
  propagate t.start ~next:2 (fun x ->
      let s = start_of t x in
      let f = s +. (Gdg.find g x).Inst.latency in
      let changed = not (t.start.(x) = s && t.finish.(x) = f) in
      t.start.(x) <- s;
      t.finish.(x) <- f;
      changed);
  set_makespan t;
  propagate t.tail ~next:1 (fun x ->
      let tl = tail_of t x in
      let changed = t.tail.(x) <> tl in
      t.tail.(x) <- tl;
      changed);
  (merged, !pops)
