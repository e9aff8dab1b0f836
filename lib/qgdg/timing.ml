type t = {
  g : Gdg.t;
  mutable start : float array;
  mutable finish : float array;
  mutable tail : float array;
  mutable makespan : float;
  mutable latency : float array;
  mutable mark : Bytes.t;
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
    t.latency <- grow t.latency nan;
    t.mark <- Bytes.extend t.mark 0 (ncap - cap);
    Bytes.fill t.mark cap (ncap - cap) '\000'
  end

(* the fold every start and tail is computed with, from scratch or
   incrementally: the largest [table] value over one block of [x]'s
   chain slots in [Gdg] (1 predecessors, 2 successors), 0 when there is
   none. Both passes visit in topological order (its reverse for
   tails), so every neighbour read has already been timed *)
let max_over t (table : float array) x block =
  let l = t.g.Gdg.links.(x) in
  let w = Array.length l / 3 in
  let acc = ref 0. in
  for k = block * w to ((block + 1) * w) - 1 do
    let y = l.(k) in
    if y >= 0 then acc := Float.max !acc table.(y)
  done;
  !acc

let start_of t x = max_over t t.finish x 1
let tail_of t x = t.latency.(x) +. max_over t t.tail x 2

(* latencies are non-negative, so [finish] never decreases along a chain
   and its maximum sits at one of the chain ends *)
let set_makespan t =
  t.makespan <-
    Array.fold_left
      (fun acc x -> if x < 0 then acc else Float.max acc t.finish.(x))
      0. t.g.Gdg.last

(* starts fold over the graph's topological order and tails over its
   reverse; [merge] keeps the tables in place, so this full pass only
   runs when latencies move *)
let create g =
  let cap = Gdg.next_id g in
  let t =
    { g;
      start = Array.make cap nan;
      finish = Array.make cap nan;
      tail = Array.make cap nan;
      makespan = 0.;
      latency = Array.make cap nan;
      mark = Bytes.make cap '\000' }
  in
  let order = g.Gdg.order in
  Array.iter
    (fun id ->
      if id >= 0 then begin
        t.latency.(id) <- (Gdg.find g id).Inst.latency;
        let s = start_of t id in
        t.start.(id) <- s;
        t.finish.(id) <- s +. t.latency.(id)
      end)
    order;
  for p = Array.length order - 1 downto 0 do
    let id = order.(p) in
    if id >= 0 then t.tail.(id) <- tail_of t id
  done;
  set_makespan t;
  t

(* [Gdg.merge], which also repairs the graph's order, then the
   incremental counterpart of {!create}. A node's start reads only its
   chain predecessors and its tail only its chain successors, and the splice
   changed those neighbours for [merged] and for the pre-merge chain
   neighbours of [a] and [b] alone, so both sweeps are seeded there.
   Each sweep walks the graph's order from its first seed (upward for
   starts, downward for tails) and recomputes the dirty nodes only, with
   exactly the fold of the full pass; a changed node dirties its
   dependents, which lie further along, and the sweep stops when none is
   left. Every node is recomputed after all its inputs have settled, so
   at most once per direction, and the fixpoint on a DAG is unique, so
   the tables equal a fresh {!create}. *)
let merge t ~latency a b =
  let g = t.g in
  (* the links [Gdg.merge] detaches but leaves intact: the splice
     neighbours *)
  let la = g.Gdg.links.(a) and lb = g.Gdg.links.(b) in
  let merged = Gdg.merge g ~latency a b in
  let m = merged.Inst.id in
  ensure_capacity t m;
  List.iter
    (fun x ->
      t.start.(x) <- nan;
      t.finish.(x) <- nan;
      t.tail.(x) <- nan)
    [ a; b ];
  t.latency.(m) <- latency;
  let visits = ref 0 in
  (* mark the seeds dirty, then walk the order by [step] from the first
     of them while any is left, clearing each mark as it is visited;
     [update x] re-times [x] and says whether it changed, [next] is the
     slot block of the dependents it then dirties *)
  let sweep ~step ~next update =
    let pending = ref 0 and from = ref (-1) in
    let mark x =
      if x <> a && x <> b && Bytes.get t.mark x = '\000' then begin
        Bytes.set t.mark x '\001';
        incr pending;
        (* [p] comes before [from] in the direction of the sweep *)
        let p = g.Gdg.pos.(x) in
        if !from < 0 || (p - !from) * step < 0 then from := p
      end
    in
    mark m;
    Gdg.iter_block g.Gdg.links.(m) next mark;
    List.iter
      (fun l ->
        Gdg.iter_block l 1 mark;
        Gdg.iter_block l 2 mark)
      [ la; lb ];
    let p = ref !from in
    while !pending > 0 do
      let x = g.Gdg.order.(!p) in
      if x >= 0 && Bytes.get t.mark x <> '\000' then begin
        Bytes.set t.mark x '\000';
        decr pending;
        incr visits;
        if update x then Gdg.iter_block g.Gdg.links.(x) next mark
      end;
      p := !p + step
    done
  in
  (* forward ASAP starts (dependents are the successors, slot block 2),
     then the makespan, then the backward tails (block 1) *)
  sweep ~step:1 ~next:2 (fun x ->
      let s = start_of t x in
      let changed = t.start.(x) <> s in
      t.start.(x) <- s;
      t.finish.(x) <- s +. t.latency.(x);
      changed);
  set_makespan t;
  sweep ~step:(-1) ~next:1 (fun x ->
      let tl = tail_of t x in
      let changed = t.tail.(x) <> tl in
      t.tail.(x) <- tl;
      changed);
  (merged, !visits)
