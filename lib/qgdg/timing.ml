type t = {
  g : Gdg.t;
  mutable start : float array;
  mutable finish : float array;
  mutable tail : float array;
  mutable makespan : float;
  mutable latency : float array;
  order : int array;
  mutable pos : int array;
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
    t.pos <- grow t.pos (-1);
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
  let w = Array.length l / 4 in
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

(* starts fold over the topological order and tails over its reverse;
   [merge] keeps the order and the tables in place, so this full pass
   only runs when latencies move *)
let create g =
  let order = Array.of_list (Gdg.topo_ids g) in
  let cap = Gdg.next_id g in
  let t =
    { g;
      start = Array.make cap nan;
      finish = Array.make cap nan;
      tail = Array.make cap nan;
      makespan = 0.;
      latency = Array.make cap nan;
      order;
      pos = Array.make cap (-1);
      mark = Bytes.make cap '\000' }
  in
  Array.iteri
    (fun p id ->
      t.pos.(id) <- p;
      t.latency.(id) <- (Gdg.find g id).Inst.latency;
      let s = start_of t id in
      t.start.(id) <- s;
      t.finish.(id) <- s +. t.latency.(id))
    order;
  for p = Array.length order - 1 downto 0 do
    let id = order.(p) in
    t.tail.(id) <- tail_of t id
  done;
  set_makespan t;
  t

let rank t id =
  if id < Array.length t.start && not (Float.is_nan t.start.(id)) then
    t.start.(id)
  else neg_infinity

(* [f] on each neighbour in one slot block of the link array [l] *)
let iter_block l block f =
  let w = Array.length l / 4 in
  for k = block * w to ((block + 1) * w) - 1 do
    let y = l.(k) in
    if y >= 0 then f y
  done

(* [m] has just taken slot [hi], the later endpoint's, and [lo] is a hole.
   Every edge off [m] is forward except to a chain successor inside the
   window (lo, hi), and no path leaves the window and comes back, so the
   Pearce–Kelly region is the window alone: F, the window nodes [m]
   reaches, and B, those reaching [m]. Their slots and [m]'s, sorted, go
   to B, then [m], then F, each group in its old order. *)
let reorder t m ~lo ~hi =
  let rec collect block acc x =
    iter_block t.g.Gdg.links.(x) block (fun y ->
        let p = t.pos.(y) in
        if p > lo && p < hi && Bytes.get t.mark y = '\000' then begin
          Bytes.set t.mark y '\001';
          acc := y :: !acc;
          collect block acc y
        end)
  in
  let fwd = ref [] and bwd = ref [] in
  collect 2 fwd m;
  if !fwd <> [] then begin
    collect 1 bwd m;
    List.iter (List.iter (fun x -> Bytes.set t.mark x '\000')) [ !fwd; !bwd ];
    let by_pos = List.sort (fun x y -> compare t.pos.(x) t.pos.(y)) in
    let ids = by_pos !bwd @ (m :: by_pos !fwd) in
    let slots = List.sort compare (List.map (fun x -> t.pos.(x)) ids) in
    List.iter2
      (fun x p ->
        t.order.(p) <- x;
        t.pos.(x) <- p)
      ids slots
  end

(* [Gdg.merge] validated by the rank probe, then the incremental
   counterpart of {!create}. A node's start reads only its chain
   predecessors and its tail only its chain successors, and the splice
   changed those neighbours for [merged] and for the pre-merge chain
   neighbours of [a] and [b] alone, so both sweeps are seeded there.
   Each sweep walks the maintained order from its first seed (upward for
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
  let merged = Gdg.merge ~rank:(rank t) g ~latency a b in
  let m = merged.Inst.id in
  ensure_capacity t m;
  let lo = min t.pos.(a) t.pos.(b) and hi = max t.pos.(a) t.pos.(b) in
  List.iter
    (fun x ->
      t.start.(x) <- nan;
      t.finish.(x) <- nan;
      t.tail.(x) <- nan;
      t.pos.(x) <- -1)
    [ a; b ];
  t.latency.(m) <- latency;
  t.order.(lo) <- -1;
  t.order.(hi) <- m;
  t.pos.(m) <- hi;
  reorder t m ~lo ~hi;
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
        let p = t.pos.(x) in
        if !from < 0 || (p - !from) * step < 0 then from := p
      end
    in
    mark m;
    iter_block g.Gdg.links.(m) next mark;
    List.iter (fun l -> iter_block l 1 mark; iter_block l 2 mark) [ la; lb ];
    let p = ref !from in
    while !pending > 0 do
      let x = t.order.(!p) in
      if x >= 0 && Bytes.get t.mark x <> '\000' then begin
        Bytes.set t.mark x '\000';
        decr pending;
        incr visits;
        if update x then iter_block g.Gdg.links.(x) next mark
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
