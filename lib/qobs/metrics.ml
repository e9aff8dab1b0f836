type hist_stats = {
  n : int;
  sum : float;
  min : float;
  max : float;
}

(* Every histogram shares one fixed log-spaced bucket grid (half-powers
   of two): bucket 0 is the underflow (v <= 0 or below the grid), bucket
   k in 1..n_buckets-1 nominally covers [2^((k-64)/2), 2^((k-63)/2)),
   spanning ~3e-10 .. 3e9 — wide enough for ns..s durations expressed in
   ms, word counts and qubit widths alike. Quantiles read off the
   cumulative bucket counts with a worst-case relative error of one
   bucket ratio (sqrt 2), clamped to the observed min/max. *)
let n_buckets = 128

let bucket_of v =
  if v <= 0. then 0
  else begin
    let i = 64 + int_of_float (Float.floor (2. *. Float.log2 v)) in
    if i < 1 then 1 else if i > n_buckets - 1 then n_buckets - 1 else i
  end

(* geometric midpoint of bucket k's nominal bounds *)
let bucket_rep k = Float.exp2 ((float_of_int (k - 64) +. 0.5) /. 2.)

type metric =
  | Counter of { mutable count : int }
  | Hist of {
      mutable n : int;
      mutable sum : float;
      mutable min : float;
      mutable max : float;
      buckets : int array;
    }

type t = {
  enabled : bool;
  table : (string, metric) Hashtbl.t;
}

let create () = { enabled = true; table = Hashtbl.create 64 }

(* the null collector: every writer checks [enabled] first, so this
   table is never written after init *)
let disabled = { enabled = false; table = Hashtbl.create 0 }
  [@@domain_safety frozen_after_init]
let enabled t = t.enabled

let incr t ?(by = 1) name =
  if t.enabled then
    match Hashtbl.find_opt t.table name with
    | Some (Counter c) -> c.count <- c.count + by
    | Some _ -> ()
    | None -> Hashtbl.replace t.table name (Counter { count = by })

let observe t name v =
  if t.enabled then
    match Hashtbl.find_opt t.table name with
    | Some (Hist h) ->
      h.n <- h.n + 1;
      h.sum <- h.sum +. v;
      if v < h.min then h.min <- v;
      if v > h.max then h.max <- v;
      let k = bucket_of v in
      h.buckets.(k) <- h.buckets.(k) + 1
    | Some _ -> ()
    | None ->
      let buckets = Array.make n_buckets 0 in
      buckets.(bucket_of v) <- 1;
      Hashtbl.replace t.table name
        (Hist { n = 1; sum = v; min = v; max = v; buckets })

let counter_value t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c.count
  | Some _ | None -> 0

let hist_value t name =
  match Hashtbl.find_opt t.table name with
  | Some (Hist h) -> Some { n = h.n; sum = h.sum; min = h.min; max = h.max }
  | Some _ | None -> None

(* rank-based read over the cumulative bucket counts: the smallest bucket
   whose cumulative count reaches ceil(q * n). Deterministic, and exact
   up to the bucket ratio; the clamp keeps estimates inside the true
   observed range (so single-bucket histograms report min <= p50 <= max) *)
let quantile ~n ~lo ~hi ~(buckets : int array) q =
  if n = 0 then 0.
  else if q <= 0. then lo
  else if q >= 1. then hi
  else begin
    let target = int_of_float (Float.ceil (q *. float_of_int n)) in
    let target = if target < 1 then 1 else target in
    let rec go k cum =
      if k >= n_buckets then hi
      else begin
        let cum = cum + buckets.(k) in
        if cum >= target then
          let rep = if k = 0 then lo else bucket_rep k in
          Float.min hi (Float.max lo rep)
        else go (k + 1) cum
      end
    in
    go 0 0
  end

let hist_quantile t name q =
  match Hashtbl.find_opt t.table name with
  | Some (Hist h) ->
    Some (quantile ~n:h.n ~lo:h.min ~hi:h.max ~buckets:h.buckets q)
  | Some _ | None -> None

let names t =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.table [])

(* histogram fields in sorted key order: exports are byte-deterministic
   given the same samples *)
let metric_json = function
  | Counter c -> Json.Int c.count
  | Hist h ->
    Json.Obj
      [ ("count", Json.Int h.n);
        ("max", Json.Float h.max);
        ("mean", Json.Float (if h.n = 0 then 0. else h.sum /. float_of_int h.n));
        ("min", Json.Float h.min);
        ("p50",
         Json.Float (quantile ~n:h.n ~lo:h.min ~hi:h.max ~buckets:h.buckets 0.5));
        ("p90",
         Json.Float (quantile ~n:h.n ~lo:h.min ~hi:h.max ~buckets:h.buckets 0.9));
        ("p99",
         Json.Float
           (quantile ~n:h.n ~lo:h.min ~hi:h.max ~buckets:h.buckets 0.99));
        ("sum", Json.Float h.sum) ]

let to_json t =
  Json.Obj
    (List.map
       (fun name -> (name, metric_json (Hashtbl.find t.table name)))
       (names t))

let write_file path t = Json.write_file path (to_json t)

(* ---- merge (per-domain shard join) ---- *)

(* Pointwise, commutative and associative (qcheck-pinned): counters
   add; histograms add counts/sums/buckets and widen min/max. On a name
   bound to a counter in one shard and a histogram in the other, the
   histogram wins, so the result does not depend on argument order. *)

let copy_metric = function
  | Counter c -> Counter { count = c.count }
  | Hist h -> Hist { h with buckets = Array.copy h.buckets }

let merge_metric a b =
  match (a, b) with
  | Counter x, Counter y -> Counter { count = x.count + y.count }
  | Hist x, Hist y ->
    Hist
      { n = x.n + y.n;
        sum = x.sum +. y.sum;
        min = Float.min x.min y.min;
        max = Float.max x.max y.max;
        buckets = Array.init n_buckets (fun k -> x.buckets.(k) + y.buckets.(k))
      }
  | (Hist _ as h), Counter _ | Counter _, (Hist _ as h) -> copy_metric h

let absorb ~into src =
  if into.enabled then
    Hashtbl.iter
      (fun name m ->
        match Hashtbl.find_opt into.table name with
        | None -> Hashtbl.replace into.table name (copy_metric m)
        | Some existing ->
          Hashtbl.replace into.table name (merge_metric existing m))
      src.table

let merge a b =
  let t = { enabled = true; table = Hashtbl.create 64 } in
  absorb ~into:t a;
  absorb ~into:t b;
  t

(* ---- ambient registry ---- *)

(* per-domain: each domain installs its own registry (a shard), and the
   spawner merges the shards at join — concurrent [tick]s can never
   race because no two domains ever share a table *)
let ambient_slot = Domain_safe.Local.make (fun () -> disabled)
  [@@domain_safety domain_local]

let ambient () = Domain_safe.Local.get ambient_slot
let set_ambient t = Domain_safe.Local.set ambient_slot t

let with_ambient t f =
  let saved = ambient () in
  set_ambient t;
  Fun.protect ~finally:(fun () -> set_ambient saved) f

let tick ?by name =
  let t = ambient () in
  if t.enabled then incr t ?by name

let record name v =
  let t = ambient () in
  if t.enabled then observe t name v
