module Gdg = Qgdg.Gdg
module Inst = Qgdg.Inst

let log_src = Logs.Src.create "qcc" ~doc:"qcc compilation pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  strategy : Strategy.t;
  schedule : Qsched.Schedule.t;
  latency : float;
  gdg : Gdg.t;
  initial_placement : Qmap.Placement.t;
  final_placement : Qmap.Placement.t;
  n_instructions : int;
  n_swaps_inserted : int;
  n_merges : int;
  compile_time : float;
  diagnostics : Qlint.Diagnostic.t list;
  trace : Qobs.Span.t option;
  certificate : Qcert.Certificate.t option;
}

let passes strategy = Pass.names (Strategy.passes strategy)

(* Canonical pass order across all strategies, derived from the
   registry: merge each strategy's list into the accumulated order,
   inserting new passes right after their predecessor. Longest pipelines
   anchor the order (hence the fold over [List.rev all]), so the result
   reads in pipeline order — and new passes appear automatically. *)
let canonical_passes () =
  let insert_after prev name acc =
    match prev with
    | None -> name :: acc
    | Some p ->
      let rec go = function
        | [] -> [ name ]
        | x :: rest when x = p -> x :: name :: rest
        | x :: rest -> x :: go rest
      in
      go acc
  in
  let merge acc names =
    let rec go prev acc = function
      | [] -> acc
      | name :: rest ->
        let acc =
          if List.mem name acc then acc else insert_after prev name acc
        in
        go (Some name) acc rest
    in
    go None acc names
  in
  List.fold_left
    (fun acc strategy -> merge acc (passes strategy))
    [] (List.rev Strategy.all)

(* the strategy's pass-chain identity, independent of source/backend *)
let chain_digest strategy =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (Pass.fingerprints (Strategy.passes strategy))))

(* canonical QASM bytes, not Marshal: structurally equal circuits get
   equal digests, stable across runs (same fix as Pipeline.root_key) *)
let source_digest circuit =
  Digest.to_hex (Digest.string (Qgate.Qasm.to_string circuit))

let compile ?(config = Backend.default) ?(check = false) ?(certify = false)
    ?obs ?metrics ?cache ?ledger ?source_label ~strategy circuit =
  (* the ledger needs an enabled trace (per-pass rows) and registry
     (metric snapshot); give it private ones when the caller brought
     neither, so [--ledger] costs nothing to callers that stay dark *)
  let obs =
    match obs with
    | Some o -> o
    | None ->
      if Option.is_none ledger then Qobs.Trace.disabled
      else Qobs.Trace.create ()
  in
  let metrics =
    match metrics with
    | Some m -> m
    | None ->
      if Option.is_none ledger then Qobs.Metrics.disabled
      else Qobs.Metrics.create ()
  in
  let cache_hits0, cache_misses0 =
    match cache with
    | Some c -> (Pipeline.Cache.hits c, Pipeline.Cache.misses c)
    | None -> (0, 0)
  in
  let cert =
    if certify then
      Some
        (Qcert.Pipeline.create ~obs ~strategy:(Strategy.to_string strategy) ())
    else None
  in
  let body () =
    let t0 = Qobs.Clock.now_ns () in
    let lint = if check then Some (ref []) else None in
    let ctx = { Pass.backend = config; obs; metrics; lint; cert } in
    let costed =
      Qobs.Trace.with_span obs "compile" (fun () ->
          Qobs.Trace.attr_str obs "strategy" (Strategy.to_string strategy);
          let costed =
            Pipeline.run ~ctx ?cache (Strategy.passes strategy) circuit
          in
          (* lowering's output size belongs on this span, not the pass's *)
          let lowered = costed.Ir.l.Ir.base in
          Qobs.Trace.attr_int obs "qubits" (Qgate.Circuit.n_qubits lowered);
          Qobs.Trace.attr_int obs "gates" (Qgate.Circuit.n_gates lowered);
          Qobs.Metrics.incr metrics ~by:(Qgate.Circuit.n_gates lowered)
            "lower.gates";
          (match cert with
           | Some c ->
             Qcert.Pipeline.end_to_end c
               ~n_sites:(Gdg.n_qubits costed.Ir.gdg)
               ~initial:costed.Ir.route.Ir.initial
               ~final:costed.Ir.route.Ir.final ~logical:costed.Ir.l.Ir.base
               costed.Ir.schedule
           | None -> ());
          costed)
    in
    let compile_time = Qobs.Clock.elapsed_ns t0 /. 1e9 in
    let latency = costed.Ir.latency in
    Log.info (fun m ->
        m "%s: %d instructions, latency %.1f ns, compiled in %.2f ms"
          (Strategy.to_string strategy)
          (Gdg.size costed.Ir.gdg)
          latency (compile_time *. 1e3));
    { strategy;
      schedule = costed.Ir.schedule;
      latency;
      gdg = costed.Ir.gdg;
      initial_placement = costed.Ir.route.Ir.initial;
      final_placement = costed.Ir.route.Ir.final;
      n_instructions = Gdg.size costed.Ir.gdg;
      n_swaps_inserted = costed.Ir.route.Ir.swaps;
      n_merges = costed.Ir.merges;
      compile_time;
      diagnostics =
        (match lint with
         | Some acc -> List.stable_sort Qlint.Diagnostic.compare (List.rev !acc)
         | None -> []);
      trace = Qobs.Trace.last_span obs;
      certificate = Option.map Qcert.Pipeline.finish cert }
  in
  let result =
    if Qobs.Metrics.enabled metrics then Qobs.Metrics.with_ambient metrics body
    else body ()
  in
  (match ledger with
   | None -> ()
   | Some l ->
     let cache_hits, cache_misses =
       match cache with
       | Some c ->
         ( Pipeline.Cache.hits c - cache_hits0,
           Pipeline.Cache.misses c - cache_misses0 )
       | None -> (0, 0)
     in
     Qobs.Ledger.append l
       (Qobs.Ledger.row ?source_label
          ~domain:(Domain.self () :> int)
          ~strategy:(Strategy.to_string strategy)
          ~backend_digest:(Digest.to_hex (Backend.fingerprint config))
          ~source_digest:(source_digest circuit)
          ~chain_digest:(chain_digest strategy) ~latency_ns:result.latency
          ~compile_time_s:result.compile_time ~cache_hits ~cache_misses
          ?trace:result.trace ~metrics ()));
  result

(* The single exhaustive memo-reset entry point: one call per memoized
   subsystem the compiler warms. domlint's DS020 check pins the set —
   every per-domain memo table must be reachable from a reset_* function,
   and this is the one callers (tests, benchmarks, domain pools) use to
   return the calling domain to a cold start. Idempotent. *)
let reset_all_memos () =
  Qgdg.Oracle.reset_memos ();
  Qcontrol.Latency_model.reset_memos ()

(* Pooled jobs tick into per-job metrics shards, merged into the
   caller's registry in job-index order after the join — the merge law
   (Qobs.Metrics.merge) is commutative/associative, so the landed
   snapshot does not depend on which worker ran which job. *)
let make_shards metrics n =
  let shard_enabled =
    match metrics with Some m -> Qobs.Metrics.enabled m | None -> false
  in
  let shards =
    Array.init n (fun _ ->
        if shard_enabled then Qobs.Metrics.create () else Qobs.Metrics.disabled)
  in
  let shard_for i = if shard_enabled then Some shards.(i) else metrics in
  let land_shards () =
    if shard_enabled then
      Option.iter
        (fun m -> Array.iter (fun s -> Qobs.Metrics.absorb ~into:m s) shards)
        metrics
  in
  (shard_for, land_shards)

let compile_matrix ?config ?check ?certify ?metrics ?cache ?ledger ?(jobs = 1)
    named =
  (* one shared stage cache across the whole benchmark×strategy matrix:
     within a circuit the strategies fork from common prefixes (all five
     lower identically; isa and aggregation also share placement and
     routing), so each prefix is computed once; across circuits the keys
     differ at the root *)
  let cache =
    match cache with Some c -> c | None -> Pipeline.Cache.create ()
  in
  let strategies = Array.of_list Strategy.all in
  let n_strat = Array.length strategies in
  let job_arr =
    Array.of_list
      (List.concat_map
         (fun (name, circuit) ->
           List.map (fun s -> (name, s, circuit)) Strategy.all)
         named)
  in
  let shard_for, land_shards = make_shards metrics (Array.length job_arr) in
  let results =
    Parallel.map ~jobs ~init:reset_all_memos
      (fun i (label, strategy, circuit) ->
        compile ?config ?check ?certify ?metrics:(shard_for i) ~cache ?ledger
          ~source_label:label ~strategy circuit)
      job_arr
  in
  land_shards ();
  List.mapi
    (fun bi (name, _) ->
      ( name,
        List.mapi
          (fun si s -> (s, results.((bi * n_strat) + si)))
          (Array.to_list strategies) ))
    named

let compile_all ?config ?check ?certify ?metrics ?cache ?ledger
    ?(source_label = "") ?jobs circuit =
  snd
    (List.hd
       (compile_matrix ?config ?check ?certify ?metrics ?cache ?ledger ?jobs
          [ (source_label, circuit) ]))

let blocks result =
  List.map (fun (i : Inst.t) -> i.Inst.gates) (Gdg.insts result.gdg)

let speedup ~baseline result =
  if result.latency <= 0. then infinity else baseline.latency /. result.latency
