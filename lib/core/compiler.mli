(** End-to-end compilation pipelines (paper Fig. 5).

    All strategies share the frontend (ISA lowering) and the mapping layer
    (recursive-bisection placement + SWAP routing on the device topology);
    they differ in commutativity detection, scheduling, aggregation and
    pulse costing:

    - [Isa]: route the gate stream in program order, cost each gate with
      the per-gate pulse table, ASAP-schedule.
    - [Cls]: contract diagonal blocks (commutativity detection), CLS on
      the logical GDG, route the linearization, CLS again on the physical
      GDG; blocks still cost the serial sum of their member gates (no
      custom pulses).
    - [Aggregation]: no commutativity-aware scheduling; contract diagonal
      blocks and run monotonic aggregation on the routed program-order
      GDG with optimal-control (latency-model) costing; ASAP.
    - [Cls_aggregation]: the full pipeline — detection, CLS, mapping,
      aggregation (SWAPs may merge into neighboring blocks), final CLS.
    - [Cls_hand]: hand-optimize (ZZ fusion, cancellations), CLS, route,
      hand-optimize again, final CLS; fused gates cost their direct-pulse
      times.

    The returned GDG and schedule are on physical (device-site) qubits. *)

type result = {
  strategy : Strategy.t;
  schedule : Qsched.Schedule.t;
  latency : float;  (** makespan, ns *)
  gdg : Qgdg.Gdg.t;
  initial_placement : Qmap.Placement.t;
      (** logical qubit → device site before the first instruction *)
  final_placement : Qmap.Placement.t;
      (** logical qubit → device site after the last instruction (differs
          from the initial placement by the net effect of routing SWAPs);
          needed to interpret measurement outcomes *)
  n_instructions : int;
  n_swaps_inserted : int;
  n_merges : int;  (** diagonal contractions + aggregation merges *)
  compile_time : float;
      (** wall-clock seconds on the monotonic clock ({!Qobs.Clock}) —
          {e not} CPU time *)
  diagnostics : Qlint.Diagnostic.t list;
      (** static-check findings accumulated across pass boundaries; always
          [[]] unless compiled with [~check:true] *)
  trace : Qobs.Span.t option;
      (** the root ["compile"] span with one child per pipeline pass (see
          {!passes}), carrying the lowered circuit's [qubits] and [gates]
          counts; [None] unless compiled with an enabled [~obs]
          collector *)
  certificate : Qcert.Certificate.t option;
      (** per-boundary translation-validation certificate; [None] unless
          compiled with [~certify:true] *)
}

val passes : Strategy.t -> string list
(** The span names a traced compile emits for the strategy, in pipeline
    order — each appears exactly once under the root ["compile"] span.
    Read off the strategy's typed pass sequence ({!Strategy.passes}),
    whose composition the type checker has already proved; uniqueness
    of the names is the one fact the types leave to a test. *)

val canonical_passes : unit -> string list
(** The union of all strategies' passes in canonical pipeline order,
    derived from the registry (used by [qcc profile]'s pass table). *)

val compile :
  ?config:Backend.t -> ?check:bool -> ?certify:bool -> ?obs:Qobs.Trace.t ->
  ?metrics:Qobs.Metrics.t -> ?cache:Pipeline.Cache.t ->
  ?ledger:Qobs.Ledger.t -> ?source_label:string ->
  strategy:Strategy.t -> Qgate.Circuit.t ->
  result
(** [~config] (default {!Backend.default}) is the compilation target.

    [~check:true] runs the Qlint checker families at every pass boundary
    (lowered circuit, GDG construction, logical CLS schedule, routing,
    aggregation, final schedule). Warnings and infos accumulate into
    {!field:result.diagnostics}; the first boundary that produces an
    error-severity diagnostic aborts compilation by raising
    [Qlint.Report.Check_failed] carrying everything gathered so far.
    [~check:false] (the default) costs nothing.

    [~certify:true] additionally runs the Qcert translation validators at
    every pass boundary (lowering, GDG construction, diagonal
    contraction, CLS/final scheduling, routing replay, rebuilding,
    aggregation, and — on registers of at most
    {!Qcert.Pipeline.end_to_end_limit} sites — a dense end-to-end unitary
    check). The certificate lands in {!field:result.certificate}; the
    first refuted boundary aborts compilation by raising
    [Qcert.Certificate.Certification_failed] with the partial
    certificate, mirroring the [~check] behavior.

    [~obs] (default {!Qobs.Trace.disabled}) wraps every pass in a timed
    span — the qlint checkpoints run {e between} spans so checking cost
    never pollutes pass times, and certifiers get their own
    ["certify-<boundary>"] spans — and fills {!field:result.trace}.
    [~metrics] (default {!Qobs.Metrics.disabled}) receives the compiler's
    own counters and is installed as the ambient registry
    ({!Qobs.Metrics.with_ambient}) so the deep passes (commutation
    checks, routing, CLS, aggregation, latency model) record into it too,
    as do the certifiers ([qcert.proved] / [qcert.refuted] /
    [qcert.skipped] / [qcert.facts]). Both defaults are null collectors:
    the disabled path is one branch per seam, no allocation.

    [~cache] (default: none) shares stage artifacts across compiles —
    see {!Pipeline}. Results are identical with and without it.

    [~ledger] (default: none) appends one [qcc.ledger/1] row to the
    flight recorder after a successful compile: backend / source /
    pass-chain digests, per-pass wall time and GC allocation, the metric
    snapshot, and this run's stage-cache hit/miss deltas. When the
    caller supplies no [~obs]/[~metrics], private enabled collectors are
    created so every row carries full per-pass and per-route data — and
    each row's metric snapshot is then per-run, which is what
    [qcc stats] sums over. [~source_label] names the row's [source]
    field (e.g. the benchmark or file name). *)

val compile_matrix :
  ?config:Backend.t -> ?check:bool -> ?certify:bool ->
  ?metrics:Qobs.Metrics.t -> ?cache:Pipeline.Cache.t ->
  ?ledger:Qobs.Ledger.t -> ?jobs:int ->
  (string * Qgate.Circuit.t) list ->
  (string * (Strategy.t * result) list) list
(** The full benchmark×strategy matrix as one job pool: every (circuit,
    strategy) cell is an independent job, flattened benchmark-major so
    results regroup deterministically. [~jobs:n] (default 1) runs the
    jobs on {!Parallel.map}'s pool: [min n cells - 1] spawned domains
    plus the caller, which runs its share of the cells; [n = 1] is zero
    spawns, the caller alone. One shared compute-once stage cache
    spans the whole matrix (a fresh one unless [~cache] is given), so
    the pipeline prefix the strategies share (lowering everywhere;
    placement and routing between ISA and aggregation) is computed once
    per circuit. Every worker, the calling domain included, runs
    {!reset_all_memos} before its first job; metrics land as
    per-job shards merged in job-index order into the caller's registry.
    Each job's [source_label] (and its ledger row's [source]) is the
    given name.

    Results — latencies, merges, swaps, diagnostics, certificates — are
    byte-identical for every [n]. Ledger row {e order} is
    scheduling-dependent under [n > 1]; row contents are not. Backs
    [qcc compare] at every [-j] and the [matrix-pool] workload of
    bench/measure. *)

val compile_all :
  ?config:Backend.t -> ?check:bool -> ?certify:bool ->
  ?metrics:Qobs.Metrics.t -> ?cache:Pipeline.Cache.t ->
  ?ledger:Qobs.Ledger.t -> ?source_label:string -> ?jobs:int ->
  Qgate.Circuit.t ->
  (Strategy.t * result) list
(** All five strategies on one circuit: the one-row {!compile_matrix},
    with [source_label] (default [""]) as the row's name. *)

val blocks : result -> Qgate.Gate.t list list
(** Final aggregated instructions as member-gate lists (for
    verification). *)

val speedup : baseline:result -> result -> float
(** baseline latency / this latency. *)

val reset_all_memos : unit -> unit
(** Return the {e calling domain} to a cold start: clears the commutation
    classification/decision memos ([Qgdg.Oracle]) and the latency-cost
    memos ([Qcontrol.Latency_model]) — all per-domain tables. Idempotent; a
    compile after reset reports the same cache-miss counters as a fresh
    process. *)
