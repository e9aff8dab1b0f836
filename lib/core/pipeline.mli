(** The one pipeline driver.

    Interprets a declarative pass sequence ({!Strategy.passes}) over the
    typed {!Ir} artifacts, executing each pass's hooks — span, notes,
    lint checkpoint, certification boundary — in the fixed order the
    hand-written pipelines used. Composition needs no run-time check:
    the sequence is a {!Pass.seq} from the source circuit to a
    {!Ir.scheduled} artifact, so one whose stages do not line up does not
    compile.

    {2 Stage cache}

    With a {!Cache.t}, artifacts are memoized under provenance-chained
    content keys: the root key digests the backend and source circuit,
    and each pass extends the chain with its fingerprint. Strategies
    sharing a prefix of passes (every strategy lowers the same way; ISA
    and aggregation also share placement and routing) then compute that
    prefix once per circuit — [compile_all], [compare] and the pipeline
    bench fork per strategy from the shared artifacts. A hit skips only
    the work: notes, lint checks and certification still run, so
    results, diagnostics and certificates are identical with and without
    sharing. Cache-resident artifacts are never mutated — the in-place
    passes ([detect], [aggregate]) receive a private copy of the graph
    when sharing is on ({!Ir.clone}).

    Hits and misses are counted on the cache and ticked as the
    [pipeline.cache.hit] / [pipeline.cache.miss] metrics. The probe is
    one atomic critical section (lookup + counter bump together), so
    [hits + misses] always equals the number of probes, even with
    compiles racing on a domain pool. The cache is also {e compute-once}
    under concurrency: the first prober to miss a key claims it, and
    probers arriving while the artifact is in flight park on the cache's
    condition variable and receive the shared artifact when it lands
    (counted as hits) — so the hit/miss totals for a fixed job set are
    deterministic at any pool size. The root key digests the canonical
    QASM serialization of the source (not its [Marshal] bytes, which are
    sharing-sensitive), so structurally equal circuits share keys. *)

module Cache : sig
  type t

  val create : unit -> t
  val hits : t -> int
  val misses : t -> int

  val length : t -> int
  (** Distinct artifacts currently held. *)

  val clear : t -> unit
end

val run :
  ctx:Pass.ctx -> ?cache:Cache.t -> (Qgate.Circuit.t, Ir.scheduled) Pass.seq ->
  Qgate.Circuit.t -> Ir.costed
(** Run the sequence on a source circuit. Raises [Invalid_argument] if
    the final schedule was never routed. *)
