(** Flight-recorder ledger: an append-only JSONL sink, one row per
    compilation.

    Each row (schema [qcc.ledger/1]) fingerprints {e what} was compiled
    (backend / source / pass-chain digests), {e how long} it took
    (end-to-end and per pass, wall time and GC allocation), and {e what
    the pipeline did} (the full metric snapshot, stage-cache hit/miss
    deltas). Rows are flushed as they are written, so a ledger from a
    crashed run is still readable up to the crash. [qcc stats] aggregates
    and diffs these files ({!Stats}). *)

val schema : string
(** ["qcc.ledger/1"]. *)

type t

val open_file : string -> t
(** Open for append, creating the file if needed. *)

val close : t -> unit

val append : t -> Json.t -> unit
(** Write one row as a single line and flush. *)

val pass_row : Span.t -> Json.t
(** [{pass, wall_ns, minor_words, major_words, major_collections}] for
    one pass span (zero allocation fields when the span carries no GC
    delta). Also used by [qcc profile --format json]. *)

val row :
  ?source_label:string ->
  ?domain:int ->
  strategy:string ->
  backend_digest:string ->
  source_digest:string ->
  chain_digest:string ->
  latency_ns:float ->
  compile_time_s:float ->
  cache_hits:int ->
  cache_misses:int ->
  ?trace:Span.t ->
  metrics:Metrics.t ->
  unit ->
  Json.t
(** Build a [qcc.ledger/1] row. [trace] is the compilation's root span;
    its direct children become the [passes] array (wall time plus GC
    delta each). [cache_hits]/[cache_misses] are the {e deltas} for this
    run, not cache lifetime totals. Digests are hex strings. [domain]
    is the integer id of the domain that ran the compile — under a
    parallel driver the caller's domain runs a share of the jobs, so its
    id shows up in pooled rows beside the spawned workers' — omitted,
    the row carries no [domain] field; [qcc stats] aggregates rows per
    domain when present. *)

val read_file : string -> (Json.t list, string) result
(** Parse a JSONL ledger (blank lines skipped); [Error] carries
    [file:line: message] for the first malformed row. A file that cannot
    be opened or read raises [Sys_error "<path>: <reason>"]. *)
