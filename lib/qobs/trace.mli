(** Trace collector — hierarchical timed spans around pipeline passes.

    The null-collector pattern makes instrumentation free when off:
    {!disabled} short-circuits {!with_span} to a direct call of the body
    and turns every attribute write into a no-op {e before} any
    allocation, so a pipeline compiled against a disabled collector runs
    the uninstrumented code path.

    Span closes are also logged on the ["qobs"] [Logs] source at debug
    level, so [-vv] on the CLI streams pass timings live. *)

type t

val create : unit -> t
(** An enabled, empty collector. *)

val disabled : t
(** The shared null collector: every operation is a no-op. *)

val enabled : t -> bool

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the body inside a fresh span, nested under the innermost open
    span (or as a new root). The span is closed even if the body raises.
    On {!disabled}, exactly [f ()]. *)

val attr_int : t -> string -> int -> unit
(** Attach an attribute to the innermost open span; no-op when disabled
    or outside any [with_span]. *)

val attr_str : t -> string -> string -> unit

val roots : t -> Span.t list
(** Completed top-level spans, chronological. *)

val last_span : t -> Span.t option
(** The most recently {e closed} span (after a top-level [with_span]
    returns, that call's span). *)

val to_text : t -> string
(** Indented per-pass summary of every root span. *)

val to_chrome : t -> Json.t
(** Chrome [trace_event] document:
    [{"traceEvents": [...], "displayTimeUnit": "ns"}] — load in
    [about://tracing] or Perfetto. *)

val write_chrome_file : string -> t -> unit
