(** Timed spans — the nodes of a trace tree.

    A span is a named interval on the monotonic wall clock ({!Clock}) with
    typed attributes, child spans and (when recorded by {!Trace}) the GC
    allocation delta over the interval. Exporters here turn a finished
    span into indented text, a nested JSON object, or flat Chrome
    [trace_event] entries (openable in [about://tracing] / Perfetto).
    Exports are byte-deterministic for a given tree: attributes are
    emitted in sorted key order and Chrome event ids are assigned
    depth-first. *)

type attr =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type gc_delta = {
  minor_words : float;  (** words allocated in the minor heap *)
  major_words : float;  (** words allocated directly in the major heap *)
  major_collections : int;  (** major collection cycles completed *)
}

type t = {
  name : string;
  start_ns : float;
  mutable stop_ns : float;
  mutable attrs : (string * attr) list;  (** reverse insertion order *)
  mutable rev_children : t list;  (** reverse chronological (internal) *)
  mutable gc0 : gc_delta option;
      (** absolute GC counters at open (internal, set by {!Trace}) *)
  mutable gc : gc_delta option;
      (** allocation over the span, inclusive of children — filled at
          close when a snapshot was taken at open *)
}

val make : name:string -> start_ns:float -> t
(** An open span ([stop_ns = start_ns], no attrs, no children, no GC
    snapshot). *)

val gc_now : unit -> gc_delta
(** Current absolute GC counters ([Gc.quick_stat], O(1)). *)

val duration_ns : t -> float
val children : t -> t list
(** Chronological order. *)

val add_attr : t -> string -> attr -> unit
(** Later writes to the same key shadow earlier ones on export. *)

val count : t -> int
(** Number of spans in the tree (including [t]). *)

val find_all : name:string -> t -> t list
(** All spans with that name, depth-first. *)

val to_json : t -> Json.t
(** [{name, start_ns, dur_ns, alloc?, attrs, children}] — start times
    relative to the process clock origin; [alloc] present only when the
    span carries a GC delta. *)

val to_chrome_events : ?pid:int -> ?tid:int -> ?first_id:int -> t -> Json.t list
(** One complete ("ph":"X") event per span, depth-first; [ts]/[dur] in
    microseconds as the format requires. Events carry stable integer
    [id]s assigned in pre-order starting at [first_id] (default 1); GC
    deltas are folded into [args]. *)

val pp_text : Format.formatter -> t -> unit
(** Indented tree: name, duration in ms, allocation (when present),
    attributes as [k=v]. *)
