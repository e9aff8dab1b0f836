(** Structured diagnostics for the pipeline static checkers.

    Every finding carries a stable [QL0xx] code, a severity, a
    human-readable message and a structured location naming the pipeline
    stage, instructions, qubits and time window involved — enough for a
    tool (or a test) to pinpoint the offending IR object without parsing
    the message. The code families:

    - QL01x circuit / QASM well-formedness
    - QL02x GDG structural invariants
    - QL03x schedule legality
    - QL04x mapping / routing legality
    - QL05x aggregation policy
    - QL06x semantic circuit lints (abstract interpretation)
    - QL07x aggregation-opportunity lints

    Pass-sequence composition needs no code: a strategy is a typed pass
    sequence, so one whose stages do not line up does not compile.

    {!Registry} is the single source of truth mapping each code to its
    family, severity and one-line summary. *)

type severity = Error | Warning | Info

type location = {
  stage : string option;  (** pipeline stage that produced the IR *)
  insts : int list;  (** instruction ids involved *)
  qubits : int list;  (** logical qubits or device sites involved *)
  gate_index : int option;  (** position in a gate stream *)
  interval : (float * float) option;  (** time window, ns *)
}

type t = {
  code : string;  (** "QL010" … "QL071" (see {!Registry.all}) *)
  severity : severity;
  message : string;
  loc : location;
}

val make :
  ?stage:string ->
  ?insts:int list ->
  ?qubits:int list ->
  ?gate_index:int ->
  ?interval:float * float ->
  code:string ->
  severity:severity ->
  string ->
  t

val is_error : t -> bool
val severity_to_string : severity -> string

val severity_rank : severity -> int
(** 0 = [Error], 1 = [Warning], 2 = [Info]. *)

val compare : t -> t -> int
(** Report order: severity (errors first), then code, then stage, then
    instruction ids, then the remaining location fields and message — a
    deterministic total order over any checker interleaving. *)

val equal : t -> t -> bool
(** Structural equality (the cross-checker dedup predicate in
    {!Report.of_list}). *)

val pp : Format.formatter -> t -> unit
(** One line: [QL030 error [stage] message (insts 3,7; qubits 2; t in
    [10.0, 12.5])]. *)

val to_string : t -> string

val json : t -> Qobs.Json.t
(** One JSON object; all location fields present ([null]/[[]] when
    absent). *)

val to_json : t -> string
(** {!json}, rendered compactly. *)
