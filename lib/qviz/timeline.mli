(** Schedule timelines: JSON export and SVG Gantt rendering.

    The SVG is the literal picture of the compiled program — one lane per
    qubit, one rectangle per instruction spanning its pulse duration —
    the visual counterpart of the latencies every experiment reports. *)

val to_json : Qsched.Schedule.t -> string
(** `{"n_qubits": …, "makespan": …, "entries": [{"id", "start",
    "finish", "qubits", "gates"}…]}`, rendered compactly by
    {!Qobs.Json}. *)

val to_svg :
  ?width:int -> ?lane_height:int -> Qsched.Schedule.t -> string
(** A self-contained SVG document ([width] px wide, default 900; lanes
    [lane_height] px tall, default 26). Instructions spanning several
    qubits draw one rectangle across their lanes; colors cycle per
    instruction. *)

val write_json : string -> Qsched.Schedule.t -> unit
val write_svg : ?width:int -> ?lane_height:int -> string -> Qsched.Schedule.t -> unit
