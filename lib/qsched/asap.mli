(** Baseline list scheduler: chain-order as-soon-as-possible.

    Every instruction starts as soon as its chain predecessors on all its
    qubits have finished — the standard logical scheduling of gate-based
    compilation (paper Fig. 5, left), with no commutativity reasoning.
    The times are the starts and finishes of one {!Qgdg.Timing.create}
    table. *)

val schedule : Qgdg.Gdg.t -> Schedule.t
