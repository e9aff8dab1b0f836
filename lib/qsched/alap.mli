(** As-late-as-possible scheduling and slack analysis.

    The ALAP deadlines complement the ASAP starts: their difference is the
    slack that the monotonic-action check consumes, the quantity Fig. 8's
    action-space discussion is about. Exposed for analysis tooling and for
    the scheduler tests.

    Both come from one {!Qgdg.Timing.create} table: the ALAP start of a
    node is [makespan -. tail], the deadline monotonic aggregation
    checks, so this module runs no fold of its own. *)

val schedule : Qgdg.Gdg.t -> Schedule.t
(** Every instruction starts as late as the chain successors allow while
    preserving the ASAP makespan. *)

val slack : Qgdg.Gdg.t -> (int * float) list
(** Per-instruction slack (ALAP start − ASAP start), in topological
    order. Zero-slack instructions form the critical path. *)

val critical_path : Qgdg.Gdg.t -> Qgdg.Inst.t list
(** The zero-slack instructions, in topological order. *)
