(** Schedule legality (QL03x).

    - QL030 error: two instructions double-book a qubit — the diagnostic
      names both instruction ids, the shared qubit and the overlapping
      interval (the diagnostic-producing form of
      {!Qsched.Schedule.conflicts})
    - QL031 error: dependence-order violation — an instruction runs
      before a chain predecessor it does not commute with
    - QL032 warning: entry duration differs from the instruction latency
    - QL033 error: entry with negative duration
    - QL034 error: schedule and GDG disagree on the instruction set, or
      an entry's member gates differ from the GDG instruction's
    - QL035 warning: recorded makespan differs from the last finish time
    - QL036 error: one instruction scheduled twice *)

val run :
  ?stage:string ->
  ?original:Qgdg.Gdg.t ->
  ?reorderable:(Qgdg.Inst.t -> Qgdg.Inst.t -> bool) ->
  Qsched.Schedule.t ->
  Diagnostic.t list
(** Without [original], only the intra-schedule checks run (QL030, QL032,
    QL033, QL035, QL036). With it, QL031 and QL034 map
    {!Qsched.Schedule.replay}, the replay the certifier also reads: every
    pair of instructions sharing a qubit must run in chain order —
    positions by start, ties by id — unless [reorderable] (default:
    never) declares them commuting, and the schedule must cover exactly
    the graph's instructions with their own members. *)
