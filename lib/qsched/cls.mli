(** Commutativity-aware Logical Scheduling — CLS (paper §3.3.2, Alg. 1).

    An event-driven list scheduler over the GDG's per-qubit commutation
    groups: at each time point the candidate instructions are those whose
    every qubit has them in its {e current} commutation group and free;
    conflicts (shared qubits) are resolved by scheduling a maximal
    matching of the candidates' computational graph (qubits as vertices,
    instructions as edges, 1-qubit instructions as self-loops — Fig. 7).
    Instructions wider than two qubits (post-aggregation) claim their
    qubits greedily before the matching round.

    The scheduler keeps a {e ready set}: the unscheduled instructions
    that sit in the current group on every qubit they touch. It changes
    only when an instruction is scheduled (it leaves) or when a qubit's
    current group empties and the next one becomes current (that group's
    members count one more qubit, and join once all their qubits agree).
    The set is walked in ascending topological position ([Gdg.insts]
    order), so candidates reach the wide claim and the matching in
    program order. A round therefore costs O(ready set), not O(program):
    each round filters only the ready set by qubit availability, both for
    its candidates and for the "anything startable now?" test that
    decides whether time steps to the next qubit release. The counter
    [cls.ready_visits] (ticked once per call) sums the ready-set entries
    examined while building candidates. The scan-based specification
    lives in test scope and the qcheck suite pins this scheduler to it:
    same entries, same start and finish bits, same counters. *)

val schedule : Qgdg.Gdg.t -> Schedule.t
(** Raises [Failure] on a malformed (cyclic) GDG. *)

val makespan : Qgdg.Gdg.t -> float
