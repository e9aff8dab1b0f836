(** Balanced graph bisection — the METIS substitute.

    The qubit mapper (paper §3.4.1) places frequently-interacting qubits
    near each other by recursively bisecting the interaction graph along
    small cuts. The paper uses METIS; this module provides the same
    primitive with a BFS-grown seed split refined by Kernighan–Lin passes,
    which is the classic heuristic family METIS itself refines. *)

val bisect : Graph.t -> bool array
(** [bisect g] splits the vertices into two sides of size ⌈n/2⌉ and
    ⌊n/2⌋ ([true] = side A), heuristically minimizing the crossing weight.
    Deterministic. Kernighan–Lin refinement stops after 8 sweeps. *)

val recursive_order : Graph.t -> int array
(** [recursive_order g] recursively bisects [g] and concatenates the
    leaves, yielding a vertex order in which strongly-connected clusters
    are contiguous — the linear layout used for mapping onto a device. *)
