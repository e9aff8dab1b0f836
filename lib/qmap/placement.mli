(** Initial qubit placement (paper §3.4.1).

    Frequently-interacting logical qubits are placed near each other by
    recursively bisecting the qubit interaction graph (the METIS-based
    strategy of [13, 19], here via {!Qgraph.Partition}) and laying the
    resulting order onto a contiguity-preserving site order of the device
    (a boustrophedon walk for grids). *)

type t = {
  logical_to_site : int array;
  site_to_logical : int array;  (** -1 for an unoccupied site *)
}

val identity : n_logical:int -> Topology.t -> t
(** Logical qubit [q] on site [q]. Raises [Invalid_argument] when the
    device is too small. *)

val initial : Topology.t -> Qgate.Circuit.t -> t
(** Interaction-graph-driven placement of the circuit's qubits. *)

val site_order : Topology.t -> int array
(** The linear site order used for layout (snake order on grids). *)

val apply_swap : t -> int -> int -> t
(** Exchange the occupants of two sites. *)

val site_of : t -> int -> int
val logical_at : t -> int -> int option
val equal : t -> t -> bool

val permutation_unitary : n_qubits:int -> t -> Qnum.Cmat.t
(** The 2ⁿ permutation matrix sending logical qubit q's amplitude bit to
    its site (n_qubits = number of sites). Compiled site-space circuits
    satisfy U_sites · P_initial = P_final · U_logical, which is how tests
    and applications undo the mapping. *)
