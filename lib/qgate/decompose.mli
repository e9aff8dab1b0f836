(** Gate decomposition rules.

    The standard-ISA lowering used by the gate-based baseline (paper Fig. 5
    left: "physical gate decomposition"), plus the iSWAP-architecture
    identities of Schuch–Siewert [48] used by the hand-optimization
    baseline. Every rule is semantics-preserving up to global phase and is
    verified against dense unitaries in the test suite. *)

val isa_kind : Gate.kind -> bool
(** Membership in the standard logical ISA the paper compiles from:
    1-qubit gates, CNOT and SWAP. *)

val to_isa : Circuit.t -> Circuit.t
(** Lowers every non-ISA gate ([Ccx], [Cz], [Cphase], [Rzz], [Rxx],
    [Ryy], [Iswap], [Sqrt_iswap]) one step at a time, to a fixpoint over
    the whole circuit; ISA gates are kept. *)

val ccx : int -> int -> int -> Gate.t list
(** Standard 6-CNOT Toffoli decomposition, [ccx c1 c2 target]. *)

val swap_to_cnots : int -> int -> Gate.t list
val cz_to_std : int -> int -> Gate.t list
val cphase_to_std : float -> int -> int -> Gate.t list
val rzz_to_std : float -> int -> int -> Gate.t list
(** The CNOT–Rz–CNOT realization of a ZZ rotation — the diagonal block at
    the heart of the paper's QAOA/UCCSD benchmarks. *)

val rxx_to_std : float -> int -> int -> Gate.t list
val ryy_to_std : float -> int -> int -> Gate.t list

val iswap_to_interactions : int -> int -> Gate.t list
(** iSWAP = Rxx(-π/2)·Ryy(-π/2) (commuting factors). *)

val cnot_via_iswap : int -> int -> Gate.t list
(** CNOT realized with two iSWAPs and single-qubit rotations — the
    physical-gate decomposition on XY-interaction superconducting
    hardware [48]. *)
