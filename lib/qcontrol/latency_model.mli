(** Pulse-latency model — the compiler's stand-in for the optimal control
    unit.

    The compiler loop only consumes the {e duration} of the optimized
    pulse for each candidate instruction; this module predicts it
    analytically (see DESIGN.md §4 for derivation and calibration):

    - 1-qubit content costs its geodesic rotation angle at full drive.
    - 2-qubit content costs the time-optimal XY interaction time derived
      from the Weyl coordinates, plus single-qubit layer overhead
      (π/2-layer units; diagonal blocks pay two basis-change layers).
    - Wider aggregates cost a width-discounted internal critical path over
      locally-optimized segments, floored by the hardest segment — larger
      aggregates optimize better (paper §4.3, Fig. 10), saturating at the
      optimal-control width limit.

    Anchors vs the paper's GRAPE-measured Table 1: CNOT 47.12 (47.1),
    Rx(1.26) 6.3 (6.1), H 15.7 (13.7), SWAP 58.9 (50.1),
    ZZ(5.67) block 31.0 (31.4). *)

val gate_time : Device.t -> Qgate.Gate.t -> float
(** Pulse time of a single ISA gate (the gate-based baseline's cost).
    [Ccx] is costed as the critical path of its standard decomposition. *)

val one_qubit_unitary_time : Device.t -> Qnum.Cmat.t -> float
(** Geodesic rotation time of an arbitrary 2×2 unitary (phase ignored). *)

val two_qubit_unitary_time : Device.t -> Qnum.Cmat.t -> float
(** Interaction time from Weyl coordinates plus local-layer overhead for a
    4×4 unitary. *)

val isa_critical_path : Device.t -> Qgate.Gate.t list -> float
(** Makespan of the gate list at per-gate ISA times, gates occupying
    exactly their qubits — the unoptimized cost of the block. *)

val block_time : ?width_limit:int -> Device.t -> Qgate.Gate.t list -> float
(** Optimized pulse time of an aggregated instruction (its member gates in
    time order). Never exceeds {!isa_critical_path}. [width_limit] (default
    10) is the optimal-control scalability bound: blocks wider than the
    limit fall back to the ISA critical path (the compiler never creates
    them, but the model stays total). Results are memoized per device and
    width limit under the block's relabelled shape (gate kinds, exact
    parameters, relative qubit pattern), so congruent blocks anywhere on
    the register cost one lookup after the first query. Raises
    [Invalid_argument] on an empty block. *)

val segments : Qgate.Gate.t list -> Qgate.Gate.t list list
(** The locally-optimizable segmentation used by {!block_time}: maximal
    runs of gates confined to one qubit pair (or one qubit), split when an
    interleaved gate couples a run's qubit elsewhere. Exposed for tests. *)

val reset_memos : unit -> unit
(** Clear the calling domain's five latency memos (they are per-domain,
    see [Qobs.Domain_safe.Local]): gate costs per device and gate kind;
    segment bounds per device and relabelled segment shape; block costs
    per device, width limit and relabelled block shape; Weyl coordinates
    per 2-qubit shape, which {!block_time} shares between 2-qubit blocks
    and the 2-qubit segments of wider ones; and canonical gates
    CAN(c₁,c₂,c₃) per coordinates. Idempotent; subsequent queries re-warm
    from cold with identical results. *)
