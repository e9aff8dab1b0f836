(** Gate transfer functions over the per-qubit abstract state.

    The state is one {!Absval.t} per register qubit. [dead] decides
    whether a gate is {e provably} the identity — up to global phase —
    on the current abstract state; [apply] advances the state by one
    gate (a dead gate leaves it unchanged). Both are total over the
    whole {!Qgate.Gate.kind} vocabulary.

    Soundness argument, by case (all classes below [Top] assert the
    qubit is an unentangled tensor factor of the deterministic concrete
    state, see {!Absval}):

    - A diagonal gate whose support qubits are all [⊑ Basis] multiplies
      a definite basis product state by one scalar — a global phase.
    - A controlled gate with a control at [Zero] acts as the identity
      branch exactly.
    - [Cz]/[Cphase] with either qubit at [Zero] fix |0⟩⊗ψ exactly.
    - [Swap]-family gates on two [Zero] qubits fix |00⟩ exactly
      (iSWAP and √iSWAP included).
    - An entangling gate between two possibly-superposed qubits sends
      both to [Top]; a two-qubit gate with one definite basis operand
      degenerates to a single-qubit (or identity) action on the other,
      which stays within its class. *)

val dead : Absval.t array -> Qgate.Gate.t -> bool
(** Is the gate provably identity (up to global phase) on this state?
    Never true for gates that could change any computational-basis
    amplitude's modulus. *)

val apply : Absval.t array -> Qgate.Gate.t -> unit
(** Advance the state by one gate, in place ([dead] gates are
    no-ops). Qubit indices outside the array raise
    [Invalid_argument]. *)

val step : Absval.t array -> Qgate.Gate.t -> bool
(** [dead st g] followed by [apply st g]; returns the deadness verdict
    (the one-pass driver of {!Analysis}). *)
