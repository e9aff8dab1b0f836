(** State-vector simulation.

    Holds 2ⁿ complex amplitudes with qubit 0 as the most significant index
    bit (matching {!Qnum.Cmat}). Practical up to ~20 qubits; the repo's
    tests and examples stay ≤ 10. *)

type t

val n_qubits : t -> int
val dim : t -> int

val zero : int -> t
(** |00…0⟩. *)

val basis : int -> int -> t
(** [basis n k] is the computational basis state |k⟩ on [n] qubits. *)

val of_vec : int -> Qnum.Vec.t -> t
(** Raises [Invalid_argument] on dimension mismatch or non-normalized
    input (tolerance 1e-6). *)

val amplitudes : t -> Qnum.Vec.t
(** A copy of the amplitude vector. *)

val amplitude : t -> int -> Qnum.Cx.t

val apply_gate : t -> Qgate.Gate.t -> t
(** Applies the gate in place on a copy; the input state is unchanged. *)

val apply_circuit : t -> Qgate.Circuit.t -> t
(** Raises [Invalid_argument] when register sizes differ. *)

val apply_unitary : t -> targets:int list -> Qnum.Cmat.t -> t
(** Applies a 2^k unitary on the listed qubits. *)

val probability : t -> int -> float
(** Probability of measuring basis state [k]. *)

val probabilities : t -> float array

val expectation : t -> Qgate.Pauli.t -> float
(** ⟨ψ|P|ψ⟩ for a Hermitian Pauli string (real by construction). *)

val sample : Qgraph.Rand.t -> t -> int -> int list
(** [sample rng st shots] draws [shots] independent basis states from the
    Born distribution. *)

val fidelity : t -> t -> float
(** |⟨a|b⟩|². *)

val overlap : t -> t -> Qnum.Cx.t
