(** Density-matrix simulation with decoherence channels.

    The paper's motivation (§1) is that output fidelity decays at least
    exponentially with latency, so cutting pulse time directly buys
    computational fidelity. This module makes that quantitative: density
    matrices evolved under the compiled schedule with amplitude-damping
    (T₁) and pure-dephasing (T₂) Kraus channels during gates and idles.
    Practical to ~8 qubits. *)

type t

val n_qubits : t -> int
val zero : int -> t
(** |0…0⟩⟨0…0|. *)

val matrix : t -> Qnum.Cmat.t
(** A copy of the underlying 2ⁿ×2ⁿ matrix. *)

val trace : t -> float
(** Always ≈ 1 for physical states. *)

val purity : t -> float
(** tr(ρ²) ∈ [1/2ⁿ, 1]; 1 iff pure. *)

val apply_unitary : t -> targets:int list -> Qnum.Cmat.t -> t
(** ρ ← UρU† on the listed qubits. *)

val apply_gate : t -> Qgate.Gate.t -> t
val apply_circuit : t -> Qgate.Circuit.t -> t

val apply_kraus : t -> qubit:int -> Qnum.Cmat.t list -> t
(** ρ ← Σ KᵢρKᵢ† for a single-qubit channel. Raises [Invalid_argument]
    when the operators do not satisfy Σ Kᵢ†Kᵢ = I (tolerance 1e-9). *)

val amplitude_damping : gamma:float -> Qnum.Cmat.t list
(** The T₁ channel with decay probability γ ∈ [0, 1]. *)

val phase_damping : lambda:float -> Qnum.Cmat.t list
(** Pure dephasing with coherence-loss probability λ ∈ [0, 1]. *)

val idle : t1:float -> t2:float -> duration:float -> t -> int -> t
(** Apply [duration] of free decoherence to one qubit: amplitude damping
    γ = 1-e^{-t/T₁} and the pure-dephasing remainder so the total
    coherence decay is e^{-t/T₂} (requires T₂ ≤ 2·T₁). Times in the same
    unit (the project uses ns). *)

val fidelity_to_state : t -> State.t -> float
(** ⟨ψ|ρ|ψ⟩. *)

val probabilities : t -> float array
(** Diagonal of ρ in the computational basis. *)
