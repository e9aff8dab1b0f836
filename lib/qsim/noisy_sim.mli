(** Noisy execution of compiled schedules.

    Evolves a density matrix through a timed instruction schedule:
    instructions apply their member-gate unitary, and every qubit
    accumulates T₁/T₂ decoherence for exactly the wall-clock time it
    spends — busy or idle — so a schedule's makespan translates directly
    into fidelity loss. This quantifies the paper's central claim that
    latency reduction buys computational fidelity. *)

type noise = {
  t1 : float;  (** amplitude-damping time, ns *)
  t2 : float;  (** coherence time, ns; must satisfy T₂ ≤ 2·T₁ *)
}

val default_noise : noise
(** T₁ = 30 µs, T₂ = 15 µs — representative of the paper-era transmons. *)

val schedule_fidelity : ?noise:noise -> Qsched.Schedule.t -> float
(** Starts from |0…0⟩, applies every schedule entry at its start time
    with idle decoherence filling the gaps, idles all qubits to the
    makespan, and returns the fidelity ⟨ψ|ρ|ψ⟩ of that noisy output
    against the schedule's own noiseless output state. Practical for
    schedules on ≤ 8 qubits. *)

val survival_estimate : ?noise:noise -> n_qubits:int -> float -> float
(** The paper's back-of-envelope bound: e^{-t·n/T₁}·e^{-t·n/T₂} for
    latency [t] — an analytic cross-check of the simulated fidelity
    scale. *)
