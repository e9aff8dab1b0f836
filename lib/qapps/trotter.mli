(** Trotter–Suzuki circuits for Hamiltonian simulation.

    Generalizes the Ising benchmark's construction: a Hamiltonian given
    as a sum of Pauli terms is compiled into first- or second-order
    product-formula circuits, every term becoming a basis-change +
    CNOT-ladder + Rz rotation — the diagonal chains the paper's
    aggregation pass targets. *)

type order = First | Second

val circuit :
  ?order:order -> n:int -> time:float -> steps:int -> Qgate.Pauli.t list ->
  Qgate.Circuit.t
(** [steps] repetitions of one Trotter step evolving exp(-i·H·dt) for
    H = Σ terms and dt = time/steps. First order: ∏ exp(-i·h·dt). Second
    order (Strang): forward half-steps then backward half-steps, error
    O(dt³) per step. Raises [Invalid_argument] on non-positive [steps] or
    a term register other than [n]. *)

val exact : n:int -> time:float -> Qgate.Pauli.t list -> Qnum.Cmat.t
(** exp(-i·H·time) by dense exponentiation (small n — the test oracle). *)
