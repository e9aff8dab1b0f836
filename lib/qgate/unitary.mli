(** Gate unitaries as dense matrices.

    Basis convention follows {!Qnum.Cmat}: qubit 0 is the most significant
    index bit. For a gate, local qubit order is the order of
    [Gate.qubits]. *)

val of_kind : Gate.kind -> Qnum.Cmat.t
(** The gate's matrix on its own 2^arity-dimensional space. *)

val of_gate : n_qubits:int -> Gate.t -> Qnum.Cmat.t
(** The gate lifted to the full 2ⁿ space. *)

val of_gates : n_qubits:int -> Gate.t list -> Qnum.Cmat.t
(** Product of lifted gates applied in list (time) order: for gate list
    [g1; g2; ...] the result is ... · U(g2) · U(g1). Each gate is applied
    locally ({!Qnum.Cmat.mul_embedded}), so the cost is 4ⁿ·2^arity per
    gate, not a full 8ⁿ matrix product. *)

val equal_up_to_global_phase :
  ?eps:float -> Qnum.Cmat.t -> Qnum.Cmat.t -> bool
(** [equal_up_to_global_phase u v] holds when [u = exp(iφ)·v] for some
    global phase φ (entrywise, absolute tolerance [eps], default [1e-9]) —
    the right notion of operator equality for circuits, since a global
    phase is unobservable. Use this rather than a fidelity threshold when
    exact equivalence (not approximation quality) is meant. *)

type program
(** A gate list fused for repeated in-place application to 2ⁿ-entry
    state buffers. Fusion multiplies the gates, in time order, into
    kernels of at most two qubits (a Toffoli starts a three-qubit one): a
    gate folds into the last kernel on its qubits when that is one
    kernel (a 1-qubit gate into the last kernel on its qubit,
    consecutive gates on one pair into one 4×4), and pending 1-qubit
    kernels fold into the next wider kernel on their qubits. A program
    carries its own scratch space, so it must not be run on two domains
    at once. *)

val program : n_qubits:int -> Gate.t list -> program
(** [program ~n_qubits gates] fuses [gates] for {!run}. Raises
    [Invalid_argument] naming the qubit when a gate acts on a qubit
    outside [\[0, n_qubits)]. *)

val kernels : program -> int
(** The number of fused kernels {!run} applies (at most the number of
    gates). *)

val run : program -> float array -> float array -> unit
(** [run p re im] overwrites the state with real parts [re] and imaginary
    parts [im] (both of length 2ⁿ, {!Qnum.Cmat} basis convention) by the
    program's gates applied in list (time) order, one fused kernel at a
    time. Each kernel costs at most 2ⁿ·2^arity; index groups that
    provably hold only exact zeros are skipped, so sparse states (a basis
    vector under the first few kernels, or under permutation and diagonal
    kernels) cost far less. Fused products round differently from
    gate-by-gate application, by a few ulps per entry. Raises
    [Invalid_argument] on a buffer of the wrong length. *)

val state_of_gates : n_qubits:int -> Gate.t list -> Qnum.Cx.t array
(** The statevector obtained by applying the gates in list (time) order to
    |0…0⟩, indexed by the {!Qnum.Cmat} basis convention ({!run} on the
    first basis vector; the same qubit-range error as {!program}). This
    is far cheaper than {!of_gates} when only one column of the joint
    unitary is needed (e.g. to separate two operators already known
    equal up to a global phase). *)

val on_support : Gate.t list -> int list * Qnum.Cmat.t
(** [on_support gates] computes the joint unitary of [gates] on the sorted
    union of their supports (relabelled locally); returns
    (support, unitary). Raises [Invalid_argument] on the empty list. *)

(** {1 Named constant matrices} *)

val pauli_x : Qnum.Cmat.t
val pauli_y : Qnum.Cmat.t
val pauli_z : Qnum.Cmat.t
val hadamard : Qnum.Cmat.t
