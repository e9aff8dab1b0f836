(** Multi-controlled NOT with clean ancillas.

    The standard Toffoli ladder: AND the controls pairwise into ancillas,
    apply the final Toffoli onto the target, and uncompute. With k ≥ 3
    controls it needs k − 2 clean (|0⟩, restored) ancillas. *)

val mcx :
  controls:int list -> target:int -> ancillas:int list -> Qgate.Gate.t list
(** Raises [Invalid_argument] on overlapping qubits, no controls, or too
    few ancillas. *)

val flip_zero_controls : int list -> value:int -> Qgate.Gate.t list
(** X gates on the control qubits whose bit of [value] is 0 (LSB-first
    register order) — turning an equality test against [value] into an
    all-ones test. Self-inverse. *)
