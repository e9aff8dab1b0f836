(** Logical quantum gates.

    The gate vocabulary of the standard quantum ISA the paper compiles from
    (1- and 2-qubit gates, plus Toffoli for reversible-logic benchmarks,
    which the frontend lowers before scheduling), together with the
    superconducting-native iSWAP family.

    Angle conventions:
    - [Rx]/[Ry]/[Rz] θ are Bloch-sphere rotations exp(-iθ/2·σ).
    - [Phase] θ is diag(1, e^{iθ}); [Cphase] θ is diag(1,1,1,e^{iθ}).
    - [Rzz]/[Rxx]/[Ryy] θ are two-qubit rotations exp(-iθ/2·σ⊗σ);
      CNOT·Rz(θ)·CNOT on (c,t) equals Rzz θ up to nothing — exactly the
      diagonal blocks the paper's commutativity detection targets.
    - For controlled gates, [qubits] lists controls first, target last. *)

type kind =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float
  | Phase of float
  | Cnot
  | Cz
  | Cphase of float
  | Swap
  | Iswap
  | Sqrt_iswap
  | Rxx of float
  | Ryy of float
  | Rzz of float
  | Ccx

type t = { kind : kind; qubits : int list }

val kind_arity : kind -> int
val arity : t -> int

val make : kind -> int list -> t
(** Raises [Invalid_argument] when the qubit count does not match the
    kind's arity, when qubits repeat or are negative, or when an angle is
    nan or infinite. *)

(** {1 Constructors} *)

val id : int -> t
val x : int -> t
val y : int -> t
val z : int -> t
val h : int -> t
val s : int -> t
val sdg : int -> t
val t : int -> t
val tdg : int -> t
val rx : float -> int -> t
val ry : float -> int -> t
val rz : float -> int -> t
val phase : float -> int -> t
val cnot : int -> int -> t
(** [cnot control target]. *)

val cz : int -> int -> t
val cphase : float -> int -> int -> t
val swap : int -> int -> t
val iswap : int -> int -> t
val sqrt_iswap : int -> int -> t
val rxx : float -> int -> int -> t
val ryy : float -> int -> int -> t
val rzz : float -> int -> int -> t
val ccx : int -> int -> int -> t
(** [ccx c1 c2 target] — Toffoli. *)

(** {1 Accessors and properties} *)

val qubits : t -> int list
val name : t -> string
(** Lower-case mnemonic, e.g. ["cx"], ["rz"]. *)

val params : t -> float list

val adjoint : t -> t
(** Inverse gate. Raises [Invalid_argument] for [Iswap]/[Sqrt_iswap], whose
    inverse is not a single vocabulary gate (lower them via {!Decompose}
    first). *)

val is_diagonal_kind : kind -> bool
(** Diagonal in the computational basis (Z/S/T/Rz/Phase/Cz/Cphase/Rzz). *)

val is_symmetric_kind : kind -> bool
(** Invariant under exchanging its two qubits (Swap, Iswap, Cz, …). *)

val acts_on : t -> int -> bool
val shares_qubit : t -> t -> bool
val common_qubits : t -> t -> int list

val add_key : Buffer.t -> qubit:(int -> int) -> t -> unit
(** Appends a compact injective encoding of the gate, its qubits mapped
    through [qubit] (below 65536), to a memo key: a tag byte, the
    parameters as raw IEEE bits, then the qubits. Every kind has a fixed
    arity and parameter count, so a concatenation of encodings is
    uniquely decodable. The key depends on values only, unlike
    [Marshal], whose output depends on which float boxes are shared. *)

val map_qubits : (int -> int) -> t -> t
(** Raises [Invalid_argument] if the renaming collapses two qubits. *)

val equal : t -> t -> bool
(** Structural equality with exact float comparison on angles. *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
