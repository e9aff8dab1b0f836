(** Packed mutable bit vectors.

    The substrate of the symbolic certification domains: Pauli-tableau
    rows ({!Tableau}) and GF(2) parity vectors ({!Phase_poly}) are bit
    vectors over the qubit register. Fixed width, byte-packed. *)

type t

val create : int -> t
(** [create n] is the all-zero vector of [n] bits. Raises
    [Invalid_argument] on a negative length. *)

val length : t -> int
val copy : t -> t

val get : t -> int -> bool
(** Raises [Invalid_argument] out of range. *)

val set : t -> int -> bool -> unit
val flip : t -> int -> unit
val swap : t -> int -> int -> unit
(** Exchange two bit positions. *)

val xor_into : src:t -> t -> unit
(** [xor_into ~src dst] sets [dst := dst xor src]. Raises
    [Invalid_argument] on a length mismatch. *)

val is_zero : t -> bool
val equal : t -> t -> bool

val to_key : t -> string
(** An opaque string usable as a hash-table key; equal vectors (same
    length, same bits) map to equal keys and vice versa. *)

val pp : Format.formatter -> t -> unit
(** Bits as a ["0110…"] string, index 0 first. *)
