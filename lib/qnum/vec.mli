(** Dense complex vectors.

    Backed by two mutable float arrays (real and imaginary parts) so the
    state-vector simulator can update amplitudes in place. *)

type t

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val dim : t -> int

val init : int -> (int -> Cx.t) -> t
val of_array : Cx.t array -> t
val copy : t -> t

val get : t -> int -> Cx.t
val set : t -> int -> Cx.t -> unit

val basis : int -> int -> t
(** [basis n k] is the [n]-dimensional standard basis vector e_k. *)

val scale : Cx.t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t

val dot : t -> t -> Cx.t
(** [dot a b] is the Hermitian inner product ⟨a|b⟩ = Σ conj(a_k)·b_k. *)

val norm2 : t -> float
(** Squared 2-norm. *)

val norm : t -> float

val normalize : t -> t
(** [normalize v] raises [Invalid_argument] on the zero vector. *)

val equal : ?eps:float -> t -> t -> bool

val max_abs_diff : t -> t -> float

val map : (Cx.t -> Cx.t) -> t -> t
val iteri : (int -> Cx.t -> unit) -> t -> unit
val fold : ('a -> Cx.t -> 'a) -> 'a -> t -> 'a

val unsafe_re : t -> float array
(** Underlying real-part array; mutations are visible in the vector. *)

val unsafe_im : t -> float array
(** Underlying imaginary-part array; mutations are visible in the vector. *)

val pp : Format.formatter -> t -> unit
