(** Complex scalars.

    A small, self-contained complex-number module used throughout the
    numerical substrate. Values are immutable records of two floats. *)

type t = { re : float; im : float }

val make : float -> float -> t
(** [make re im] is the complex number [re + i*im]. *)

val zero : t
val one : t
val i : t
(** The imaginary unit. *)

val of_float : float -> t
(** [of_float x] is the real number [x] viewed as a complex number. *)

val re : t -> float
val im : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div a b] raises [Division_by_zero] when [b] is exactly zero. *)

val inv : t -> t
val conj : t -> t
val scale : float -> t -> t
(** [scale s z] is [s * z] for a real scalar [s]. *)

val norm2 : t -> float
(** [norm2 z] is the squared modulus [re² + im²]. *)

val abs : t -> float
(** [abs z] is the modulus |z|, computed without overflow via [Float.hypot]. *)

val arg : t -> float
(** [arg z] is the principal argument in (-π, π]. [arg zero] is [0.]. *)

val sqrt : t -> t
(** Principal square root. *)

val exp : t -> t
(** Complex exponential. *)

val log : t -> t
(** Principal branch of the complex logarithm. *)

val pow : t -> t -> t
(** [pow z w] is [exp (w * log z)]; [pow zero _] is [zero]. *)

val polar : float -> float -> t
(** [polar r theta] is [r * exp (i * theta)]. *)

val cis : float -> t
(** [cis theta] is [exp (i * theta)]. *)

val equal : ?eps:float -> t -> t -> bool
(** Componentwise comparison with absolute tolerance [eps]
    (default [1e-12]). *)

val is_zero : ?eps:float -> t -> bool

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
