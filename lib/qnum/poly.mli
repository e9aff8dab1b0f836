(** Complex polynomials and root finding.

    Coefficients are stored lowest-degree first: [c.(k)] multiplies z^k.
    Root finding uses the Durand–Kerner (Weierstrass) simultaneous
    iteration, which is robust for the low-degree (≤ 8) characteristic
    polynomials this project needs. *)

type t = Cx.t array
(** [c] represents the polynomial Σ c.(k)·z^k. *)

val eval : t -> Cx.t -> Cx.t
(** Horner evaluation. *)

val derive : t -> t

val monic : t -> t
(** Divide by the leading coefficient. Raises [Invalid_argument] when all
    coefficients are zero. *)

type solution = { roots : Cx.t array; capped : bool }
(** [capped] is true when the iteration stopped at its sweep cap with an
    update still above the tolerance: [roots] are then the last iterates,
    not converged ones. *)

val roots : ?iterations:int -> ?tol:float -> t -> solution
(** All complex roots (with multiplicity) of a degree-n polynomial, n ≥ 1.
    [iterations] caps the Durand–Kerner sweeps (default 500); [tol] is the
    convergence threshold on the max root update (default 1e-13). The
    sweeps run on unboxed floats; the boxed formulation they reproduce
    bit for bit is [Qref.poly_roots] in test scope. *)

val of_roots : Cx.t array -> t
(** Monic polynomial with the given roots. *)
