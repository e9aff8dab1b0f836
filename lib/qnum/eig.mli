(** Eigenvalues of small complex matrices.

    Computes the characteristic polynomial by the Faddeev–LeVerrier
    recurrence and extracts its roots with {!Poly.roots}. Intended for the
    4×4 matrices arising in the Weyl (canonical) decomposition of two-qubit
    unitaries; works for any modest dimension. *)

val char_poly : Cmat.t -> Poly.t
(** Characteristic polynomial det(zI − M), monic, lowest degree first.
    Raises [Invalid_argument] on non-square input. *)

val eigenvalues : ?tol:float -> Cmat.t -> Poly.solution
(** All eigenvalues with multiplicity, as the roots of {!char_poly}
    (with {!Poly.roots}' report of whether the iteration hit its cap). *)
