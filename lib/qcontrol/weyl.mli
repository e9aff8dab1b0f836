(** Weyl-chamber canonical coordinates of two-qubit unitaries.

    Every U ∈ U(4) factors as k₁ · CAN(c₁,c₂,c₃) · k₂ with k₁, k₂ local
    (1-qubit ⊗ 1-qubit) and CAN(c) = exp(i(c₁·XX + c₂·YY + c₃·ZZ)). The
    coordinates are the complete invariant of local equivalence and
    determine the minimal interaction time under a given coupling — which
    is all the latency model needs.

    This module computes coordinates only (no local factors): eigenphases
    of M·Mᵀ in the magic basis, canonicalized into
    0 ≤ c₃ ≤ c₂ ≤ c₁ ≤ π/4. The canonicalization quotients by mirror
    symmetry (c₃ ↔ -c₃), which is time-neutral under the XY interaction
    because the drift is real: conjugating any control sequence implements
    the mirrored gate in the same duration. *)

type coords = { c1 : float; c2 : float; c3 : float }
(** Canonical, with π/4 ≥ c1 ≥ c2 ≥ c3 ≥ 0. *)

val coordinates : Qnum.Cmat.t -> coords
(** [of_eigenvalues] of the eigenvalues of [gram u]. Raises
    [Invalid_argument] unless the input is a 4×4 unitary. Ticks
    [weyl.calls], and [weyl.capped] when the eigenvalue iteration stopped
    at its sweep cap ({!Qnum.Poly.solution}). *)

val gram : Qnum.Cmat.t -> Qnum.Cmat.t
(** M·Mᵀ, where M is the input normalized into SU(4) and written in the
    magic basis: the matrix whose eigenphases {!coordinates} reads. Raises
    like {!coordinates}. *)

val of_eigenvalues : Qnum.Cx.t array -> coords
(** Canonical coordinates from the four eigenvalues of {!gram}, in the
    order the root finder returns them. *)

val canonical_gate : coords -> Qnum.Cmat.t
(** CAN(c) = exp(i(c₁·XX + c₂·YY + c₃·ZZ)). *)

val interaction_time : Device.t -> coords -> float
(** Minimal evolution time under the device's coupling (|µ| ≤ µ₂) with
    fast local rotations — see DESIGN.md §4 for constructions and
    matching lower bounds. XY: max((c₁+c₂+c₃)/(2µ₂), c₁/µ₂); ZZ:
    (c₁+c₂+c₃)/µ₂; Heisenberg: c₁/µ₂. Anchors on the default XY device:
    iSWAP 39.3 ns, CNOT 39.3 ns, SWAP 58.9 ns; on Heisenberg, SWAP runs
    in 39.3 ns (the quantum-dot native gate of Appendix A). *)

val cnot_coords : coords
val iswap_coords : coords
val swap_coords : coords
