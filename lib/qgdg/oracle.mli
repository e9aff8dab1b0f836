(** The commutation oracle: the one module that decides whether two
    blocks commute, and the summary-keyed entry point for every
    commutativity-detection decision. The paper resolves commutation "by
    explicitly checking the equality of unitary operators ÂB̂ and B̂Â"
    (§3.3); this module decides exactly that on the joint support, with
    structural, klass and algebraic (phase-polynomial, tableau) shortcuts
    before the dense comparison.

    A block's {e summary} is its content digest (relabelled onto its own
    support), its sorted support, and its classification by the cheapest
    abstract domain that pins its semantics — identity / diagonal /
    Clifford / phase-linear / general — plus the raw fragment-membership
    flags the dispatcher routes on. Classification is memoized on the
    digest, so congruent blocks anywhere on the register (the same
    excitation or adder template stamped onto different qubit sets) are
    classified once per domain.

    Pairwise decisions are memoized under the key [(digest_a, digest_b,
    mask)], where the joint mask comes from one merge walk of the two
    sorted supports: two bits per joint-support position, "on a" and "on
    b". The mask fixes both supports' places in the joint support, so the
    key pins the relabelled pair exactly; the same walk gives the joint
    width and whether the supports meet. A memo hit builds no string,
    table or list: the joint support and the relabelled gates are made
    only on a miss. Keys are content-based, never per-domain ids, so the
    route counters do not depend on which domain computed a summary.

    Four consumers sit on top of the oracle: pairwise commutation
    ({!blocks} / {!gates}, called by the aggregator), diagonal-prefix
    recognition for the detect pass ({!scan_push} / {!scan_is_diagonal},
    consumed by {!Diagonal}), CLS group construction ({!Comm_group.build}
    passes per-instruction summaries back into {!blocks}), and the
    algebraic-only lint query ({!algebraic}, QL070). All memo tables are
    per-domain (Domain.DLS) and cleared by {!reset_memos}, so [-j N] runs
    stay byte-identical. The memo-free executable specifications these
    paths are pinned against live in test scope ([test/ref]). *)

type klass = Identity | Diagonal | Clifford | Phase_linear | General

val klass_to_string : klass -> string
(** Lower-case name: ["identity"] … ["general"]. *)

type t = {
  digest : string;
      (** content key of the member list relabelled onto its own support:
          the raw 16-byte MD5 digest of its gate encoding, or the
          encoding itself when shorter than 16 bytes (which can never
          equal a digest). Equal digests mean congruent blocks. *)
  support : int list;  (** sorted qubit support *)
  klass : klass;
  in_clifford : bool;  (** tableau domain applies (independent of klass) *)
  in_phase_poly : bool;  (** phase-polynomial domain applies *)
  all_diagonal : bool;  (** every member gate is syntactically diagonal *)
}

val of_gates : Qgate.Gate.t list -> t * bool
(** The block's summary plus whether the classification was a memo hit
    (callers that meter cache traffic — {!Qflow.Analysis.gdg} — tick on
    the flag; this module itself never ticks classification counters). *)

val max_check_width : int
(** Support-size cap (8) above which the dense check is not attempted. *)

val blocks : ?sa:t -> ?sb:t -> Qgate.Gate.t list -> Qgate.Gate.t list -> bool
(** Do two member-gate blocks commute as whole operators? Structural
    shortcuts (empty, disjoint supports, both sides syntactically
    diagonal), then the width gate, the klass-pair shortcut, the pair
    memo, the flag-dispatched algebraic domains, and the
    dense comparison last. [sa]/[sb] supply precomputed summaries
    (callers holding per-instruction caches); otherwise summaries are
    computed (and digest-memoized) per call.

    Ticks [commute.checks] and exactly one [commute.route.<r>] counter
    (structural / memo / phase_poly / tableau / dense / oversize) with a
    matching [.ms] histogram when a metrics registry is ambient; a dense
    query also records its joint width in [commute.dense.width] and
    ticks [commute.dense.gates] and [commute.dense.kernels] by its
    operands' gate and fused-kernel counts. *)

val gates : Qgate.Gate.t -> Qgate.Gate.t -> bool
(** Do two gates commute as operators? *)

val algebraic :
  sa:t -> sb:t -> Qgate.Gate.t list -> Qgate.Gate.t list -> bool option
(** [algebraic ~sa ~sb a b]: do the blocks commute, decided
    {e algebraically only}? [Some true] for disjoint supports or two
    identity/diagonal klasses; otherwise joint supports wider than 12
    qubits give [None], and the phase-polynomial domain (exact) or the
    tableau domain (with a statevector-column global-phase tie-break)
    decides when both blocks lie in it. [None] when the pair escapes
    every domain — there is no dense fallback. Keeps no memo and ticks no
    metric. *)

val dense_on : n_qubits:int -> Qgate.Gate.t list -> Qgate.Gate.t list -> bool
(** The dense comparison on already-relabelled gates (support 0..n-1):
    do A·B and B·A agree entrywise within 1e-9? Matrix-free — each
    operand is fused into kernels of at most two qubits
    ({!Qgate.Unitary.program}), and each basis column is pushed through
    both orders in 2ⁿ buffers ({!Qgate.Unitary.run}), stopping at the
    first column that differs. Raises [Invalid_argument] when a gate
    acts on a qubit outside [\[0, n_qubits)]. *)

(** {2 Incremental diagonal-prefix scanning}

    The detect pass grows pair-confined runs and asks, per prefix,
    whether the composed unitary is diagonal. A scan composes the run
    once — syntactic diagonality, a first-seen relabelling (prefix-stable
    and label-independent), an in-place phase polynomial, and a
    prefix-free key buffer — so an n-gate run costs O(n) domain updates
    instead of the reference's O(n²) rebuild, and every decision is
    memoized per congruence class in the per-domain [diagonal] table.

    Every {!scan_is_diagonal} call ticks [detect.checks] and exactly one
    [detect.route.<r>] counter (structural / memo / phase_poly / dense /
    oversize) with a matching [.ms] histogram. *)

type scan

val scan_create : unit -> scan

val scan_push : scan -> Qgate.Gate.t list -> unit
(** Append the next run node's member gates to the scanned prefix. *)

val scan_is_diagonal : scan -> bool
(** Is the current prefix's composed unitary diagonal in the
    computational basis? Decision-identical to the test-scope reference
    [Qref.is_diagonal_block] on the concatenated prefix (the qcheck suite
    pins this). *)

val reset_memos : unit -> unit
(** Clear the calling domain's classification, pair and diagonal
    memos. Benchmarks use this to measure cold-path timings
    reproducibly; results are unaffected (the memos are pure caches). *)
