(** Reordering and regrouping certificates.

    Three certifiers built on the projection lemma for trace monoids:
    two gate words over the dependence relation "shares a qubit" are
    equivalent iff they have the same gate multiset and identical
    per-qubit projections; any further reordering is legal exactly when
    every inverted pair commutes as operators, which {!Domain} decides
    pairwise. All three return an {!Certificate.outcome}; error-severity
    diagnostics mean refutation. *)

val dependence :
  stage:string -> src:Qgate.Gate.t list -> dst:Qgate.Gate.t list ->
  Certificate.outcome
(** Certify that the words are equal in the trace monoid — same multiset
    (QC011 otherwise) and same per-qubit projections (QC012) — which
    implies unitary equality outright. This covers GDG construction and
    rebuild boundaries, whose only freedom is interleaving
    disjoint-support gates. *)

val schedule :
  stage:string -> original:Qgdg.Gdg.t -> Qsched.Schedule.t ->
  Certificate.outcome
(** Certify that executing the schedule's linearization is equivalent to
    the GDG's program order, mapping {!Qsched.Schedule.replay} (the
    replay the lint's QL031/QL034 also read): instruction sets and
    members must match (QC031), and every pair of instructions a qubit
    sees in inverted order must be proven to commute (QC030; proofs are
    memoized per pair). A qubit whose chain of m instructions has m² >
    4,000,000 is skipped as QC001 without walking it. *)

val regroup :
  stage:string -> code_parse:string -> code_reorder:string ->
  ?width_limit:int -> before:Qgdg.Inst.t list -> after:Qgdg.Inst.t list ->
  unit -> Certificate.outcome
(** Certify an in-place grouping pass (diagonal contraction,
    aggregation): parse every after-instruction's member list as a
    concatenation of before-instruction gate lists ([code_parse] when
    impossible, or when some before-instruction is left over), enforce
    the width bound (QC051), then certify the realized constituent
    order by greedy block exchanges ([code_reorder]): iterated merges
    may hoist a whole intermediate aggregate past an earlier
    instruction, and the aggregate can commute as a block even when no
    member does individually, so each displaced run is certified at the
    finest granularity that proves it — member pairwise, member against
    the whole run, or run against run. *)
