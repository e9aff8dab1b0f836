(** Metered per-instruction algebraic summaries.

    A summary ({!Qgdg.Oracle.t}) classifies a member-gate block by the
    cheapest abstract domain that pins its semantics — identity,
    diagonal, Clifford (Pauli tableau), CNOT+diagonal (phase polynomial)
    — together with its support and a content digest of the block
    relabelled onto its own support. Classification lives in the
    commutation oracle and is memoized on the digest: congruent blocks
    anywhere on the register are classified once per domain, and the
    detect pass, CLS grouping and this layer share the table. This layer
    only meters that cache traffic through the ambient metrics registry
    as [qflow.summary.hit] / [qflow.summary.miss] (see {!Qobs.Metrics}),
    which [qcc analyze] reports. *)

val of_gates : Qgate.Gate.t list -> Qgdg.Oracle.t
val of_inst : Qgdg.Inst.t -> Qgdg.Oracle.t
