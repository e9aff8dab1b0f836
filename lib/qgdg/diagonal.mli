(** Diagonal-unitary detection and contraction (paper §3.3.1, §4.2).

    Searches the GDG for contiguous runs confined to a single qubit pair
    whose composed unitary is diagonal — the CNOT–Rz–CNOT structures of
    QAOA/UCCSD circuits — and contracts each into one instruction. The
    contracted blocks commute with one another, which is what unlocks the
    commutativity-aware scheduler's freedom. Runs are limited to 2 qubits
    (to preserve parallelism) and [max_run_gates] member gates.

    The production path runs on the commutation oracle ({!Oracle}) and
    reads the {!Gdg} chain links directly: each run's prefixes are
    decided by one incremental phase-polynomial scan (digest-memoized per
    congruence class, attributed to [detect.route.*]), sweeps after the
    first revisit only the neighborhood each contraction invalidated, and
    no timing table is kept. Every contraction is an exclusive edge — run
    members are contiguous on each chain, so the node folded in next has
    the accumulated block as its only predecessor, or the block (on one
    qubit) has it as its only successor — so none closes a cycle;
    {!Gdg.merge} still repairs the graph's order, and ticks
    [gdg.merge.probes] when the block's successors sit inside the merge
    window (the slow suite pins that the order stays topological). The
    pre-oracle implementation (full re-sweep per round, per-prefix dense
    re-checks) lives in test scope ([test/ref]), built on the public
    {!Gdg} API only, and the qcheck suite pins both to identical merges
    and graphs on every suite circuit. *)

val max_run_gates : int
(** 10, the paper's practical bound on exhaustive block search. *)

val detect_and_contract :
  latency:(Qgate.Gate.t list -> float) -> Gdg.t -> int
(** Contract until fixpoint; returns the number of merges performed. The
    GDG is modified in place; merged instructions are re-costed with
    [latency]. *)

val grow_run : Gdg.t -> int -> int list
(** The longest contiguous run starting at a node whose support stays
    within one qubit pair, read from the chain links. *)
