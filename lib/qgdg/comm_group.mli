(** Per-qubit commutation groups (paper §3.3.2).

    On each qubit, the instruction chain is partitioned into maximal runs
    of consecutive, pairwise-commuting instructions. Two instructions may
    be freely reordered iff they share a group on {e every} common qubit —
    e.g. the two CNOTs of a CNOT–Rz–CNOT structure share a group on the
    control qubit (an Rz there can travel through) but not on the target
    qubit. *)

type t

val oracle_commute : unit -> Inst.t -> Inst.t -> bool
(** A fresh commutation decision over {!Oracle.blocks} with its own
    summary cache keyed by instruction id: ids are unique and blocks
    immutable, so caching by id is sound, and each instruction is
    digested and classified once per cache instead of once per pair
    probe. Decisions equal [Oracle.blocks a.gates b.gates]. *)

val build : ?commute:(Inst.t -> Inst.t -> bool) -> Gdg.t -> t
(** Pairwise operator-commutation checks along every chain. By default
    every check goes through a fresh {!oracle_commute}. Callers that
    refresh groups repeatedly (the aggregator) pass their own memoized
    [commute], built on {!oracle_commute}. The qcheck suite pins the
    default build's partitions against a build over the memo-free
    test-scope reference decision chain on every suite circuit. *)

val refresh :
  ?commute:(Inst.t -> Inst.t -> bool) -> t -> Gdg.t -> qubits:int list -> unit
(** Recompute the groups of the listed qubits only — a merge changes
    membership solely on the merged instruction's support, so the
    aggregator refreshes incrementally instead of rebuilding all chains.
    On each listed qubit only the window a splice can affect is redone:
    the old groups settled inside the unchanged chain prefix are kept,
    the greedy partition restarts at the first group not kept, and the
    old groups are spliced back in once a group opens inside the
    unchanged chain suffix at a position where an old group opened.
    Instructions are resolved and probed only inside that window. The
    result equals {!build}'s provided [commute] answers every pair of
    instruction ids the same way each time it is asked; {!build} is this
    routine over empty groups. *)

val groups_on : t -> int -> int list list
(** Ordered groups (of instruction ids) on a qubit. *)

val lookup : t -> qubit:int -> int -> int
(** Position of an instruction's group on a qubit, [-1] when the
    instruction is not on that qubit — the O(1) membership probe
    schedulers sit on. *)

val same_group : t -> qubit:int -> int -> int -> bool

val reorderable : t -> Inst.t -> Inst.t -> bool
(** Same group on every shared qubit (true for disjoint supports). *)
