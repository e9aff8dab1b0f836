(** Per-qubit commutation groups (paper §3.3.2).

    On each qubit, the instruction chain is partitioned into maximal runs
    of consecutive, pairwise-commuting instructions. Two instructions may
    be freely reordered iff they share a group on {e every} common qubit —
    e.g. the two CNOTs of a CNOT–Rz–CNOT structure share a group on the
    control qubit (an Rz there can travel through) but not on the target
    qubit.

    The partition is stored as one group {e label} per (instruction,
    qubit): equal labels mean the same group. Labels name groups but do
    not count them. A fresh {!build} numbers each qubit's groups 0, 1,
    2, … in chain order; {!refresh} gives every group it reopens a fresh
    label from a per-qubit counter, so no group outside the regrouped
    window is ever rewritten. The value holds the graph it was built on
    and reads the chains from its {!Gdg} links. *)

type t

val oracle_commute : unit -> Inst.t -> Inst.t -> bool
(** A fresh commutation decision over {!Oracle.blocks} with its own
    summary cache keyed by instruction id: ids are unique and blocks
    immutable, so caching by id is sound, and each instruction is
    digested and classified once per cache instead of once per pair
    probe. Decisions equal [Oracle.blocks a.gates b.gates]. *)

val build : ?commute:(Inst.t -> Inst.t -> bool) -> Gdg.t -> t
(** Pairwise operator-commutation checks along every chain: the greedy
    partition closes a group at the first instruction that fails to
    commute with one of its members. By default every check goes through
    a fresh {!oracle_commute}. Callers that refresh groups repeatedly
    (the aggregator) pass their own memoized [commute], built on
    {!oracle_commute}. The qcheck suite pins the default build's
    partitions against a build over the memo-free test-scope reference
    decision chain on every suite circuit. *)

val refresh :
  ?commute:(Inst.t -> Inst.t -> bool) ->
  t ->
  a:int ->
  la:int array ->
  b:int ->
  lb:int array ->
  Inst.t ->
  int
(** [refresh t ~a ~la ~b ~lb merged] regroups after the {!Gdg.merge} of
    [a] and [b] into [merged] on the graph [t] was built on. [la] and [lb]
    are [a]'s and [b]'s link arrays read before the merge, which
    {!Gdg.merge} leaves intact. A merge changes membership only on the
    merged support, and there only in a window, which is all that is
    walked, from the merged node's chain links:

    - on each merged qubit, the walk starts at the start of the old group
      holding the earlier endpoint's old predecessor (the merged node, at
      the chain head);
    - it runs the greedy partition forward along the successor links,
      probing exactly the pairs {!build} probes from that group start;
    - it stops at the first group that opens at or past the last change
      site (the later endpoint's old successor, or the earlier
      endpoint's when the later one is not on the qubit) on a node that
      opened an old group, since from there on the partition is
      unchanged.

    Afterwards [a] and [b] read [-1] on every qubit. The partition equals
    {!build}'s on the merged graph provided [commute] answers every pair
    of instruction ids the same way each time it is asked; labels may
    differ, group membership does not. Returns the number of chain
    elements examined, the aggregator's [agg.regroup_visits]. *)

val groups_on : t -> int -> int list list
(** Ordered groups (of instruction ids) on a qubit, built on demand from
    the chain and the labels with one walk, and only again after a
    {!refresh} touched the qubit. *)

val lookup : t -> qubit:int -> int -> int
(** The label of an instruction's group on a qubit, [-1] when the
    instruction is not on that qubit — the O(1) membership probe
    schedulers sit on. Only after a fresh {!build} is it the group's
    position in {!groups_on}. *)

val same_group : t -> qubit:int -> int -> int -> bool

val reorderable : t -> Inst.t -> Inst.t -> bool
(** Same group on every shared qubit (true for disjoint supports). *)
