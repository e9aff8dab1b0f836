(** Incrementally maintained ASAP times and tails of a {!Gdg} (paper
    §4.3).

    Monotonic aggregation needs, after every merge, each node's ASAP
    schedule and its makespan-free deadline. This module owns those times,
    a topological order of the live nodes and a per-id latency table: the
    chain neighbours the times are folded over are the {!Gdg} links.
    {!create} computes everything from scratch in one longest-path pass
    over {!Gdg.topo_ids}. {!merge} performs one {!Gdg.merge}, patches the
    order (a Pearce–Kelly reorder of the merge window when the merged
    node's successors demand it) and re-times in that order from the
    splice alone. The fixpoint on a DAG is unique, so the patched tables
    are bit-identical to a fresh {!create} on the merged graph (the qgdg
    qcheck suite pins this, and that the order stays topological).

    Tables are flat arrays indexed by node id; the id space is dense
    (initial nodes plus one fresh id per merge), so capacity grows by
    doubling. [nan] marks an id with no live node. The record is
    [private] so hot loops read the arrays directly; only this module
    writes them. *)

type t = private {
  g : Gdg.t;
  mutable start : float array;  (** ASAP start *)
  mutable finish : float array;  (** ASAP start plus own latency *)
  mutable tail : float array;
      (** longest path to any sink, own latency included: the ALAP start
          is [makespan -. tail], so tails survive a makespan change *)
  mutable makespan : float;
  mutable latency : float array;
      (** the node's latency as {!create} or {!merge} last read it, so the
          folds read no {!Inst.t} *)
  order : int array;
      (** position -> live id, [-1] for a hole: a topological order of
          the live nodes. A merge puts the merged node in the later
          endpoint's slot and leaves the earlier slot a hole, so the
          array never grows. *)
  mutable pos : int array;  (** id -> position in [order], [-1] for no live node *)
  mutable mark : Bytes.t;
      (** id -> [\001] while a sweep or the reorder has marked it, [\000]
          otherwise: every mark is cleared before {!merge} returns *)
}

val create : Gdg.t -> t
(** Folds starts and finishes over {!Gdg.topo_ids} and tails over its
    reverse, and keeps that order as [order]. Latencies must be finite
    and non-negative. The tables hold
    the times under the latencies as they are now, so a caller that
    changes a latency ({!Gdg.set_latency}) creates afresh. Raises
    [Failure] from {!Gdg.topo_ids} on a cyclic graph. *)

val merge : t -> latency:float -> int -> int -> Inst.t * int
(** [merge t ~latency a b] reads [a]'s and [b]'s chain neighbours from
    the links, calls [Gdg.merge ~rank:(rank t) t.g ~latency a b],
    patches [order] and [pos], and re-times starts, the makespan and
    tails by two sweeps of [order] (upward, then downward) that recompute
    only the nodes marked dirty: the splice's nodes, then the dependents
    of each node whose value changed. Returns the merged node and the
    number of nodes recomputed over both sweeps; each node counts at most
    once per sweep. A rejected merge raises [Invalid_argument] from
    {!Gdg.merge} before any of this and leaves [t] unchanged, [order] and
    [pos] included. *)

val rank : t -> int -> float
(** The ASAP start of a live node, [neg_infinity] for any other id: the
    topological potential {!Gdg.merge}'s [~rank] expects. *)
