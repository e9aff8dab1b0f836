(** Incrementally maintained ASAP times and tails of a {!Gdg} (paper
    §4.3).

    Monotonic aggregation needs, after every merge, each node's ASAP
    schedule and its makespan-free deadline. This module owns those times
    and a per-id latency table: the chain neighbours the times are folded
    over are the {!Gdg} links, and the order they are folded in is the
    graph's maintained topological order ([Gdg.order]). {!create}
    computes everything from scratch in one longest-path pass over that
    order. {!merge} performs one {!Gdg.merge}, which repairs the order,
    and re-times in that order from the splice alone. The fixpoint on a
    DAG is unique, so the patched tables are bit-identical to a fresh
    {!create} on the merged graph (the qgdg qcheck suite pins this).

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
  mutable mark : Bytes.t;
      (** id -> [\001] while a sweep has marked it, [\000] otherwise:
          every mark is cleared before {!merge} returns *)
}

val create : Gdg.t -> t
(** Folds starts and finishes over [Gdg.order] and tails over its
    reverse. Latencies must be finite and non-negative. The tables hold
    the times under the latencies as they are now, so a caller that
    changes a latency ({!Gdg.set_latency}) creates afresh. *)

val merge : t -> latency:float -> int -> int -> Inst.t * int
(** [merge t ~latency a b] reads [a]'s and [b]'s chain neighbours from
    the links, calls [Gdg.merge t.g ~latency a b], and re-times starts,
    the makespan and tails by two sweeps of [Gdg.order] (upward, then
    downward) that recompute only the nodes marked dirty: the splice's
    nodes, then the dependents of each node whose value changed. Returns
    the merged node and the number of nodes recomputed over both sweeps;
    each node counts at most once per sweep. A rejected merge raises
    [Invalid_argument] from {!Gdg.merge} before any of this and leaves
    [t] unchanged. *)
