(** Incrementally maintained ASAP times and tails of a {!Gdg} (paper
    §4.3).

    Monotonic aggregation needs, after every merge, each node's ASAP
    schedule and its makespan-free deadline. This module owns those times
    and nothing else: the chain neighbours they are folded over are the
    {!Gdg} links, and each node's latency is read through {!Gdg.find}, so
    no instruction cache is kept. {!create} computes the times from
    scratch, and {!merge} performs one {!Gdg.merge} and re-propagates
    starts and tails from the splice alone. The fixpoint on a DAG is unique, so the patched tables
    are bit-identical to a fresh {!create} on the merged graph (the qgdg
    qcheck suite pins this).

    Tables are flat arrays indexed by node id; the id space is dense
    (initial nodes plus one fresh id per merge), so capacity grows by
    doubling. [nan] marks an id with no live node. The record is
    [private] so hot loops read the arrays directly; only this module
    writes them. *)

type work
(** The re-propagation worklist: a reusable min-heap with epoch-stamped
    membership. *)

type t = private {
  g : Gdg.t;
  mutable start : float array;  (** ASAP start *)
  mutable finish : float array;  (** ASAP start plus own latency *)
  mutable tail : float array;
      (** longest path to any sink, own latency included: the ALAP start
          is [makespan -. tail], so tails survive a makespan change *)
  mutable makespan : float;
  work : work;
}

val create : Gdg.t -> t
(** Folds starts and finishes over {!Gdg.topo_ids} and tails over its
    reverse. Latencies must be finite and non-negative. The tables hold
    the times under the latencies as they are now, so a caller that
    changes a latency ({!Gdg.set_latency}) creates afresh. Raises
    [Failure] from {!Gdg.topo_ids} on a cyclic graph. *)

val merge : t -> latency:float -> int -> int -> Inst.t * int
(** [merge t ~latency a b] reads [a]'s and [b]'s chain neighbours from
    the links, calls [Gdg.merge ~rank:(rank t) t.g ~latency a b] and
    re-propagates starts, the makespan and tails. Returns the merged
    node and the number of worklist pops over both directions. A
    rejected merge raises [Invalid_argument] from {!Gdg.merge} and leaves
    [t] unchanged. *)

val rank : t -> int -> float
(** The ASAP start of a live node, [neg_infinity] for any other id: the
    topological potential {!Gdg.merge}'s [~rank] expects. *)
