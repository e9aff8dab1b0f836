(** Incrementally maintained timing tables of a {!Gdg} (paper §4.2–4.3).

    Diagonal contraction and monotonic aggregation both need, after every
    merge, each node's per-qubit chain neighbours and its ASAP schedule;
    aggregation also needs each node's makespan-free deadline. This module
    is the one owner of those tables: {!create} computes them from
    scratch, and {!splice} patches them after one accepted {!Gdg.merge},
    re-linking only the merged support's chains and re-propagating starts
    and tails from the splice alone. The fixpoint on a DAG is unique, so
    the patched tables are bit-identical to a fresh {!create} on the
    merged graph (the qgdg qcheck suite pins this).

    Tables are flat arrays indexed by node id; the id space is dense
    (initial nodes plus one fresh id per merge), so capacity grows by
    doubling. Per-qubit tables are laid out [id * nq + qubit]. [nan] marks
    an id with no live node in the float tables, [-1] a missing chain
    neighbour or position in the int tables. The record is [private] so
    hot loops read the arrays directly; only this module writes them. *)

type work
(** The re-propagation worklist: a reusable min-heap with epoch-stamped
    membership. *)

type t = private {
  g : Gdg.t;
  nq : int;  (** [Gdg.n_qubits g] *)
  mutable start : float array;  (** ASAP start *)
  mutable finish : float array;  (** ASAP start plus own latency *)
  mutable tail : float array;
      (** longest path to any sink, own latency included: the ALAP start
          is [makespan -. tail], so tails survive a makespan change *)
  mutable pred : int array;  (** chain predecessor, [id * nq + q] *)
  mutable succ : int array;  (** chain successor, [id * nq + q] *)
  mutable pos : int array;  (** position within the chain, [id * nq + q] *)
  mutable node : Inst.t option array;  (** id -> live instruction *)
  ends : int array;  (** qubit -> last node of its chain, [-1] when empty *)
  mutable makespan : float;
  work : work;
}

val create : Gdg.t -> t
(** One chain pass plus one Kahn pass. Latencies must be finite and
    non-negative. The tables hold the instruction records as they are now,
    so a caller that changes a latency ({!Gdg.set_latency}) creates afresh.
    Raises [Failure] on a cyclic graph. *)

val splice : t -> a:int -> b:int -> Inst.t -> int
(** [splice t ~a ~b merged] updates [t] after [Gdg.merge t.g a b] returned
    [merged]. The pre-merge neighbours of [a] and [b] are read from [t]'s
    own tables, so no merge may happen between the two calls. Returns the
    number of worklist pops over both directions. *)

val rank : t -> int -> float
(** The ASAP start of a live node, [neg_infinity] for any other id: the
    topological potential {!Gdg.merge}'s [~rank] expects. *)
