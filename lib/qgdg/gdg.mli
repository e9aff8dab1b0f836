(** The gate dependence graph (paper §3.3, Fig. 6).

    Nodes are {!Inst} blocks; dependence is induced by per-qubit chains:
    each qubit orders the instructions acting on it, and an instruction's
    parents are its immediate chain predecessors. Commutation rules later
    relax this order (see {!Comm_group} and the CLS scheduler); the chains
    themselves always record one valid program order. Times over the
    graph (ASAP starts, tails, the makespan) are {!Timing}'s.

    The chains are doubly linked through per-instruction slots, and this
    graph is their only owner: every pass that reads a chain neighbour
    reads these links, and {!merge} splices them in O(width). Instructions
    and links sit in two arrays indexed by node id; the id space is dense
    (initial nodes plus one fresh id per merge), so both grow by doubling.
    The record is [private] so hot loops read the links directly; only
    this module writes them. *)

type t = private {
  n_qubits : int;
  mutable nodes : Inst.t option array;
      (** id -> live instruction, [None] for an id with no live node; read
          it through {!find} and {!mem} *)
  mutable links : int array array;
      (** id -> the node's chain slots, [[||]] for an id with no live node.
          A node of width [w] has one slot [k] per support qubit, in
          [Inst.qubits] order, laid out in one array of length [3 * w]:
          [l.(k)] is the qubit, [l.(w + k)] the chain predecessor on it
          and [l.(2 * w + k)] the chain successor ([-1] at either end). *)
  mutable size : int;  (** the number of live nodes, see {!size} *)
  head : int array;  (** qubit -> first node of its chain, [-1] if empty *)
  last : int array;  (** qubit -> last node of its chain, [-1] if empty *)
  mutable next : int;  (** see {!next_id} *)
  order : int array;
      (** position -> live id, [-1] for a hole: a topological order of the
          live nodes, initially the {!of_insts} list order. A merge puts
          the merged node in the later endpoint's slot and leaves the
          earlier slot a hole, so the array never grows. On a chain, [a]
          precedes [b] iff [pos.(a) < pos.(b)]. *)
  mutable pos : int array;
      (** id -> position in [order], [-1] for an id never live. A
          merged-away id keeps its last position, so a caller can still
          tell which endpoint of a merge came first. *)
  mutable mark : Bytes.t;
      (** id -> [\001] while {!merge}'s search has marked it, [\000]
          otherwise: every mark is clear between calls *)
}

val of_insts : n_qubits:int -> Inst.t list -> t
(** Builds chains in list order. Raises [Invalid_argument] on negative or
    duplicate ids, out-of-range qubits, an instruction listing a qubit
    twice, and the records {!Inst.make} refuses but a raw [Inst.t] can
    carry: an empty gate list or a nan, infinite or negative latency. So
    every node of a graph has a finite, non-negative latency. *)

val iter_block : int array -> int -> (int -> unit) -> unit
(** [iter_block l block f] applies [f] to each neighbour in one slot
    block of the link array [l] (1 predecessors, 2 successors), skipping
    the [-1] chain ends. *)

val field : int array -> int -> int -> int
(** [field l q f] reads field [f] (0 the qubit, 1 predecessor, 2
    successor) of qubit [q]'s slot in the link array [l] (see {!t}),
    [-1] off the node's support. *)

val of_circuit :
  latency:(Qgate.Gate.t list -> float) -> Qgate.Circuit.t -> t
(** One singleton instruction per gate, costed by [latency]. *)

val n_qubits : t -> int
val size : t -> int
(** The number of live nodes, kept as a count: {!of_insts} and {!merge}
    maintain it and a rejected merge restores it. *)

val find : t -> int -> Inst.t
(** A bounds-checked read of the node table. Raises [Not_found] for an id
    with no live node. *)

val mem : t -> int -> bool

val topo_ids : t -> int list
(** All node ids in the topological order of Kahn's algorithm, the ready
    node with the least id first: the order CLS ties, the certificates
    and the goldens read, which [order] need not equal. Raises [Failure]
    on a cyclic graph. *)

val insts : t -> Inst.t list
(** All instructions in {!topo_ids} order. *)

val iter_insts : t -> (Inst.t -> unit) -> unit
(** Iterate over all instructions in ascending id order (no topological
    sort — O(n)). *)

val next_id : t -> int
(** The id the next {!merge} gives its block, one above every id used in
    this graph so far — the capacity probe for flat [id]-indexed side
    tables. *)

val chain : t -> int -> Inst.t list
(** The instruction chain on a qubit, in order. *)

val chain_ids : t -> int -> int list
(** The chain of qubit [q] as raw instruction ids, without resolving each
    node — one walk of the links. *)

val pred_on : t -> int -> qubit:int -> Inst.t option
(** Immediate predecessor of a node on one of its qubits ([None] at the
    chain head or off the node's support) — a read of the node's slots.
    Raises [Not_found] for an id with no live node. *)

val succ_on : t -> int -> qubit:int -> Inst.t option

val parents : t -> int -> Inst.t list
(** Distinct immediate predecessors across the node's qubits. *)

val children : t -> int -> Inst.t list

val merge : t -> latency:float -> int -> int -> Inst.t
(** [merge g ~latency a b] replaces nodes [a] and [b] by one block whose
    members are [a]'s followed by [b]'s, positioned at the earlier of the
    two on every shared qubit chain and spliced into the links in
    O(width). The caller must have checked that the action is schedulable
    (paper §4.1, as the aggregator does); this function only checks that
    the result is acyclic and raises [Invalid_argument] otherwise, leaving
    the graph unchanged: [a] and [b] are re-attached from their own
    untouched slots, and [order], {!size} and {!next_id} are restored.

    One search both checks and repairs [order]. The merged node takes
    the later endpoint's slot, so its only backward edges go to chain
    successors strictly between the two endpoints' slots. The forward
    walk from it through that window reaches it again iff the merge
    closes a cycle; otherwise the nodes it reached, and the window nodes
    reaching it, are reordered (Pearce and Kelly's dynamic topological
    sort). A merge whose window holds a successor of the merged node
    ticks [gdg.merge.probes]. *)

val set_latency : t -> int -> float -> unit
(** Replaces one node's latency. Raises [Invalid_argument] on a nan,
    infinite or negative latency, as {!Inst.make} does. *)

val all_gates : t -> Qgate.Gate.t list
(** Member gates of all instructions, in a topological program order. *)

val copy : t -> t
(** A deep copy, links included: in-place passes mutate their copy and
    must never reach a cached artifact's chains. *)

type problem =
  | Dangling_node of { qubit : int; id : int }
      (** a chain references an id with no node *)
  | Not_in_support of { qubit : int; id : int }
      (** a node sits on a qubit's chain without acting on that qubit *)
  | Missing_from_chain of { qubit : int; id : int }
      (** a node acts on a qubit but is absent from its chain *)
  | Duplicate_on_chain of { qubit : int; id : int }
      (** a chain's successor links revisit a node *)
  | Cycle of int list
      (** ids on or behind a dependence cycle *)

val problems : t -> problem list
(** All structural-invariant violations, in deterministic order (empty
    for a well-formed graph). Each chain is walked from its head through
    the successor links and stops at the first broken link, so this is
    total even on corrupted links — the static checkers build
    diagnostics from it. *)

val validate : t -> unit
(** Raises [Failure] with the first {!problems} message, if any (used by
    tests). *)

val pp : Format.formatter -> t -> unit
