(** The gate dependence graph (paper §3.3, Fig. 6).

    Nodes are {!Inst} blocks; dependence is induced by per-qubit chains:
    each qubit orders the instructions acting on it, and an instruction's
    parents are its immediate chain predecessors. Commutation rules later
    relax this order (see {!Comm_group} and the CLS scheduler); the chains
    themselves always record one valid program order. *)

type t

val of_insts : n_qubits:int -> Inst.t list -> t
(** Builds chains in list order. Raises [Invalid_argument] on duplicate
    ids or out-of-range qubits. *)

val of_circuit :
  latency:(Qgate.Gate.t list -> float) -> Qgate.Circuit.t -> t
(** One singleton instruction per gate, costed by [latency]. *)

val n_qubits : t -> int
val size : t -> int
val find : t -> int -> Inst.t
(** Raises [Not_found]. *)

val mem : t -> int -> bool
val insts : t -> Inst.t list
(** All instructions in a topological order. *)

val iter_insts : t -> (Inst.t -> unit) -> unit
(** Iterate over all instructions in unspecified order (no topological
    sort — O(n)). *)

val fresh_id : t -> int
(** A node id never used in this graph (monotonically increasing). *)

val next_id : t -> int
(** The id {!fresh_id} would return, without allocating it — the
    capacity probe for flat [id]-indexed side tables. Callers sizing
    tables must use this (not {!fresh_id}) so probing does not perturb
    the merged-node id stream. *)

val chain : t -> int -> Inst.t list
(** The instruction chain on a qubit, in order. *)

val chain_ids : t -> int -> int list
(** The chain of qubit [q] as raw instruction ids, without resolving each
    node — O(1), for callers that maintain their own per-chain indexes. *)

val pred_on : t -> int -> qubit:int -> Inst.t option
(** Immediate predecessor of a node on one of its qubits. *)

val succ_on : t -> int -> qubit:int -> Inst.t option

val neighbor_tables :
  t -> (int * int, int) Hashtbl.t * (int * int, int) Hashtbl.t
(** [(pred, succ)] keyed by (instruction id, qubit), built in one pass
    over all chains — use these instead of repeated {!pred_on}/{!succ_on}
    queries in O(n) algorithms (ASAP/ALAP passes, aggregation rounds). *)

val parents : t -> int -> Inst.t list
(** Distinct immediate predecessors across the node's qubits. *)

val children : t -> int -> Inst.t list

val merge : ?rank:(int -> float) -> t -> latency:float -> int -> int -> Inst.t
(** [merge g ~latency a b] replaces nodes [a] and [b] by one block whose
    members are [a]'s followed by [b]'s, positioned at the earlier of the
    two on every shared qubit chain. The caller must have checked that
    the action is schedulable (paper §4.1, as the aggregator does); this
    function only re-checks that the result is acyclic and raises
    [Invalid_argument] otherwise (leaving the graph unchanged, fresh-id
    counter included). Without [rank], acyclicity is established by a
    full topological pass. With [rank] — a pre-merge ASAP start time per
    node id, [neg_infinity] when unknown — the check is a bounded
    reachability probe around the merged node: contraction can only
    create cycles through it, and any returning path stays below the
    largest predecessor rank, so only the time-window between the
    endpoints is explored. Both variants accept and reject identical
    merges; [rank] is purely a cost optimization. *)

val set_latency : t -> int -> float -> unit
(** Replaces one node's latency. Raises [Invalid_argument] on a nan,
    infinite or negative latency, as {!Inst.make} does. *)

val asap : t -> (int * (float * float)) list * float
(** Chain-order ASAP schedule: per-node (start, finish) and the makespan.
    This is the latency-weighted critical path used for monotonic-action
    checks (§4.3). *)

val makespan : t -> float

val all_gates : t -> Qgate.Gate.t list
(** Member gates of all instructions, in a topological program order. *)

val copy : t -> t

type problem =
  | Dangling_node of { qubit : int; id : int }
      (** a chain references an id with no node *)
  | Not_in_support of { qubit : int; id : int }
      (** a node sits on a qubit's chain without acting on that qubit *)
  | Missing_from_chain of { qubit : int; id : int }
      (** a node acts on a qubit but is absent from its chain *)
  | Duplicate_on_chain of { qubit : int; id : int }
  | Cycle of int list
      (** ids on or behind a dependence cycle *)

val problems : t -> problem list
(** All structural-invariant violations, in deterministic order (empty
    for a well-formed graph). Total even on corrupted graphs — the static
    checkers build diagnostics from this. *)

val validate : t -> unit
(** Raises [Failure] with the first {!problems} message, if any (used by
    tests). *)

val pp : Format.formatter -> t -> unit
