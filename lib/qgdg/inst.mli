(** Instructions — the nodes of the gate dependence graph.

    An instruction is a block of member gates executed as one unit (a
    single gate initially; an aggregated multi-gate block after
    commutativity detection and instruction aggregation). Its latency is
    assigned by the caller's cost model (the latency model, standing in
    for the optimal control unit). *)

type t = {
  id : int;
  gates : Qgate.Gate.t list;  (** members, in time order; never empty *)
  qubits : int list;  (** sorted support *)
  latency : float;  (** pulse time, ns *)
}

val make : id:int -> latency:float -> Qgate.Gate.t list -> t
(** Raises [Invalid_argument] on an empty gate list or a negative or
    non-finite ([nan], [infinity], [neg_infinity]) latency. *)

val of_gate : id:int -> latency:float -> Qgate.Gate.t -> t
val width : t -> int
val acts_on : t -> int -> bool
val shares_qubit : t -> t -> bool
val common_qubits : t -> t -> int list

val merge : id:int -> latency:float -> t -> t -> t
(** [merge ~id ~latency earlier later] concatenates members in time order.
    The caller is responsible for the merge being schedulable (see
    {!Gdg.merge}). *)

val unitary_on_support : t -> int list * Qnum.Cmat.t
(** Support and composed unitary with qubits relabelled to the support
    (see {!Qgate.Unitary.on_support}). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
