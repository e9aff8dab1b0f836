(** The forward abstract-interpretation drivers.

    [circuit] runs the {!Transfer} functions over a flat gate stream
    (one exact forward pass — straight-line code needs no joins) and
    reports, per gate, whether it was provably dead on arrival, plus
    the final per-qubit abstract state.

    [gdg] runs one pass over a gate dependence graph in topological
    order ({!Qgdg.Gdg.insts}): each instruction's per-qubit input is the
    output of its chain predecessor ([Zero] at a chain head) and member
    gates are interpreted in block order. A {!Qgdg.Gdg} is acyclic, so
    that one pass is the fixpoint. Every instruction also gets its content-addressed
    summary ({!Qgdg.Oracle.of_gates}); each lookup ticks
    [qflow.summary.hit] or [qflow.summary.miss] on the ambient metrics
    registry (the oracle's classification memo traffic, which
    [qcc analyze] reports). *)

type circuit_result = {
  n_qubits : int;
  n_gates : int;
  final : Absval.t array;  (** per-qubit state after the last gate *)
  dead : (int * Qgate.Gate.t) list;
      (** gates provably identity (up to global phase) on their input
          abstract state, as (stream index, gate), in stream order *)
}

val circuit : Qgate.Circuit.t -> circuit_result
val gates : n_qubits:int -> Qgate.Gate.t list -> circuit_result

type inst_info = {
  inst_id : int;
  input : (int * Absval.t) list;  (** per support qubit, sorted *)
  output : (int * Absval.t) list;
  summary : Qgdg.Oracle.t;
  dead_members : int list;
      (** member indexes provably identity at their point in the block *)
}

type gdg_result = {
  n_qubits : int;
  final : Absval.t array;
      (** per-qubit state after the last instruction of its chain *)
  insts : inst_info list;  (** in topological order *)
  steps : int;  (** transfer evaluations, one per instruction (tests) *)
}

val gdg : Qgdg.Gdg.t -> gdg_result
