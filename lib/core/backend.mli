(** The compilation target, as one value.

    Bundles everything the pipeline needs to know about the machine it
    compiles for: the physical device (interaction type and control
    amplitudes), the qubit connectivity, and the aggregated-instruction
    width limit. Passes reach it through {!Pass.ctx}; alternative targets
    are alternative values of {!t}, not edits to the compiler. *)

type t = {
  device : Qcontrol.Device.t;
  topology : Qmap.Topology.t option;
      (** [None] selects a near-square grid sized to the circuit. *)
  width_limit : int;  (** maximum qubits per aggregated instruction *)
}

val default : t
(** Transmon XY device, auto grid, width limit 10 — the paper's setup. *)

val make :
  ?device:Qcontrol.Device.t ->
  ?topology:Qmap.Topology.t ->
  ?width_limit:int ->
  unit ->
  t

val topology_for : t -> Qgate.Circuit.t -> Qmap.Topology.t
(** The explicit topology, or a grid sized for the circuit. *)

val gate_cost : t -> Qgate.Gate.t -> float
(** Native latency of one gate on this device, ns. *)

val serial_cost : t -> Qgate.Gate.t list -> float
(** Critical-path latency of a block pulsed gate by gate (ISA mode). *)

val block_cost : t -> Qgate.Gate.t list -> float
(** Modeled latency of a block compiled as one aggregated pulse,
    respecting the width limit. *)

val fingerprint : t -> string
(** Content digest of the backend; part of every stage-cache key, so
    artifacts compiled for different targets can never be confused. *)
