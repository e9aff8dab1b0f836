(** Partial compilation (paper §9, future work).

    Hybrid variational algorithms re-run structurally identical circuits
    with updated rotation angles on every classical-optimizer iteration;
    re-running the full aggregation search each time is what makes the
    paper's compile times "as long as several hours". This module reuses
    a finished compilation: the aggregated instruction structure, qubit
    mapping and SWAP choices are kept, only the member-gate angles are
    rebound, and every block is re-costed and the final schedule
    recomputed the way the compile's strategy did it
    ({!Strategy.final}) — orders of magnitude cheaper than compiling from
    scratch (measured in the tests). *)

val reparameterize :
  ?config:Backend.t ->
  Compiler.result ->
  (Qgate.Gate.t -> Qgate.Gate.t) ->
  Compiler.result
(** [reparameterize result f] maps every member gate of every aggregated
    instruction through [f]. [f] must preserve the gate's name and
    qubits (only parameters may change); [Invalid_argument] otherwise.
    [config] must match the one used for the original compilation
    (defaults to {!Backend.default}).

    Blocks are re-costed with the strategy's cost (serial for [isa],
    [cls] and [cls+hand], the model for the aggregating strategies) and
    rescheduled with its final scheduler (ASAP for [isa] and
    [aggregation], CLS otherwise), so an identity rebinding returns the
    compile's latency bit for bit. The original's certificate, trace and
    diagnostics cover gates the result no longer holds, so the result
    carries [None], [None] and [[]]; [compile_time] is the rebinding's
    wall time on {!Qobs.Clock}. *)

val rebind_rotations :
  ?config:Backend.t ->
  Compiler.result ->
  gamma:float ->
  beta:float ->
  Compiler.result
(** QAOA convenience: rescale every Rz angle by [gamma]/original-γ-slot
    semantics is ambiguous, so instead this substitutes the angle of every
    Rz with [gamma] (times the gate's original sign) and of every Rx with
    [2·beta] — matching the circuits {!Qapps.Qaoa.circuit} generates. *)
