(** Per-boundary certification driver for [Qcc.Compiler].

    A {!ctx} accumulates one {!Certificate.boundary} per certified pass
    seam; each entry point below corresponds to a pass name in
    [Qcc.Compiler.passes]. Certifiers run inside a ["certify-<name>"]
    trace span beside the pass's own span, so certification time is
    never charged to the pass, and tick the ambient metrics counters
    [qcert.proved] / [qcert.refuted] / [qcert.skipped] / [qcert.facts].
    The first refuted boundary raises {!Certificate.Certification_failed}
    carrying the certificate built so far, mirroring the fail-fast
    behavior of [Qlint.Report.Check_failed] under [~check:true]. *)

type ctx

val create : ?obs:Qobs.Trace.t -> strategy:string -> unit -> ctx
val finish : ctx -> Certificate.t
(** The certificate of all boundaries recorded so far, in pipeline
    order. *)

val lower : ctx -> src:Qgate.Circuit.t -> dst:Qgate.Circuit.t -> unit
(** ISA lowering preserves the unitary up to global phase
    ({!Rewrite.equivalence}). *)

val handopt :
  ctx -> name:string -> src:Qgate.Circuit.t -> dst:Qgate.Circuit.t -> unit
(** Peephole optimization ([handopt-pre] / [handopt-post]) preserves the
    unitary up to global phase. *)

val gdg_build : ctx -> name:string -> circuit:Qgate.Circuit.t ->
  gdg:Qgdg.Gdg.t -> unit
(** The GDG's topological linearization is word-congruent to the input
    stream ({!Reorder.dependence}). *)

val contraction : ctx -> before:Qgdg.Inst.t list -> gdg:Qgdg.Gdg.t -> unit
(** Diagonal contraction: the instructions after [detect] regroup the
    snapshot [before] (QC021), and every contracted block is proved
    diagonal in the computational basis (QC020). *)

val schedule : ctx -> name:string -> gdg:Qgdg.Gdg.t -> Qsched.Schedule.t ->
  unit
(** The schedule executes the GDG's own instructions in an order whose
    inversions against the GDG's qubit chains all carry commutation
    certificates ({!Reorder.schedule}). *)

val route : ctx -> initial:Qmap.Placement.t -> final:Qmap.Placement.t ->
  logical:Qgate.Gate.t list list ->
  routed:(Qgate.Gate.t list * int option) list -> unit
(** Routing replay over the routed block stream, each block paired with
    its instruction id when it has one ({!Route_check.replay}); a gate
    stream is a stream of singleton blocks. *)

val rebuild : ctx -> src:Qgate.Gate.t list -> gdg:Qgdg.Gdg.t -> unit
(** Rebuilding a GDG from the routed stream preserves the word under the
    dependence relation. *)

val aggregation : ctx -> width_limit:int -> before:Qgdg.Inst.t list ->
  gdg:Qgdg.Gdg.t -> unit
(** Aggregation: the instructions after [aggregate] regroup the snapshot
    [before] with certified reorderings (QC052) within [width_limit]
    (QC051); aggregates in the CNOT+diagonal fragment on at most 6 qubits
    additionally get a cross-domain unitary check (QC050). *)

val end_to_end_limit : int
(** Site-count bound for the dense whole-pipeline check (8). *)

val end_to_end : ctx -> n_sites:int -> initial:Qmap.Placement.t ->
  final:Qmap.Placement.t -> logical:Qgate.Circuit.t -> Qsched.Schedule.t ->
  unit
(** On registers of at most {!end_to_end_limit} sites, check
    U_routed · P_initial ≡ P_final · U_logical densely (QC060); wider
    registers record a skipped boundary (QC001). *)
