(** Routing replay certificates.

    The router's contract is syntactic: the routed stream must be the
    placed image of the logical stream with SWAP instructions
    interleaved, where each inserted SWAP updates the tracked placement.
    {!Qmap.Router.replay} walks the routed block stream against the
    logical one — the same walk the lint's QL042 reads — and acceptance
    proves the semantic claim U_routed · P_initial = P_final · U_logical
    by construction (each inserted SWAP is absorbed into the placement
    permutation — "SWAPs cancel"). Mismatches are QC040; a surviving
    placement mismatch is QC041; leftover logical blocks at the end are
    QC040; an exhausted backtracking budget is a skipped fact (QC001). *)

val replay :
  stage:string -> initial:Qmap.Placement.t -> final:Qmap.Placement.t ->
  logical:Qgate.Gate.t list list ->
  routed:(Qgate.Gate.t list * int option) list ->
  Certificate.outcome
(** Certify one routing boundary. [routed] pairs each block with its
    instruction id when it has one (instruction streams); a QC040
    mismatch is located by that id, or by the block's stream index on a
    gate stream. A proof counts one fact per routed block plus the final
    placement. *)
