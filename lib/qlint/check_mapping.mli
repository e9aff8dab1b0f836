(** Mapping / routing legality (QL04x).

    - QL040 error: a 2-qubit physical gate joins non-adjacent sites (a
      wider gate is not site-local)
    - QL041 error: a placement is not a consistent logical↔site bijection
    - QL042 error: the routed stream does not replay the placed logical
      stream ({!Qmap.Router.replay}): a block that is neither a placed
      logical block nor a routing SWAP, logical blocks left over, or a
      final placement other than the initial one composed with the
      routing SWAPs
    - QL043 error: a site index outside the device *)

val check_placement :
  ?stage:string -> ?label:string -> topology:Qmap.Topology.t ->
  Qmap.Placement.t -> Diagnostic.t list
(** QL041/QL043 on one placement; [label] names it in messages
    ("initial", "final"). *)

(** The routed streams below are block streams: each block is the
    member gates of one instruction, paired with that instruction's id,
    or a single gate with no id when the router ran over a gate stream.
    A finding locates its block by instruction id when there is one,
    and by stream index otherwise. *)

val check_adjacency :
  ?stage:string -> topology:Qmap.Topology.t ->
  (Qgate.Gate.t list * int option) list -> Diagnostic.t list
(** QL040/QL043 on every member gate of a physical block stream. *)

val check_routing :
  ?stage:string ->
  initial:Qmap.Placement.t ->
  final:Qmap.Placement.t ->
  logical:Qgate.Gate.t list list ->
  (Qgate.Gate.t list * int option) list ->
  Diagnostic.t list
(** QL042 from {!Qmap.Router.replay}, the walk the certifier's QC040/
    QC041 also read: every routed block must be the current-placement
    image of the next logical block or a routing SWAP that updates the
    placement, and the walk must consume the whole logical stream and
    land exactly on [final]. Catches wrong relabelling, dropped or
    duplicated blocks, out-of-range sites and placement drift. An
    exhausted replay budget is not a finding here (the certifier
    records it as QC001). *)

val run :
  ?stage:string ->
  topology:Qmap.Topology.t ->
  initial:Qmap.Placement.t ->
  final:Qmap.Placement.t ->
  logical:Qgate.Gate.t list list ->
  (Qgate.Gate.t list * int option) list ->
  Diagnostic.t list
(** The routing boundary: both placements' consistency, adjacency over
    the routed stream, and the routing replay — which runs only when
    both placements are consistent, since it walks bijections. *)
