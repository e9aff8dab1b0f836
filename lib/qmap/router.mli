(** SWAP-chain routing (paper §3.4.1).

    Two-qubit operations between non-neighboring sites are prepended with
    a sequence of SWAPs that walks one operand along a shortest path until
    the operands are adjacent. The router is generic over the item type so
    both plain gate streams and aggregated-instruction streams route
    through the same code. {!replay} checks a routed stream against this
    contract; it is the one routing check, read by the lint (QL042) and
    the certifier (QC040/QC041) alike. *)

val route :
  topology:Topology.t ->
  placement:Placement.t ->
  support:('a -> int list) ->
  remap:((int -> int) -> 'a -> 'a) ->
  make_swap:(int -> int -> 'a) ->
  'a list ->
  'a list * Placement.t
(** [route ~topology ~placement ~support ~remap ~make_swap items] returns
    the physical-site item stream (inserted swaps built by [make_swap] on
    site ids; items relabelled logical→site by [remap]) and the final
    placement. Items of support > 2 must already be site-local: the
    router raises [Invalid_argument] for non-adjacent supports wider than
    two qubits. *)

val route_circuit :
  ?placement:Placement.t -> topology:Topology.t -> Qgate.Circuit.t ->
  Qgate.Circuit.t * Placement.t
(** Route a plain circuit (default placement: {!Placement.initial}). The
    result's register is the device size; all 2-qubit gates are between
    adjacent sites. *)

val gate_respects_topology : topology:Topology.t -> Qgate.Gate.t -> bool
(** 2-qubit gates must join adjacent sites; wider gates must be
    site-local (pairwise adjacent); 1-qubit gates always pass. *)

type replay_error =
  | Mismatch of int
      (** the deepest routed block position no reading accounts for *)
  | Leftover of int  (** logical blocks left unexecuted at the end *)
  | Final_mismatch
      (** every routed block replayed, but the placement missed the
          reported final one *)
  | Out_of_fuel  (** the backtracking budget ran out *)

val replay :
  initial:Placement.t -> final:Placement.t ->
  logical:Qgate.Gate.t list list -> routed:Qgate.Gate.t list list ->
  (int, replay_error) result
(** The router's contract, checked: the routed block stream is the
    placed image of the logical block stream with inserted SWAPs
    interleaved, each SWAP updating the tracked placement from
    [initial], and the walk ends on [final]. A gate stream is a stream
    of singleton blocks. A program SWAP whose placed image coincides
    with an inserted SWAP is ambiguous; the replay backtracks over such
    choice points within a fixed budget. [Ok n] counts the routed
    blocks. A SWAP on a site outside the placement, or a logical qubit
    it does not hold, is a {!Mismatch}, never an exception; the
    placements themselves must be bijections. The lint (QL042) and the
    certifier (QC040/QC041) both read this result. *)
