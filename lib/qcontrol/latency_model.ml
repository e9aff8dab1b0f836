open Qnum
module Gate = Qgate.Gate

(* All five memos (per-gate-kind, per-segment-shape and per-block-shape
   costs, per-2-qubit-shape Weyl coordinates, canonical gates per
   coordinates) live in one per-domain slot: every entry is a pure
   function of its key, so per-domain re-warming keeps costs
   deterministic while no write can race. *)
type memo_state = {
  gate : (Device.t * Gate.kind, float) Hashtbl.t;
  segment : (Device.t * string, float) Hashtbl.t;
  block : (Device.t * int * string, float) Hashtbl.t;
  coords : (string, Weyl.coords) Hashtbl.t;
  canonical : (Weyl.coords, Cmat.t) Hashtbl.t;
}

let memos =
  Qobs.Domain_safe.Local.make (fun () ->
      { gate = Hashtbl.create 64;
        segment = Hashtbl.create 1024;
        block = Hashtbl.create 256;
        coords = Hashtbl.create 256;
        canonical = Hashtbl.create 64 })
  [@@domain_safety domain_local]

(* idempotent; clears the calling domain's tables only *)
let reset_memos () =
  let m = Qobs.Domain_safe.Local.get memos in
  Hashtbl.reset m.gate;
  Hashtbl.reset m.segment;
  Hashtbl.reset m.block;
  Hashtbl.reset m.coords;
  Hashtbl.reset m.canonical

let one_qubit_unitary_time device u =
  if Cmat.rows u <> 2 || Cmat.cols u <> 2 then
    invalid_arg "Latency_model.one_qubit_unitary_time: expected 2x2";
  let half_trace = Cx.abs (Cmat.trace u) /. 2. in
  let theta = 2. *. Float.acos (Float.min 1. half_trace) in
  Device.one_qubit_rotation_time device theta

(* factor a product-state 4x4 unitary U = A ⊗ B (up to phase) *)
let local_factors u =
  let block i j =
    Cmat.init 2 2 (fun r s -> Cmat.get u ((2 * i) + r) ((2 * j) + s))
  in
  (* pick the block with the largest norm as a reference copy of B *)
  let best = ref (0, 0) and best_norm = ref (-1.) in
  for i = 0 to 1 do
    for j = 0 to 1 do
      let n = Cmat.frobenius_norm (block i j) in
      if n > !best_norm then begin
        best_norm := n;
        best := (i, j)
      end
    done
  done;
  let bi, bj = !best in
  let b_raw = block bi bj in
  (* unitarize: B = b_raw / sqrt(det) has unit determinant up to phase *)
  let scale = Cx.sqrt (Cmat.det b_raw) in
  let b = Cmat.scale (Cx.inv scale) b_raw in
  let a =
    Cmat.init 2 2 (fun i j ->
        Cx.scale 0.5 (Cmat.trace (Cmat.mul (Cmat.dagger b) (block i j))))
  in
  (a, b)

(* CAN(c), memoized by the coordinates ([memos].canonical): many 2-qubit
   shapes share a class, and each miss is a matrix exponential *)
let canonical_gate c =
  let canonical_memo = (Qobs.Domain_safe.Local.get memos).canonical in
  match Hashtbl.find_opt canonical_memo c with
  | Some g -> g
  | None ->
    let g = Weyl.canonical_gate c in
    Hashtbl.replace canonical_memo c g;
    g

(* [c] is [u]'s Weyl coordinates *)
let two_qubit_time device u c =
  let t_int = Weyl.interaction_time device c in
  if t_int <= 1e-9 then begin
    (* purely local content: both 1-qubit factors run in parallel *)
    let a, b = local_factors u in
    Float.max
      (one_qubit_unitary_time device a)
      (one_qubit_unitary_time device b)
  end
  else begin
    let half = Device.half_layer_time device in
    (* diagonal blocks pay basis-change conjugation on both sides; a block
       that is already a native canonical interaction needs no local
       layers; anything else pays one merged local layer (neighboring
       1-qubit gates are absorbed into it), anchoring CNOT at 47.1 ns *)
    let layers =
      if Cmat.is_diagonal ~eps:1e-9 u then
        match device.Device.interaction with Device.Zz -> 0. | _ -> 2.
      else if Cmat.equal_up_to_phase ~eps:1e-7 u (canonical_gate c) then
        match device.Device.interaction with
        | Device.Xy -> 0.
        | Device.Zz -> 2.
        | Device.Heisenberg -> 1.
      else 1.
    in
    t_int +. (layers *. half)
  end

let two_qubit_unitary_time device u =
  two_qubit_time device u (Weyl.coordinates u)

let rec gate_time device g =
  Qobs.Metrics.tick "latency_model.gate_queries";
  let kind = g.Gate.kind in
  let gate_memo = (Qobs.Domain_safe.Local.get memos).gate in
  match Hashtbl.find_opt gate_memo (device, kind) with
  | Some t -> t
  | None ->
    let t1 theta = Device.one_qubit_rotation_time device theta in
    let half = Device.half_layer_time device in
    let two_q extra_layers =
      let u = Qgate.Unitary.of_kind kind in
      let t_int = Weyl.interaction_time device (Weyl.coordinates u) in
      t_int +. (extra_layers *. half)
    in
    (* local-layer counts per architecture: a gate aligned with the native
       coupling direction needs none (iSWAP on XY, CPhase on ZZ, SWAP on
       Heisenberg); basis-changed realizations pay one or two pi/2 layers,
       calibrated on XY against the paper's Table 1 *)
    let two_q_layers =
      match (device.Device.interaction, kind) with
      | Device.Xy, (Gate.Cnot | Gate.Cz | Gate.Cphase _) -> 1.
      | Device.Xy, (Gate.Swap | Gate.Iswap | Gate.Sqrt_iswap) -> 0.
      | Device.Zz, (Gate.Cz | Gate.Cphase _ | Gate.Rzz _) -> 0.
      | Device.Zz, Gate.Cnot -> 1.
      | Device.Zz, (Gate.Swap | Gate.Iswap | Gate.Sqrt_iswap) -> 1.
      | Device.Heisenberg, (Gate.Swap | Gate.Sqrt_iswap) -> 0.
      | Device.Heisenberg, (Gate.Cnot | Gate.Cz | Gate.Cphase _ | Gate.Iswap)
        ->
        1.
      | _, (Gate.Rxx _ | Gate.Ryy _ | Gate.Rzz _) -> 2.
      | _, _ -> 1.
    in
    let t =
      match kind with
      | Gate.I -> 0.
      | Gate.X | Gate.Y | Gate.Z | Gate.H -> t1 Float.pi
      | Gate.S | Gate.Sdg -> t1 (Float.pi /. 2.)
      | Gate.T | Gate.Tdg -> t1 (Float.pi /. 4.)
      | Gate.Rx theta | Gate.Ry theta | Gate.Rz theta | Gate.Phase theta ->
        t1 theta
      | Gate.Cnot | Gate.Cz | Gate.Cphase _ | Gate.Swap | Gate.Iswap
      | Gate.Sqrt_iswap | Gate.Rxx _ | Gate.Ryy _ | Gate.Rzz _ ->
        two_q two_q_layers
      | Gate.Ccx -> isa_critical_path device (Qgate.Decompose.ccx 0 1 2)
    in
    Hashtbl.replace gate_memo (device, kind) t;
    t

and isa_critical_path device gates =
  let ready : (int, float) Hashtbl.t = Hashtbl.create 16 in
  List.fold_left
    (fun acc g ->
      let qs = Gate.qubits g in
      let start =
        List.fold_left
          (fun m q -> Float.max m (Option.value ~default:0. (Hashtbl.find_opt ready q)))
          0. qs
      in
      let finish = start +. gate_time device g in
      List.iter (fun q -> Hashtbl.replace ready q finish) qs;
      Float.max acc finish)
    0. gates

(* the qubits a block touches, ascending and without repeats *)
let support_of gates =
  Array.of_list (List.sort_uniq Int.compare (List.concat_map Gate.qubits gates))

(* a block qubit's label: its index in the block's [support] *)
let label support q =
  let lo = ref 0 and hi = ref (Array.length support - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if support.(mid) < q then lo := mid + 1 else hi := mid
  done;
  !lo

(* split a block into maximal runs confined to one qubit (pair); a run is
   closed as soon as one of its qubits is coupled elsewhere. Runs are
   numbered in creation order and tracked by the labels of their qubits;
   each comes back with those labels, ascending. *)
let segments_on support gates =
  let n = List.length gates in
  let owner = Array.make (Array.length support) (-1) in
  let members = Array.make n [] and labels = Array.make n [] in
  let alive = Array.make n false in
  let next = ref 0 in
  let close id =
    List.iter (fun l -> if owner.(l) = id then owner.(l) <- -1) labels.(id)
  in
  let open_run gs ls =
    let id = !next in
    incr next;
    members.(id) <- gs;
    labels.(id) <- ls;
    alive.(id) <- true;
    List.iter (fun l -> owner.(l) <- id) ls;
    id
  in
  List.iter
    (fun g ->
      let ls = List.map (label support) (Gate.qubits g) in
      let wide = List.length ls > 2 in
      (* a wider-than-pair gate is its own run, closed immediately *)
      let fresh () =
        let id = open_run [ g ] ls in
        if wide then close id
      in
      let owners =
        List.sort_uniq Int.compare
          (List.filter_map
             (fun l -> if owner.(l) < 0 then None else Some owner.(l))
             ls)
      in
      match owners with
      | [] -> fresh ()
      | [ id ] ->
        let union = List.sort_uniq Int.compare (ls @ labels.(id)) in
        if List.length union <= 2 && not wide then begin
          members.(id) <- g :: members.(id);
          labels.(id) <- union;
          List.iter (fun l -> owner.(l) <- id) ls
        end
        else begin
          close id;
          fresh ()
        end
      | _ :: _ :: _ ->
        let union =
          List.sort_uniq Int.compare
            (ls @ List.concat_map (fun id -> labels.(id)) owners)
        in
        List.iter close owners;
        if List.length union <= 2 then begin
          (* merge (only possible when joining two 1-qubit runs) *)
          let all = List.concat_map (fun id -> List.rev members.(id)) owners in
          List.iter (fun id -> alive.(id) <- false) owners;
          ignore (open_run (g :: List.rev all) union)
        end
        else fresh ())
    gates;
  List.filter_map
    (fun id ->
      if alive.(id) then
        Some
          ( List.rev members.(id),
            Array.of_list (List.sort_uniq Int.compare labels.(id)) )
      else None)
    (List.init !next Fun.id)

let segments gates = List.map fst (segments_on (support_of gates) gates)

(* calibrated against the paper's Fig. 10: serialized applications keep
   gaining until the 10-qubit control limit, with critical-path
   instructions optimized to ~0.2-0.3 of their gate-based time *)
let width_discount k = Float.max 0.25 (1.4 /. float_of_int k)

(* order-preserving relabelling of a block onto 0..k-1, encoded as a
   content-addressed key ({!Gate.add_key}): every cost below depends only
   on the relative qubit pattern, so congruent blocks on different wires
   share entries. Float parameters are keyed by their exact bit
   patterns. The local index is the qubit's {!label}. *)
let block_shape support gates =
  let key = Buffer.create 64 in
  List.iter (Gate.add_key key ~qubit:(label support)) gates;
  Buffer.contents key

(* Weyl coordinates of a 2-qubit shape's composed unitary [u ()],
   memoized by the shape alone ([memos].coords): they do not depend on
   the device, and the decomposition is by far the most expensive step
   of a block-cost query, asked for by both a 2-qubit block and every
   2-qubit segment of a wider one *)
let shape_coords shape u =
  let coords_memo = (Qobs.Domain_safe.Local.get memos).coords in
  match Hashtbl.find_opt coords_memo shape with
  | Some c -> c
  | None ->
    let c = Weyl.coordinates (u ()) in
    Hashtbl.replace coords_memo shape c;
    c

(* irreducible time of a <=2-qubit segment: the Weyl interaction time of
   its composed unitary (2q) or the geodesic rotation time (1q) — what no
   pulse optimizer can undercut on that segment's qubits. Memoized by
   relabelled shape ([memos].segment), since segment shapes recur
   constantly. [support] and [shape] are the segment's {!support_of} and
   {!block_shape}. *)
let segment_irreducible device seg support shape =
  let segment_memo = (Qobs.Domain_safe.Local.get memos).segment in
  let key = (device, shape) in
  match Hashtbl.find_opt segment_memo key with
  | Some t -> t
  | None ->
    let t =
      match Array.length support with
      | 1 ->
        let _, u = Qgate.Unitary.on_support seg in
        one_qubit_unitary_time device u
      | 2 ->
        Weyl.interaction_time device
          (shape_coords shape (fun () -> snd (Qgate.Unitary.on_support seg)))
      | _ -> isa_critical_path device seg
    in
    Hashtbl.replace segment_memo key t;
    t

(* whole-block costs, the analogue of the gate memo for aggregates,
   under the same relabelled {!block_shape} key ([memos].block) *)
let rec block_time ?(width_limit = 10) device gates =
  if gates = [] then invalid_arg "Latency_model.block_time: empty block";
  let support = support_of gates in
  shaped_block_time ~width_limit device gates support
    (block_shape support gates)

(* [block_time] of a block whose {!support_of} and {!block_shape} are
   already known: a wider block computes both once per segment *)
and shaped_block_time ~width_limit device gates support shape =
  Qobs.Metrics.tick "latency_model.block_queries";
  let block_memo = (Qobs.Domain_safe.Local.get memos).block in
  let key = (device, width_limit, shape) in
  match Hashtbl.find_opt block_memo key with
  | Some t ->
    Qobs.Metrics.tick "latency_model.block_memo_hits";
    t
  | None ->
    let t = block_time_uncached ~width_limit device gates support shape in
    Hashtbl.replace block_memo key t;
    t

and block_time_uncached ~width_limit device gates support shape =
  let k = Array.length support in
  let isa = isa_critical_path device gates in
  if k > width_limit then isa
  else if k = 1 then begin
    let _, u = Qgate.Unitary.on_support gates in
    Float.min isa (one_qubit_unitary_time device u)
  end
  else if k = 2 then begin
    let _, u = Qgate.Unitary.on_support gates in
    Float.min isa (two_qubit_time device u (shape_coords shape (fun () -> u)))
  end
  else begin
    let costed =
      List.map
        (fun (seg, labels) ->
          let seg_support = Array.map (Array.get support) labels in
          let shape = block_shape seg_support seg in
          ( seg, seg_support, labels, shape,
            shaped_block_time ~width_limit device seg seg_support shape ))
        (segments_on support gates)
    in
    (* makespan over segments with per-qubit availability *)
    let ready = Array.make k 0. in
    let makespan =
      List.fold_left
        (fun acc (_, _, labels, _, cost) ->
          let start =
            Array.fold_left (fun m l -> Float.max m ready.(l)) 0. labels
          in
          let finish = start +. cost in
          Array.iter (fun l -> ready.(l) <- finish) labels;
          Float.max acc finish)
        0. costed
    in
    let hardest =
      List.fold_left (fun m (_, _, _, _, c) -> Float.max m c) 0. costed
    in
    (* per-qubit busy bound: a qubit cannot spend less than the sum of the
       irreducible interaction times of its segments — this keeps the
       width discount from crediting already-parallel content (the
       paper's Fig. 10 saturation for parallel applications) *)
    let busy = Array.make k 0. in
    List.iter
      (fun (seg, seg_support, labels, shape, cost) ->
        (* a segment's share of its qubits' time cannot drop below its
           interaction content, nor below 3/4 of its own optimized pulse
           (cross-segment co-optimization recovers at most the local-layer
           slack, calibrated against the paper's Fig. 10 saturation) *)
        let share =
          Float.max
            (segment_irreducible device seg seg_support shape)
            (0.75 *. cost)
        in
        Array.iter (fun l -> busy.(l) <- busy.(l) +. share) labels)
      costed;
    let busiest = Array.fold_left Float.max 0. busy in
    Float.min isa
      (Float.max busiest (Float.max hardest (width_discount k *. makespan)))
  end
