module Gate = Qgate.Gate

let route ~topology ~placement ~support ~remap ~make_swap items =
  let placement = ref placement in
  let out = ref [] in
  let emit x = out := x :: !out in
  let emit_swap x =
    Qobs.Metrics.tick "route.swaps";
    emit x
  in
  let adjacentize a_site b_site =
    (* walk the occupant of [a_site] along a shortest path towards
       [b_site], emitting SWAPs, until the two are neighbors; returns the
       final site of the walked qubit *)
    let rec go a_site =
      if Topology.connected topology a_site b_site then a_site
      else begin
        match Topology.path topology a_site b_site with
        | _ :: next :: _ ->
          emit_swap (make_swap a_site next);
          placement := Placement.apply_swap !placement a_site next;
          go next
        | _ -> raise Not_found
      end
    in
    go a_site
  in
  List.iter
    (fun item ->
      Qobs.Metrics.tick "route.instructions";
      let logical_support = support item in
      (match logical_support with
       | [] | [ _ ] -> ()
       | [ a; b ] ->
         let sa = Placement.site_of !placement a
         and sb = Placement.site_of !placement b in
         if not (Topology.connected topology sa sb) then
           ignore (adjacentize sa sb)
       | wider ->
         let sites = List.map (Placement.site_of !placement) wider in
         let rec all_pairs_adjacent = function
           | [] -> true
           | s :: rest ->
             List.for_all (fun r -> Topology.connected topology s r) rest
             && all_pairs_adjacent rest
         in
         if not (all_pairs_adjacent sites) then
           invalid_arg
             "Router.route: instruction wider than 2 qubits is not site-local");
      let p = !placement in
      emit (remap (fun logical -> Placement.site_of p logical) item))
    items;
  (List.rev !out, !placement)

let route_circuit ?placement ~topology circuit =
  let placement =
    match placement with
    | Some p -> p
    | None -> Placement.initial topology circuit
  in
  let items, final =
    route ~topology ~placement ~support:Gate.qubits
      ~remap:Gate.map_qubits
      ~make_swap:(fun a b -> Gate.swap a b)
      (Qgate.Circuit.gates circuit)
  in
  (Qgate.Circuit.make (Topology.n_sites topology) items, final)

let gate_respects_topology ~topology g =
  match Gate.qubits g with
  | [] | [ _ ] -> true
  | [ a; b ] -> Topology.connected topology a b
  | wider ->
    let rec ok = function
      | [] -> true
      | s :: rest ->
        List.for_all (fun r -> Topology.connected topology s r) rest && ok rest
    in
    ok wider

type replay_error =
  | Mismatch of int
  | Leftover of int
  | Final_mismatch
  | Out_of_fuel

(* one routed block is either the placed image of the next logical block
   or an inserted swap of two sites; the walk maintains the placement and
   backtracks on ambiguity (a program SWAP whose image coincides with an
   inserted one), bounded by its fuel. A block naming a qubit or site the
   placement does not hold fits neither reading, so it is a mismatch. *)
let replay ~initial ~final ~logical ~routed =
  let logical = Array.of_list logical and routed = Array.of_list routed in
  let nl = Array.length logical and nr = Array.length routed in
  let fuel = ref 500_000 in
  let deepest = ref 0 in
  let saw_final_mismatch = ref false in
  let is_image p block r =
    let n = Array.length p.Placement.logical_to_site in
    let holds g = List.for_all (fun q -> q >= 0 && q < n) g.Gate.qubits in
    List.for_all holds block
    && List.equal Gate.equal
         (List.map (Gate.map_qubits (Placement.site_of p)) block)
         r
  in
  let as_swap p block =
    let n = Array.length p.Placement.site_to_logical in
    match block with
    | [ { Gate.kind = Gate.Swap; qubits = [ a; b ] } ]
      when a >= 0 && a < n && b >= 0 && b < n ->
      Some (a, b)
    | _ -> None
  in
  let rec go p li ri =
    if !fuel <= 0 then `Out_of_fuel
    else begin
      decr fuel;
      if ri > !deepest then deepest := ri;
      if ri = nr then begin
        if li < nl then `Leftover li
        else if Placement.equal p final then `Ok
        else begin
          saw_final_mismatch := true;
          `Final_mismatch
        end
      end
      else begin
        let r = routed.(ri) in
        match
          if li < nl && is_image p logical.(li) r then go p (li + 1) (ri + 1)
          else `Mismatch ri
        with
        | (`Ok | `Out_of_fuel) as v -> v
        | _ -> (
          (* either not the next logical block's image, or that reading
             dead-ends later: try it as an inserted swap *)
          match as_swap p r with
          | Some (a, b) -> go (Placement.apply_swap p a b) li (ri + 1)
          | None -> `Mismatch ri)
      end
    end
  in
  match go initial 0 0 with
  | `Ok -> Ok nr
  | `Final_mismatch -> Error Final_mismatch
  | `Mismatch _ when !saw_final_mismatch ->
    (* some branch consumed every routed block and still missed the
       reported final placement: the sharper diagnosis *)
    Error Final_mismatch
  | `Mismatch ri -> Error (Mismatch (max ri !deepest))
  | `Leftover li -> Error (Leftover (nl - li))
  | `Out_of_fuel -> Error Out_of_fuel
