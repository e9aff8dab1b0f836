module Gate = Qgate.Gate
module Topology = Qmap.Topology
module Placement = Qmap.Placement
module D = Diagnostic

let check_placement ?stage ?(label = "placement") ~topology p =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n_sites = Topology.n_sites topology in
  if Array.length p.Placement.site_to_logical <> n_sites then
    add
      (D.make ?stage ~code:"QL043" ~severity:D.Error
         (Printf.sprintf
            "%s covers %d sites but the device has %d" label
            (Array.length p.Placement.site_to_logical)
            n_sites));
  Array.iteri
    (fun logical site ->
      if site < 0 || site >= Array.length p.Placement.site_to_logical then
        add
          (D.make ?stage ~qubits:[ site ] ~code:"QL043" ~severity:D.Error
             (Printf.sprintf "%s sends logical qubit %d to site %d, outside \
                              the device"
                label logical site))
      else if p.Placement.site_to_logical.(site) <> logical then
        add
          (D.make ?stage ~qubits:[ site ] ~code:"QL041" ~severity:D.Error
             (Printf.sprintf
                "%s is not a bijection: logical qubit %d maps to site %d, \
                 which records occupant %d"
                label logical site
                p.Placement.site_to_logical.(site))))
    p.Placement.logical_to_site;
  (* the reverse direction: a recorded occupant must be placed there *)
  let placed l site =
    l >= 0
    && l < Array.length p.Placement.logical_to_site
    && p.Placement.logical_to_site.(l) = site
  in
  Array.iteri
    (fun site l ->
      if l <> -1 && not (placed l site) then
        add
          (D.make ?stage ~qubits:[ site ] ~code:"QL041" ~severity:D.Error
             (Printf.sprintf "%s is not a bijection: site %d records \
                              occupant %d, which is not placed there"
                label site l)))
    p.Placement.site_to_logical;
  List.rev !diags

(* a finding on routed block [index], located by its instruction id when
   it has one and by its gate-stream index otherwise *)
let block_error ?stage ?(qubits = []) ~code index id fmt =
  Printf.ksprintf
    (fun m ->
      match id with
      | Some id ->
        D.make ?stage ~insts:[ id ] ~qubits ~code ~severity:D.Error
          (Printf.sprintf "instruction %d: %s" id m)
      | None ->
        D.make ?stage ~gate_index:index ~qubits ~code ~severity:D.Error
          (Printf.sprintf "gate %d: %s" index m))
    fmt

let check_adjacency ?stage ~topology blocks =
  let n_sites = Topology.n_sites topology in
  List.concat
    (List.mapi
       (fun index (gates, id) ->
         List.filter_map
           (fun g ->
             let qubits = Gate.qubits g in
             match List.filter (fun q -> q < 0 || q >= n_sites) qubits with
             | _ :: _ as bad ->
               Some
                 (block_error ?stage ~qubits:bad ~code:"QL043" index id
                    "%s touches a site outside the %d-site device"
                    (Gate.to_string g) n_sites)
             | [] when Qmap.Router.gate_respects_topology ~topology g -> None
             | [] ->
               Some
                 (block_error ?stage ~qubits ~code:"QL040" index id
                    "%s acts on non-adjacent sites" (Gate.to_string g)))
           gates)
       blocks)

let check_routing ?stage ~initial ~final ~logical routed =
  let err m = [ D.make ?stage ~code:"QL042" ~severity:D.Error m ] in
  match
    Qmap.Router.replay ~initial ~final ~logical ~routed:(List.map fst routed)
  with
  | Ok _ | Error Qmap.Router.Out_of_fuel ->
    (* an exhausted budget proves nothing either way; the certifier
       records it as QC001 *)
    []
  | Error (Qmap.Router.Mismatch index) ->
    (match List.nth_opt routed index with
     | Some (_, id) ->
       [ block_error ?stage ~code:"QL042" index id
           "neither the placed image of the next logical block nor a \
            routing SWAP" ]
     | None -> err "the routed stream diverges at its end")
  | Error (Qmap.Router.Leftover n) ->
    err
      (Printf.sprintf "the routed stream ends with %d logical block%s unrouted"
         n (if n = 1 then "" else "s"))
  | Error Qmap.Router.Final_mismatch ->
    err "final placement disagrees with initial ∘ routing SWAPs"

let run ?stage ~topology ~initial ~final ~logical routed =
  let placements =
    check_placement ?stage ~label:"initial placement" ~topology initial
    @ check_placement ?stage ~label:"final placement" ~topology final
  in
  placements
  @ check_adjacency ?stage ~topology routed
  @
  (* the replay walks bijective placements only *)
  if placements = [] then check_routing ?stage ~initial ~final ~logical routed
  else []
