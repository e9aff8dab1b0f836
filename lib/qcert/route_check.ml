module D = Qlint.Diagnostic

let replay ~stage ~initial ~final ~logical ~routed =
  let error ?(skipped = 0) ?(severity = D.Error) ~code ?insts ?gate_index m =
    Certificate.outcome ~method_:"replay" 0 ~skipped
      ~diags:[ D.make ~stage ?insts ?gate_index ~code ~severity m ]
  in
  match
    Qmap.Router.replay ~initial ~final ~logical ~routed:(List.map fst routed)
  with
  | Ok n ->
    (* every routed block syntactically accounted for, plus the final
       placement identity *)
    Certificate.outcome ~method_:"replay" (n + 1)
  | Error (Qmap.Router.Mismatch ri) ->
    let insts, gate_index =
      match List.nth_opt routed ri with
      | Some (_, Some id) -> (Some [ id ], None)
      | Some (_, None) -> (None, Some ri)
      | None -> (None, None)
    in
    error ~code:"QC040" ?insts ?gate_index
      (Printf.sprintf
         "routed stream diverges from the placed logical stream at position \
          %d" ri)
  | Error (Qmap.Router.Leftover n) ->
    error ~code:"QC040"
      (Printf.sprintf
         "routed stream ends with %d logical instructions unexecuted" n)
  | Error Qmap.Router.Final_mismatch ->
    error ~code:"QC041"
      "replayed placement does not reach the reported final placement"
  | Error Qmap.Router.Out_of_fuel ->
    error ~skipped:1 ~severity:D.Warning ~code:"QC001"
      "routing replay exceeded its backtracking budget"
