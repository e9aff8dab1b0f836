type t = { diagnostics : Diagnostic.t list }

exception Check_failed of t

let empty = { diagnostics = [] }

(* sort into report order, then drop exact duplicates — overlapping
   checkers (the front-door circuit lint and the first pipeline
   checkpoint, say) may report the same finding twice *)
let of_list ds =
  let sorted = List.stable_sort Diagnostic.compare ds in
  let rec dedup = function
    | a :: (b :: _ as rest) when Diagnostic.equal a b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  { diagnostics = dedup sorted }

let diagnostics r = r.diagnostics
let errors r = List.filter Diagnostic.is_error r.diagnostics
let has_errors r = List.exists Diagnostic.is_error r.diagnostics

let worst r =
  List.fold_left
    (fun acc (d : Diagnostic.t) ->
      match acc with
      | None -> Some d.Diagnostic.severity
      | Some s ->
        if
          Diagnostic.severity_rank d.Diagnostic.severity
          < Diagnostic.severity_rank s
        then Some d.Diagnostic.severity
        else acc)
    None r.diagnostics

let has_at_least threshold r =
  List.exists
    (fun (d : Diagnostic.t) ->
      Diagnostic.severity_rank d.Diagnostic.severity
      <= Diagnostic.severity_rank threshold)
    r.diagnostics

let counts r =
  List.fold_left
    (fun (e, w, i) (d : Diagnostic.t) ->
      match d.Diagnostic.severity with
      | Diagnostic.Error -> (e + 1, w, i)
      | Diagnostic.Warning -> (e, w + 1, i)
      | Diagnostic.Info -> (e, w, i + 1))
    (0, 0, 0) r.diagnostics

let summary r =
  let e, w, i = counts r in
  if e + w + i = 0 then "no diagnostics"
  else begin
    let part n what =
      if n = 0 then None
      else Some (Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s"))
    in
    String.concat ", "
      (List.filter_map
         (fun x -> x)
         [ part e "error"; part w "warning"; part i "info" ])
  end

let pp_text ppf r =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) r.diagnostics;
  Format.fprintf ppf "%s@." (summary r)

let to_json r =
  let module J = Qobs.Json in
  let e, w, i = counts r in
  J.to_string
    (J.Obj
       [ ("diagnostics", J.List (List.map Diagnostic.json r.diagnostics));
         ("errors", J.Int e);
         ("warnings", J.Int w);
         ("infos", J.Int i) ])

let pp_json ppf r = Format.fprintf ppf "%s@." (to_json r)

(* module-init registration, never re-run after load *)
let () =
  Printexc.register_printer (function
    | Check_failed r ->
      Some
        (Printf.sprintf "Qlint.Report.Check_failed (%s)" (summary r))
    | _ -> None)
  [@@domain_safety frozen_after_init]
