let schema = "qcc.stats/1"

type pass_stat = {
  pass : string;
  calls : int;
  wall_ns : float;
  minor_words : float;
  major_words : float;
  major_collections : int;
}

type t = {
  rows : int;
  skipped : int;
  compile_time_s : float;
  cache_hits : int;
  cache_misses : int;
  passes : pass_stat list;  (* wall time descending, then name *)
  routes : (string * int) list;  (* sorted by metric name *)
  commute_checks : int;
  detect_checks : int;
  domains : (int * int) list;  (* domain id -> rows, sorted by id *)
  agg_phases : (string * float) list;  (* sorted by metric name *)
  agg_span_ms : float;
}

(* ---- row field access ---- *)

let str_mem k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let num_mem k j =
  match Json.member k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int n) -> Some (float_of_int n)
  | _ -> None

let int_mem k j =
  match Json.member k j with Some (Json.Int n) -> Some n | _ -> None

let has_prefix p name =
  String.length name > String.length p && String.sub name 0 (String.length p) = p

let is_route name =
  has_prefix "commute.route." name || has_prefix "detect.route." name

let is_agg_phase = has_prefix "agg.phase."

let of_rows rows =
  let passes = Hashtbl.create 32 in
  let routes = Hashtbl.create 16 in
  let domains = Hashtbl.create 8 in
  let n = ref 0 and skipped = ref 0 in
  let compile_time = ref 0. in
  let hits = ref 0 and misses = ref 0 in
  let checks = ref 0 in
  let detect_checks = ref 0 in
  let phases = Hashtbl.create 8 and phase_span_ms = ref 0. in
  List.iter
    (fun row ->
      if str_mem "schema" row <> Some "qcc.ledger/1" then incr skipped
      else begin
        incr n;
        (match int_mem "domain" row with
         | Some d ->
           Hashtbl.replace domains d
             (1 + Option.value ~default:0 (Hashtbl.find_opt domains d))
         | None -> ());
        compile_time :=
          !compile_time +. Option.value ~default:0. (num_mem "compile_time_s" row);
        (match Json.member "cache" row with
         | Some cache ->
           hits := !hits + Option.value ~default:0 (int_mem "hits" cache);
           misses := !misses + Option.value ~default:0 (int_mem "misses" cache)
         | None -> ());
        (match Json.member "passes" row with
         | Some (Json.List prs) ->
           List.iter
             (fun pr ->
               match str_mem "pass" pr with
               | None -> ()
               | Some name ->
                 let prev =
                   match Hashtbl.find_opt passes name with
                   | Some p -> p
                   | None ->
                     { pass = name; calls = 0; wall_ns = 0.; minor_words = 0.;
                       major_words = 0.; major_collections = 0 }
                 in
                 Hashtbl.replace passes name
                   { prev with
                     calls = prev.calls + 1;
                     wall_ns =
                       prev.wall_ns
                       +. Option.value ~default:0. (num_mem "wall_ns" pr);
                     minor_words =
                       prev.minor_words
                       +. Option.value ~default:0. (num_mem "minor_words" pr);
                     major_words =
                       prev.major_words
                       +. Option.value ~default:0. (num_mem "major_words" pr);
                     major_collections =
                       prev.major_collections
                       + Option.value ~default:0 (int_mem "major_collections" pr)
                   })
             prs
         | _ -> ());
        match Json.member "metrics" row with
        | Some (Json.Obj fields) ->
          (* the phases partition this row's aggregate pass span *)
          if List.exists (fun (name, _) -> is_agg_phase name) fields then
            (match Json.member "passes" row with
             | Some (Json.List prs) ->
               List.iter
                 (fun pr ->
                   if str_mem "pass" pr = Some "aggregate" then
                     phase_span_ms :=
                       !phase_span_ms
                       +. (Option.value ~default:0. (num_mem "wall_ns" pr) /. 1e6))
                 prs
             | _ -> ());
          List.iter
            (fun (name, v) ->
              match v with
              | Json.Obj _ when is_agg_phase name ->
                Hashtbl.replace phases name
                  (Option.value ~default:0. (num_mem "sum" v)
                   +. Option.value ~default:0. (Hashtbl.find_opt phases name))
              | Json.Int count when is_route name ->
                Hashtbl.replace routes name
                  (count
                   + Option.value ~default:0 (Hashtbl.find_opt routes name))
              | Json.Int count when name = "commute.checks" ->
                checks := !checks + count
              | Json.Int count when name = "detect.checks" ->
                detect_checks := !detect_checks + count
              | _ -> ())
            fields
        | _ -> ()
      end)
    rows;
  { rows = !n;
    skipped = !skipped;
    compile_time_s = !compile_time;
    cache_hits = !hits;
    cache_misses = !misses;
    passes =
      List.sort
        (fun a b ->
          match compare b.wall_ns a.wall_ns with
          | 0 -> compare a.pass b.pass
          | c -> c)
        (Hashtbl.fold (fun _ p acc -> p :: acc) passes []);
    routes =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) routes []);
    commute_checks = !checks;
    detect_checks = !detect_checks;
    domains =
      List.sort compare
        (Hashtbl.fold (fun d c acc -> (d, c) :: acc) domains []);
    agg_phases =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) phases []);
    agg_span_ms = !phase_span_ms }

let route_sum t family =
  let prefix = family ^ ".route." in
  List.fold_left
    (fun acc (name, count) ->
      if has_prefix prefix name then acc + count else acc)
    0 t.routes

let agg_phase_sum t = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. t.agg_phases

(* the phases are timed inside the pass, so the span exceeds their sum
   by the pass wrapper's own work: a few microseconds a compile *)
let agg_phases_partition t =
  Float.abs (agg_phase_sum t -. t.agg_span_ms) <= 0.5 +. (0.01 *. t.agg_span_ms)

let hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0. else float_of_int t.cache_hits /. float_of_int total

let pass_json p =
  Json.Obj
    [ ("pass", Json.Str p.pass);
      ("calls", Json.Int p.calls);
      ("wall_ns", Json.Float p.wall_ns);
      ("minor_words", Json.Float p.minor_words);
      ("major_words", Json.Float p.major_words);
      ("major_collections", Json.Int p.major_collections) ]

let body_json t =
  [ ("rows", Json.Int t.rows);
    ("skipped", Json.Int t.skipped);
    ("compile_time_s", Json.Float t.compile_time_s);
    ("cache",
     Json.Obj
       [ ("hits", Json.Int t.cache_hits);
         ("misses", Json.Int t.cache_misses);
         ("hit_rate", Json.Float (hit_rate t)) ]);
    ("passes", Json.List (List.map pass_json t.passes));
    ("routes", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.routes));
    ("commute_checks", Json.Int t.commute_checks);
    ("detect_checks", Json.Int t.detect_checks);
    ("domains",
     Json.Obj
       (List.map (fun (d, c) -> (string_of_int d, Json.Int c)) t.domains));
    ("agg_phases",
     Json.Obj (List.map (fun (k, ms) -> (k, Json.Float ms)) t.agg_phases));
    ("agg_span_ms", Json.Float t.agg_span_ms) ]

let to_json t =
  Json.Obj (("schema", Json.Str schema) :: ("mode", Json.Str "aggregate")
            :: body_json t)

let pp_text ?(top = 10) ppf t =
  Format.fprintf ppf "rows        %d%s@." t.rows
    (if t.skipped > 0 then Printf.sprintf "  (%d skipped)" t.skipped else "");
  Format.fprintf ppf "compile     %.3f s total@." t.compile_time_s;
  Format.fprintf ppf "cache       %d hits / %d misses (%.0f%% hit rate)@."
    t.cache_hits t.cache_misses (100. *. hit_rate t);
  if t.domains <> [] then
    Format.fprintf ppf "domains     %d (%s)@." (List.length t.domains)
      (String.concat ", "
         (List.map
            (fun (d, c) -> Printf.sprintf "d%d: %d rows" d c)
            t.domains));
  if t.passes <> [] then begin
    Format.fprintf ppf "@.%-26s %9s %12s %12s %12s@." "pass (top by wall)"
      "calls" "wall ms" "minor kw" "major kw";
    List.iteri
      (fun i p ->
        if i < top then
          Format.fprintf ppf "%-26s %9d %12.3f %12.1f %12.1f@." p.pass p.calls
            (p.wall_ns /. 1e6) (p.minor_words /. 1e3) (p.major_words /. 1e3))
      t.passes
  end;
  if t.routes <> [] then begin
    Format.fprintf ppf "@.%-26s %9s@." "commutation route" "decisions";
    List.iter
      (fun (name, count) -> Format.fprintf ppf "%-26s %9d@." name count)
      t.routes;
    let checks family n =
      Format.fprintf ppf "%-26s %9d@." (family ^ ".checks") n;
      let routed = route_sum t family in
      if routed <> n then
        Format.fprintf ppf
          "WARNING     %s.route.* sums to %d, not %s.checks %d — route \
           partition violated@."
          family routed family n
    in
    checks "commute" t.commute_checks;
    if t.detect_checks > 0 then checks "detect" t.detect_checks
  end;
  if t.agg_phases <> [] then begin
    Format.fprintf ppf "@.%-26s %12s@." "aggregate phase" "ms";
    List.iter
      (fun (name, ms) -> Format.fprintf ppf "%-26s %12.3f@." name ms)
      t.agg_phases;
    Format.fprintf ppf "%-26s %12.3f  (aggregate pass %.3f)@." "agg.phase sum"
      (agg_phase_sum t) t.agg_span_ms;
    if not (agg_phases_partition t) then
      Format.fprintf ppf
        "WARNING     agg.phase.* sums to %.3f ms, not the aggregate pass \
         span %.3f ms — phase partition violated@."
        (agg_phase_sum t) t.agg_span_ms
  end

(* ---- diff ---- *)

type diff_entry = {
  name : string;
  base_ns : float;
  cur_ns : float;
}

type diff = {
  base : t;
  cur : t;
  delta : diff_entry list;  (* by |cur - base| descending *)
}

let diff ~base ~cur =
  let tbl = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.replace tbl p.pass (p.wall_ns, 0.)) base.passes;
  List.iter
    (fun p ->
      let b = match Hashtbl.find_opt tbl p.pass with
        | Some (b, _) -> b
        | None -> 0.
      in
      Hashtbl.replace tbl p.pass (b, p.wall_ns))
    cur.passes;
  let delta =
    Hashtbl.fold
      (fun name (base_ns, cur_ns) acc -> { name; base_ns; cur_ns } :: acc)
      tbl []
    |> List.sort (fun a b ->
           match
             compare
               (Float.abs (b.cur_ns -. b.base_ns))
               (Float.abs (a.cur_ns -. a.base_ns))
           with
           | 0 -> compare a.name b.name
           | c -> c)
  in
  { base; cur; delta }

let ratio e = if e.base_ns <= 0. then Float.infinity else e.cur_ns /. e.base_ns

let diff_to_json d =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("mode", Json.Str "diff");
      ("base", Json.Obj (body_json d.base));
      ("cur", Json.Obj (body_json d.cur));
      ("passes",
       Json.List
         (List.map
            (fun e ->
              Json.Obj
                [ ("pass", Json.Str e.name);
                  ("base_ns", Json.Float e.base_ns);
                  ("cur_ns", Json.Float e.cur_ns);
                  ("ratio",
                   if Float.is_finite (ratio e) then Json.Float (ratio e)
                   else Json.Null) ])
            d.delta)) ]

let pp_diff ?(top = 10) ppf d =
  Format.fprintf ppf "compile     %.3f s -> %.3f s (%+.1f%%)@."
    d.base.compile_time_s d.cur.compile_time_s
    (if d.base.compile_time_s <= 0. then 0.
     else
       100.
       *. (d.cur.compile_time_s -. d.base.compile_time_s)
       /. d.base.compile_time_s);
  Format.fprintf ppf "cache       %.0f%% -> %.0f%% hit rate@."
    (100. *. hit_rate d.base) (100. *. hit_rate d.cur);
  Format.fprintf ppf "@.%-26s %12s %12s %8s@." "pass (top movers)" "base ms"
    "cur ms" "ratio";
  List.iteri
    (fun i e ->
      if i < top then
        Format.fprintf ppf "%-26s %12.3f %12.3f %8s@." e.name (e.base_ns /. 1e6)
          (e.cur_ns /. 1e6)
          (if Float.is_finite (ratio e) then Printf.sprintf "%.2fx" (ratio e)
           else "new"))
    d.delta
