let src = Logs.Src.create "qobs" ~doc:"qcc observability (spans, metrics)"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  enabled : bool;
  mutable stack : Span.t list;  (* open spans, innermost first *)
  mutable rev_roots : Span.t list;
  mutable last : Span.t option;
}

let create () = { enabled = true; stack = []; rev_roots = []; last = None }
(* the null trace: every writer checks [enabled] first, so these
   mutable fields are never written after init *)
let disabled = { enabled = false; stack = []; rev_roots = []; last = None }
  [@@domain_safety frozen_after_init]
let enabled t = t.enabled

let close t span =
  span.Span.stop_ns <- Clock.now_ns ();
  (match span.Span.gc0 with
   | Some g0 ->
     let g1 = Span.gc_now () in
     span.Span.gc <-
       Some
         { Span.minor_words = g1.Span.minor_words -. g0.Span.minor_words;
           major_words = g1.Span.major_words -. g0.Span.major_words;
           major_collections =
             g1.Span.major_collections - g0.Span.major_collections }
   | None -> ());
  (match t.stack with
   | top :: rest when top == span -> t.stack <- rest
   | _ ->
     (* unbalanced close (an escaped span reference); drop everything the
        stray span still covers so the structure stays a forest *)
     let rec pop = function
       | top :: rest when top != span -> pop rest
       | _ :: rest -> rest
       | [] -> []
     in
     t.stack <- pop t.stack);
  (match t.stack with
   | parent :: _ -> parent.Span.rev_children <- span :: parent.Span.rev_children
   | [] -> t.rev_roots <- span :: t.rev_roots);
  t.last <- Some span;
  Log.debug (fun m ->
      m "%s: %.3f ms" span.Span.name (Span.duration_ns span /. 1e6))

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let span = Span.make ~name ~start_ns:(Clock.now_ns ()) in
    span.Span.gc0 <- Some (Span.gc_now ());
    t.stack <- span :: t.stack;
    Fun.protect ~finally:(fun () -> close t span) f
  end

let attr t name v =
  if t.enabled then
    match t.stack with
    | span :: _ -> Span.add_attr span name v
    | [] -> ()

let attr_int t name v = if t.enabled then attr t name (Span.Int v)
let attr_str t name v = if t.enabled then attr t name (Span.Str v)

let roots t = List.rev t.rev_roots
let last_span t = t.last

let to_text t =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (fun s -> Span.pp_text ppf s) (roots t);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let to_chrome t =
  (* stable span ids: pre-order position across the root forest *)
  let next_id = ref 1 in
  let events =
    Json.Obj
      [ ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str "qcc") ]) ]
    :: List.concat_map
         (fun root ->
           let evs = Span.to_chrome_events ~first_id:!next_id root in
           next_id := !next_id + Span.count root;
           evs)
         (roots t)
  in
  Json.Obj
    [ ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.Str "ns") ]

let write_chrome_file path t = Json.write_file path (to_chrome t)
