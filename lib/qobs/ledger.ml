let schema = "qcc.ledger/1"

type t = {
  oc : out_channel;
  lock : Mutex.t;
}

let open_file path =
  { oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path;
    lock = Mutex.create () }

let close t = Mutex.protect t.lock (fun () -> close_out t.oc)

(* Channel primitives are atomic per call in OCaml 5, but a row is one
   write + newline + flush — three calls that can interleave across
   domains and tear rows. Serialize outside the lock, then emit the
   whole line (and flush) in one critical section. *)
let append t row =
  let line = Json.to_string row ^ "\n" in
  Mutex.protect t.lock (fun () ->
      output_string t.oc line;
      flush t.oc)

(* one row per pass span directly under the compile root; certify-* and
   any other instrumented children count too, which is what a latency
   ledger wants — they are wall time the run paid for *)
let pass_row span =
  let gc =
    match span.Span.gc with
    | Some g -> g
    | None -> { Span.minor_words = 0.; major_words = 0.; major_collections = 0 }
  in
  Json.Obj
    [ ("pass", Json.Str span.Span.name);
      ("wall_ns", Json.Float (Span.duration_ns span));
      ("minor_words", Json.Float gc.Span.minor_words);
      ("major_words", Json.Float gc.Span.major_words);
      ("major_collections", Json.Int gc.Span.major_collections) ]

let row ?(source_label = "") ?domain ~strategy ~backend_digest ~source_digest
    ~chain_digest ~latency_ns ~compile_time_s ~cache_hits ~cache_misses ?trace
    ~metrics () =
  let passes =
    match trace with
    | None -> []
    | Some root -> List.map pass_row (Span.children root)
  in
  let domain_field =
    match domain with None -> [] | Some d -> [ ("domain", Json.Int d) ]
  in
  Json.Obj
    ([ ("schema", Json.Str schema);
       ("source", Json.Str source_label);
       ("strategy", Json.Str strategy) ]
     @ domain_field
     @ [
      ("backend_digest", Json.Str backend_digest);
      ("source_digest", Json.Str source_digest);
      ("chain_digest", Json.Str chain_digest);
      ("latency_ns", Json.Float latency_ns);
      ("compile_time_s", Json.Float compile_time_s);
      ("cache",
       Json.Obj
         [ ("hits", Json.Int cache_hits); ("misses", Json.Int cache_misses) ]);
      ("passes", Json.List passes);
      ("metrics", Metrics.to_json metrics) ])

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
          match Json.of_string line with
          | Ok row -> go (lineno + 1) (row :: acc)
          | Error msg ->
            Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      (* a read error names the file, as an open error does *)
      try go 1 []
      with Sys_error reason -> raise (Sys_error (path ^ ": " ^ reason)))
