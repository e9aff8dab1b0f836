(* The qcc benchmark: one process measures one workload end to end and,
   with --trace 1, layer by layer. README.md in this directory describes
   the run, the workloads, the metrics and how to compare two commits.

     bash bench/measure/run.sh --workload serial-agg --seed 0 \
       --seconds 20 --trace 0

   The last line of standard output is the result object; the exit
   status is 1 when a compile failed or a check did not hold. *)

module Compiler = Qcc.Compiler
module Strategy = Qcc.Strategy
module Backend = Qcc.Backend
module Json = Qobs.Json
module Metrics = Qobs.Metrics
module Span = Qobs.Span
module Trace = Qobs.Trace
module Clock = Qobs.Clock

(* CPU time spent before this module runs: runtime start-up plus every
   library's initialisation, so work moved into module init shows in
   setup_s *)
let init_cpu_s = Sys.time ()

let golden_file = "test/golden/compile_golden.json"
let expected_file = "bench/measure/expected.json"
let out_dir = "bench/measure/out"

(* input builds per run; setup_s reports their median *)
let setup_builds = 9

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  write_expected : bool;
}

let usage =
  "usage: measure.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n\
  \       measure.exe --smoke\n\
  \       measure.exe --write-expected"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "measure: %s\n%s\n%!" msg usage;
      exit 2)
    fmt

let parse_args () =
  let nat flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> die "%s expects a non-negative integer, got %S" flag v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = nat "--seed" v } rest
    | "--seconds" :: v :: rest ->
      go { o with seconds = float_of_int (nat "--seconds" v) } rest
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest -> go { o with trace = true } rest
    | "--smoke" :: rest ->
      go { o with workload = "smoke"; seconds = 0.; trace = true } rest
    | "--write-expected" :: rest -> go { o with write_expected = true } rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go
    { workload = ""; seed = 0; seconds = 10.; trace = false;
      write_expected = false }
    (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Machine stamp                                                       *)

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> String.split_on_char '\n' text
  | exception Sys_error _ -> []

(* a field of /proc/self/status, e.g. "VmHWM:	  81234 kB" *)
let proc_status key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

let peak_rss_mb () =
  match Option.map (String.split_on_char ' ') (proc_status "VmHWM") with
  | Some (kb :: _) -> float_of_string kb /. 1024.
  | _ ->
    (* no procfs: the OCaml heap's high-water mark is the nearest figure *)
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* the CPUs this process may run on, as nproc counts them *)
let nproc () =
  let width range =
    match String.split_on_char '-' range with
    | [ a; b ] -> int_of_string b - int_of_string a + 1
    | _ -> 1
  in
  match proc_status "Cpus_allowed_list" with
  | Some list -> (
    try List.fold_left (fun n r -> n + width r) 0 (String.split_on_char ',' list)
    with Failure _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* read from .git directly: a checkout without git metadata says "unknown" *)
let git_revision () =
  let first_line path =
    match read_lines path with
    | line :: _ when String.trim line <> "" -> Some (String.trim line)
    | _ -> None
  in
  match first_line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match first_line (Filename.concat ".git" name) with
    | Some rev -> rev
    | None ->
      Option.value ~default:"unknown"
        (List.find_map
           (fun line ->
             match String.split_on_char ' ' line with
             | [ rev; r ] when r = name -> Some rev
             | _ -> None)
           (read_lines ".git/packed-refs")))
  | Some rev -> rev
  | None -> "unknown"

let machine ~nproc =
  Json.Obj
    [ ("nproc", Json.Int nproc);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_revision", Json.Str (git_revision ()));
      ("word_size", Json.Int Sys.word_size) ]

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* Table 3's square-root instances search for the root 2^(n-1)+1 *)
let table3_root n = (1 lsl (n - 1)) + 1

let sqrt_poly ~n ~root =
  (Qapps.Sqrt_poly.build ~n ~target:(root * root) ()).Qapps.Sqrt_poly.circuit

(* The generators behind Table 3, plus a 40-vertex 4-regular graph, with
   every random choice offset by the seed [s]. At s = 0 each Table 3
   name yields exactly the suite's instance (checked in verification). *)
let generate ~s name =
  let qaoa g = Qapps.Qaoa.circuit g in
  match name with
  | "maxcut-line" -> qaoa (Qapps.Graphs.line 20)
  | "maxcut-reg4" -> qaoa (Qapps.Graphs.regular4 ~seed:(11 + s) 30)
  | "maxcut-reg4-n40" -> qaoa (Qapps.Graphs.regular4 ~seed:(13 + s) 40)
  | "maxcut-cluster" ->
    qaoa (Qapps.Graphs.cluster ~seed:(12 + s) ~clusters:6 ~size:5)
  | "ising-n30" -> Qapps.Ising.circuit 30
  | "ising-n60" -> Qapps.Ising.circuit 60
  | "sqrt-n3" ->
    let root =
      if s = 0 then table3_root 3
      else Qgraph.Rand.int (Qgraph.Rand.create s) 8
    in
    sqrt_poly ~n:3 ~root
  | "sqrt-n4" -> sqrt_poly ~n:4 ~root:(table3_root 4)
  | "sqrt-n5" -> sqrt_poly ~n:5 ~root:(table3_root 5)
  | "uccsd-n4" -> Qapps.Uccsd.circuit 4
  | "uccsd-n6" -> Qapps.Uccsd.circuit 6
  | _ -> invalid_arg ("generate: " ^ name)

type runner =
  | Per_cell  (** one [Compiler.compile] per cell, on the calling domain *)
  | Pool  (** [Compiler.compile_matrix ~certify:true ~jobs:nproc] *)

type workload = {
  name : string;
  benchmarks : (string * bool) list;
      (** the timed inputs: name, and whether the seed applies *)
  held_out : string list;
      (** drawn from a non-zero seed; compiled and certified, not timed *)
  strategies : Strategy.t list;
  runner : runner;
}

let table3 =
  [ "maxcut-line"; "maxcut-reg4"; "maxcut-cluster"; "ising-n30"; "ising-n60";
    "sqrt-n3"; "sqrt-n4"; "sqrt-n5"; "uccsd-n4"; "uccsd-n6" ]

let unseeded = List.map (fun b -> (b, false))

(* README.md gives the reasons; in short: serial-agg is the
   aggregate-bound serial family, qaoa-parallel the same pass on short
   parallel merges, gate-level bypasses aggregation entirely, and
   matrix-pool is the only one that runs the domain pool, the shared
   stage cache and certification. The seed changes a timed input only
   where that leaves its cost unchanged: the square-root target does,
   while a new random graph moves aggregate's cost up to fourfold, so
   seeded graphs are held-out checks instead. *)
let workloads =
  [ { name = "serial-agg";
      benchmarks = [ ("sqrt-n3", true); ("uccsd-n6", false) ];
      held_out = [];
      strategies = [ Strategy.Aggregation; Strategy.Cls_aggregation ];
      runner = Per_cell };
    { name = "qaoa-parallel";
      benchmarks =
        unseeded [ "maxcut-reg4"; "maxcut-reg4-n40"; "maxcut-cluster"; "ising-n60" ];
      held_out = [ "maxcut-reg4"; "maxcut-reg4-n40"; "maxcut-cluster" ];
      strategies = Strategy.all;
      runner = Per_cell };
    { name = "gate-level";
      benchmarks = unseeded table3;
      held_out = [];
      strategies = [ Strategy.Isa; Strategy.Cls; Strategy.Cls_hand ];
      runner = Per_cell };
    { name = "matrix-pool";
      benchmarks =
        unseeded [ "maxcut-line"; "maxcut-reg4"; "ising-n30"; "uccsd-n4" ];
      held_out = [];
      strategies = Strategy.all;
      runner = Pool };
    { name = "smoke";
      benchmarks = unseeded [ "maxcut-line"; "uccsd-n4" ];
      held_out = [];
      strategies = Strategy.all;
      runner = Per_cell } ]

type cell = {
  label : string;  (** benchmark name, "@<seed>" appended when seeded *)
  strategy : Strategy.t;
  circuit : Qgate.Circuit.t;  (** lowered to the ISA *)
}

let cell_name c = c.label ^ "/" ^ Strategy.to_string c.strategy

let make_cells ~strategies ~seed benchmarks =
  List.concat_map
    (fun (name, seeded) ->
      let s = if seeded then seed else 0 in
      let label = if s = 0 then name else Printf.sprintf "%s@%d" name s in
      let circuit = Qgate.Decompose.to_isa (generate ~s name) in
      List.map (fun strategy -> { label; strategy; circuit }) strategies)
    benchmarks

(* the timed cells, benchmark-major as [compile_matrix] orders its
   results *)
let build_cells ~seed w = make_cells ~strategies:w.strategies ~seed w.benchmarks

let held_out_cells ~seed w =
  if seed = 0 then []
  else
    make_cells ~strategies:w.strategies ~seed
      (List.map (fun b -> (b, true)) w.held_out)

(* ------------------------------------------------------------------ *)
(* Fingerprints and reference files                                    *)

type fingerprint = {
  latency_hex : string;
  merges : int;
  swaps : int;
  instructions : int;
  certificate : string option;  (** digest, when certified *)
}

let certificate_digest c =
  Digest.to_hex (Digest.string (Json.to_string (Qcert.Certificate.to_json c)))

let fingerprint (r : Compiler.result) =
  { latency_hex = Printf.sprintf "%h" r.Compiler.latency;
    merges = r.Compiler.n_merges;
    swaps = r.Compiler.n_swaps_inserted;
    instructions = r.Compiler.n_instructions;
    certificate = Option.map certificate_digest r.Compiler.certificate }

let show fp =
  Printf.sprintf "latency %s, merges %d, swaps %d, instructions %d%s"
    fp.latency_hex fp.merges fp.swaps fp.instructions
    (match fp.certificate with Some d -> ", certificate " ^ d | None -> "")

(* the reference files' entry fields, certificate digest aside *)
let fingerprint_fields fp =
  [ ("latency_hex", Json.Str fp.latency_hex);
    ("merges", Json.Int fp.merges);
    ("swaps", Json.Int fp.swaps);
    ("instructions", Json.Int fp.instructions) ]

(* certificate digests are compared only when both sides carry one *)
let same a b =
  a.latency_hex = b.latency_hex && a.merges = b.merges && a.swaps = b.swaps
  && a.instructions = b.instructions
  && match (a.certificate, b.certificate) with
     | Some x, Some y -> x = y
     | _ -> true

let expect ~what ~want got =
  if not (same want got) then
    failwith (Printf.sprintf "%s: %s, expected %s" what (show got) (show want))

let load_references path =
  let doc =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok doc -> doc
    | Error msg -> failwith (path ^ ": " ^ msg)
  in
  let field k e =
    match Json.member k e with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: entry without %S" path k)
  in
  let str k e = match field k e with Json.Str s -> s | _ -> failwith k in
  let int k e = match field k e with Json.Int n -> n | _ -> failwith k in
  match Json.member "entries" doc with
  | Some (Json.List entries) ->
    List.map
      (fun e ->
        ( (str "benchmark" e, str "strategy" e),
          { latency_hex = str "latency_hex" e;
            merges = int "merges" e;
            swaps = int "swaps" e;
            instructions = int "instructions" e;
            certificate =
              (match Json.member "certificate_digest" e with
               | Some (Json.Str d) -> Some d
               | _ -> None) } ))
      entries
  | _ -> failwith (path ^ ": no entries array")

let reference_table files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun file ->
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (load_references file))
    files;
  tbl

let reference_key c = (c.label, Strategy.to_string c.strategy)

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)

let attempted = ref 0
let failures = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      failures := msg :: !failures;
      Printf.eprintf "FAIL %s\n%!" msg)
    fmt

(* One compile and the checks on its result. An exception or a failed
   check counts the compile as failed. *)
let attempt label f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception Failure msg ->
    fail "%s: %s" label msg;
    None
  | exception e ->
    fail "%s: %s" label (Printexc.to_string e);
    None

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted_array xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* first and third quartiles by the exclusive method, as Python's
   statistics.quantiles(xs, n=4) computes them *)
let quartiles xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let geomean xs =
  exp (List.fold_left (fun s x -> s +. log x) 0. xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

let summary xs =
  let q1, q3 = quartiles xs in
  Json.Obj
    [ ("n", Json.Int (List.length xs));
      ("median", Json.Float (median xs));
      ("q1", Json.Float q1);
      ("q3", Json.Float q3);
      ("samples", Json.List (List.map (fun x -> Json.Float x) xs)) ]

(* Sweeps until [seconds] are spent, at least three of them (one when
   [seconds] is 0); stops rather than overrun the budget by more than half
   a typical sweep. *)
let repeat ~seconds sweep =
  let min_reps = if seconds <= 0. then 1 else 3 in
  let t0 = Clock.now_ns () in
  let rec go acc n =
    let elapsed = Clock.elapsed_ns t0 /. 1e9 in
    let typical = median (List.map fst acc) in
    if n >= min_reps && elapsed +. (typical /. 2.) > seconds then List.rev acc
    else go (sweep () :: acc) (n + 1)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* The shared VMs this benchmark runs on change speed by up to half from
   one minute to the next, for reasons outside the process. A fixed
   kernel that allocates and hashes, as the compiler does, is timed
   between compiles for a tenth of the compile time. Each compile's time
   is divided by the slowdown the kernel measured last, right after it
   when it earned a sample: the kernel's time over its reference time.
   The library under test cannot change the kernel's cost: the kernel
   uses only the standard library and runs on a compacted heap under
   fixed GC settings. Pooled calls are not scaled: a one-domain kernel
   does not track two busy domains (scaling widened their spread). *)

(* about the kernel's median (22-25 ms) on an idle 2-vCPU Xeon VM *)
let kernel_reference_s = 0.025

let speed_kernel () =
  let tbl = Hashtbl.create 4096 in
  for i = 1 to 60_000 do
    Hashtbl.replace tbl (i * 7919 mod 50_021) (List.init 6 (fun k -> k + i))
  done;
  Hashtbl.fold (fun _ l acc -> acc + List.length l) tbl 0

let kernel_gc =
  { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

let kernel_samples = ref []

(* one kernel run's slowdown; the caller compacts the heap first *)
let time_kernel () =
  let saved = Gc.get () in
  Gc.set kernel_gc;
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (speed_kernel ()));
  let dt = Clock.elapsed_ns t0 /. 1e9 in
  Gc.set saved;
  kernel_samples := dt :: !kernel_samples;
  dt /. kernel_reference_s

let kernel_debt = ref 0.
let current_slowdown = ref nan

(* Owes the kernel a tenth of [after], the time just measured, pays the
   debt, and returns the slowdown that applies to that measurement. *)
let slowdown_after after =
  kernel_debt := !kernel_debt +. (after /. 10.);
  let own = ref [] in
  if !kernel_debt > 0. || Float.is_nan !current_slowdown then Gc.compact ();
  while !kernel_debt > 0. || Float.is_nan !current_slowdown && !own = [] do
    let f = time_kernel () in
    kernel_debt := !kernel_debt -. (f *. kernel_reference_s);
    own := f :: !own
  done;
  if !own <> [] then current_slowdown := median !own;
  !current_slowdown

(* ------------------------------------------------------------------ *)
(* Per-layer attribution                                               *)

let add layers key v =
  Hashtbl.replace layers key
    (v +. Option.value ~default:0. (Hashtbl.find_opt layers key))

let get layers key = Option.value ~default:0. (Hashtbl.find_opt layers key)

let layer_of_span name =
  if String.starts_with ~prefix:"certify-" name then "certify"
  else if String.starts_with ~prefix:"handopt-" name then "handopt"
  else name

(* The compile's pass spans plus the unattributed remainder make up its
   wall time. The remainder is what the spans leave uncovered, so it must
   not be negative, and each pass of the strategy must appear once. *)
let absorb_spans layers ~strategy ~wall_ms (root : Span.t) =
  let spans = Span.children root in
  let passes =
    List.filter_map
      (fun (s : Span.t) ->
        if String.starts_with ~prefix:"certify-" s.Span.name then None
        else Some s.Span.name)
      spans
  in
  if passes <> Compiler.passes strategy then
    failwith
      (Printf.sprintf "pass spans [%s] differ from the strategy's passes"
         (String.concat "; " passes));
  let spans_ms =
    sum (List.map (fun s -> Span.duration_ns s /. 1e6) spans)
  in
  let unattributed = wall_ms -. spans_ms in
  if unattributed < 0. then
    failwith
      (Printf.sprintf "pass spans sum to %.3f ms, more than the %.3f ms wall"
         spans_ms wall_ms);
  List.iter
    (fun (s : Span.t) ->
      let layer = layer_of_span s.Span.name in
      add layers ("pass." ^ layer ^ ".ms") (Span.duration_ns s /. 1e6);
      Option.iter
        (fun (g : Span.gc_delta) ->
          add layers ("alloc." ^ layer ^ ".major_words") g.Span.major_words)
        s.Span.gc)
    spans;
  add layers "pipeline.unattributed.ms" unattributed

let commute_routes =
  [ "structural"; "memo"; "phase_poly"; "tableau"; "dense"; "oversize" ]

let detect_routes = [ "structural"; "memo"; "phase_poly"; "dense"; "oversize" ]

let hist_sum m name =
  match Metrics.hist_value m name with Some h -> h.Metrics.sum | None -> 0.

let commute_ms m =
  sum (List.map (fun r -> hist_sum m ("commute.route." ^ r ^ ".ms")) commute_routes)

(* every commutation or detection query resolves through exactly one route *)
let check_partition m family routes =
  let total = Metrics.counter_value m (family ^ ".checks") in
  let routed =
    List.fold_left
      (fun n r -> n + Metrics.counter_value m (family ^ ".route." ^ r))
      0 routes
  in
  if routed <> total then
    failwith
      (Printf.sprintf "%s.route.* sum to %d but %s.checks is %d" family routed
         family total)

let absorb_metrics layers m =
  check_partition m "commute" commute_routes;
  check_partition m "detect" detect_routes;
  let counter name = float_of_int (Metrics.counter_value m name) in
  List.iter
    (fun name -> add layers name (counter name))
    [ "commute.checks"; "detect.checks"; "agg.attempted"; "agg.accepted";
      "agg.rounds"; "latency_model.block_queries";
      "latency_model.block_memo_hits"; "cls.matching_rounds"; "route.swaps";
      "qcert.facts"; "pipeline.cache.hit"; "pipeline.cache.miss" ];
  List.iter
    (fun r ->
      let name = "commute.route." ^ r in
      add layers name (counter name);
      add layers (name ^ ".ms") (hist_sum m (name ^ ".ms")))
    commute_routes;
  add layers "detect.route.dense.n" (counter "detect.route.dense");
  add layers "detect.route.dense.ms" (hist_sum m "detect.route.dense.ms")

type metric = { name : string; unit : string; better : string }

let m name unit better = { name; unit; better }

let per_layer_metrics =
  List.map (fun p -> m ("pass." ^ p ^ ".ms") "ms" "lower")
    [ "lower"; "gdg"; "detect"; "cls"; "place"; "route"; "rebuild";
      "aggregate"; "schedule"; "handopt"; "certify" ]
  @ [ m "pipeline.unattributed.ms" "ms" "lower";
      m "pipeline.cache.hit_ratio" "ratio" "higher";
      m "agg.attempted" "count" "lower";
      m "agg.accepted" "count" "higher";
      m "agg.accept_ratio" "ratio" "higher";
      m "agg.rounds" "count" "lower";
      m "agg.probe.cost_ms" "ms" "lower";
      m "agg.probe.cost_calls" "count" "lower";
      m "agg.probe.commute_ms" "ms" "lower";
      m "agg.probe.other_ms" "ms" "lower";
      m "commute.checks" "count" "lower" ]
  @ List.concat_map
      (fun r ->
        let better = if r = "dense" || r = "oversize" then "lower" else "higher" in
        [ m ("commute.route." ^ r) "count" better;
          m ("commute.route." ^ r ^ ".ms") "ms" "lower" ])
      commute_routes
  @ [ m "detect.checks" "count" "lower";
      m "detect.route.dense.n" "count" "lower";
      m "detect.route.dense.ms" "ms" "lower";
      m "latency_model.block_queries" "count" "lower";
      m "latency_model.block_memo_hit_ratio" "ratio" "higher";
      m "cls.matching_rounds" "count" "lower";
      m "route.swaps" "count" "lower";
      m "qcert.facts" "count" "lower";
      m "pool.speedup" "ratio" "higher";
      m "pool.busy_inflation" "ratio" "lower";
      m "pool.idle_frac" "ratio" "lower";
      m "pool.tail_job_s" "s" "lower" ]
  @ List.map
      (fun p -> m ("alloc." ^ p ^ ".major_words") "words" "lower")
      [ "aggregate"; "detect"; "cls"; "schedule" ]
  @ [ m "gc.major_collections" "count" "lower";
      m "trace.overhead" "ratio" "lower" ]

let ratio a b = if b > 0. then a /. b else 0.

let derive_ratios layers =
  Hashtbl.replace layers "agg.accept_ratio"
    (ratio (get layers "agg.accepted") (get layers "agg.attempted"));
  Hashtbl.replace layers "latency_model.block_memo_hit_ratio"
    (ratio
       (get layers "latency_model.block_memo_hits")
       (get layers "latency_model.block_queries"));
  let hits = get layers "pipeline.cache.hit" in
  Hashtbl.replace layers "pipeline.cache.hit_ratio"
    (ratio hits (hits +. get layers "pipeline.cache.miss"))

let gc_major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Spans of the traced sweep as one Chrome trace_event file, one thread
   row per root so concurrent pool jobs do not overlap. *)
let write_chrome path roots =
  let _, events =
    List.fold_left
      (fun (i, acc) root ->
        ( i + 1,
          List.rev_append
            (Span.to_chrome_events ~tid:i ~first_id:(List.length acc + 1) root)
            acc ))
      (1, []) roots
  in
  Json.write_file path
    (Json.Obj
       [ ("traceEvents", Json.List (List.rev events));
         ("displayTimeUnit", Json.Str "ns") ])

(* ------------------------------------------------------------------ *)
(* The aggregate probe                                                 *)

(* Replays the chain the [aggregation] strategy runs (Stages.aggregation)
   through public functions, so Aggregator.run can be timed from
   outside: the cost model through a timed, counted wrapper around
   Backend.block_cost, commutation from the oracle's route timers, and
   the rest as the remainder. Merges and latency must equal the cell's
   compile bit for bit. *)
let probe obs layers c ~(want : fingerprint) =
  let backend = Backend.default in
  let span name f = Trace.with_span obs name f in
  Compiler.reset_all_memos ();
  Gc.compact ();
  let metrics = Metrics.create () in
  let cost_ns = ref 0. and cost_calls = ref 0 in
  let merges, latency, run_ns, commute =
    Metrics.with_ambient metrics (fun () ->
        span ("probe " ^ cell_name c) (fun () ->
            let base = Qgate.Decompose.to_isa c.circuit in
            let topology = Backend.topology_for backend base in
            let placement =
              span "placement" (fun () -> Qmap.Placement.initial topology base)
            in
            let physical, _ =
              span "route" (fun () ->
                  Qmap.Router.route_circuit ~placement ~topology base)
            in
            let model = Backend.block_cost backend in
            let g =
              span "gdg" (fun () -> Qgdg.Gdg.of_circuit ~latency:model physical)
            in
            let contractions =
              span "detect" (fun () ->
                  Qgdg.Diagonal.detect_and_contract ~latency:model g)
            in
            let cost gates =
              incr cost_calls;
              let t0 = Clock.now_ns () in
              let v = model gates in
              cost_ns := !cost_ns +. Clock.elapsed_ns t0;
              v
            in
            let commute0 = commute_ms metrics in
            let stats, run_ns =
              span "aggregate" (fun () ->
                  let t0 = Clock.now_ns () in
                  let stats =
                    Qagg.Aggregator.run ~width_limit:backend.Backend.width_limit
                      ~cost g
                  in
                  (stats, Clock.elapsed_ns t0))
            in
            let commute = commute_ms metrics -. commute0 in
            let schedule = span "schedule" (fun () -> Qsched.Asap.schedule g) in
            ( contractions + stats.Qagg.Aggregator.merges,
              schedule.Qsched.Schedule.makespan,
              run_ns,
              commute )))
  in
  check_partition metrics "commute" commute_routes;
  let latency_hex = Printf.sprintf "%h" latency in
  if merges <> want.merges || latency_hex <> want.latency_hex then
    failwith
      (Printf.sprintf "probe gives merges %d, latency %s; compile gave %d, %s"
         merges latency_hex want.merges want.latency_hex);
  let run_ms = run_ns /. 1e6 and cost_ms = !cost_ns /. 1e6 in
  (* the three parts sum to the run by construction; a negative remainder
     would mean the cost and commutation timers overlap *)
  let other = run_ms -. cost_ms -. commute in
  if other < 0. then
    failwith
      (Printf.sprintf "cost %.3f ms + commute %.3f ms exceed the %.3f ms run"
         cost_ms commute run_ms);
  add layers "agg.probe.cost_ms" cost_ms;
  add layers "agg.probe.cost_calls" (float_of_int !cost_calls);
  add layers "agg.probe.commute_ms" commute;
  add layers "agg.probe.other_ms" other

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

(* A generated circuit under a Table 3 name (seed 0, or a benchmark the
   seed does not touch) must be the suite's own. *)
let check_suite_identity cells =
  List.iter
    (fun c ->
      match Qapps.Suite.find c.label with
      | exception Not_found -> ()
      | b ->
        ignore
          (attempt (c.label ^ " suite identity") (fun () ->
               if
                 Qgate.Qasm.to_string c.circuit
                 <> Qgate.Qasm.to_string (Qapps.Suite.lowered b)
               then failwith "generated circuit differs from Table 3's")))
    (List.sort_uniq (fun a b -> compare a.label b.label) cells)

(* Certified compiles of every cell that no reference pins, and of every
   cell whose reference carries a certificate digest. *)
let verify_certified cells ~reference ~warm =
  Array.iteri
    (fun i c ->
      let want = reference c in
      let needed =
        match want with None -> true | Some w -> w.certificate <> None
      in
      if needed then
        ignore
          (attempt (cell_name c ^ " certified") (fun () ->
               Compiler.reset_all_memos ();
               let fp =
                 fingerprint
                   (Compiler.compile ~certify:true ~strategy:c.strategy
                      c.circuit)
               in
               Option.iter (fun want -> expect ~what:"reference" ~want fp) want;
               Option.iter (fun w -> expect ~what:"warm-up" ~want:w fp) warm.(i))))
    cells

(* ------------------------------------------------------------------ *)
(* Runners                                                             *)

type measured = {
  sweeps : float list;  (** timed sweep wall times, s *)
  cell_times : (float * float) list array;
      (** per cell: compile times (s), each with the slowdown it is scaled by *)
  warm : fingerprint option array;
  rss_mb : float;
  traced_s : float;  (** traced sweep wall, s (0 without --trace) *)
  layers : (string, float) Hashtbl.t;
  roots : Span.t list;  (** spans of the traced sweep *)
}

let per_cell o cells ~reference =
  let n = Array.length cells in
  let warm =
    Array.map
      (fun c ->
        attempt (cell_name c) (fun () ->
            let fp = fingerprint (Compiler.compile ~strategy:c.strategy c.circuit) in
            Option.iter (fun want -> expect ~what:"reference" ~want fp) (reference c);
            fp))
      cells
  in
  let timed i c =
    attempt (cell_name c) (fun () ->
        Compiler.reset_all_memos ();
        Gc.compact ();
        let t0 = Clock.now_ns () in
        let r = Compiler.compile ~strategy:c.strategy c.circuit in
        let dt = Clock.elapsed_ns t0 /. 1e9 in
        Option.iter (fun want -> expect ~what:"warm-up" ~want (fingerprint r)) warm.(i);
        dt)
  in
  let cell_times = Array.make n [] in
  let sweeps =
    repeat ~seconds:o.seconds (fun () ->
        let times =
          Array.mapi
            (fun i c ->
              let t = timed i c in
              Option.iter
                (fun t -> cell_times.(i) <- (t, slowdown_after t) :: cell_times.(i))
                t;
              t)
            cells
        in
        (sum (List.filter_map Fun.id (Array.to_list times)), ()))
  in
  let sweeps = List.map fst sweeps in
  let rss_mb = peak_rss_mb () in
  let layers = Hashtbl.create 64 in
  let obs = Trace.create () in
  let traced_s =
    if not o.trace then 0.
    else begin
      let traced i c =
        attempt (cell_name c ^ " traced") (fun () ->
            Compiler.reset_all_memos ();
            Gc.compact ();
            let metrics = Metrics.create () in
            let gc0 = gc_major_collections () in
            let r, wall_ns =
              Trace.with_span obs ("cell " ^ cell_name c) (fun () ->
                  let t0 = Clock.now_ns () in
                  let r =
                    Compiler.compile ~obs ~metrics ~strategy:c.strategy c.circuit
                  in
                  (r, Clock.elapsed_ns t0))
            in
            add layers "gc.major_collections"
              (float_of_int (gc_major_collections () - gc0));
            (match r.Compiler.trace with
             | Some root ->
               absorb_spans layers ~strategy:c.strategy ~wall_ms:(wall_ns /. 1e6)
                 root
             | None -> failwith "traced compile returned no trace");
            absorb_metrics layers metrics;
            Option.iter (fun want -> expect ~what:"warm-up" ~want (fingerprint r)) warm.(i);
            wall_ns /. 1e9)
      in
      let traced = sum (List.filter_map Fun.id (Array.to_list (Array.mapi traced cells))) in
      Array.iteri
        (fun i c ->
          match (c.strategy, warm.(i)) with
          | Strategy.Aggregation, Some want ->
            ignore (attempt (cell_name c ^ " probe") (fun () -> probe obs layers c ~want))
          | _ -> ())
        cells;
      (* one worker: the pool metrics hold by definition *)
      Hashtbl.replace layers "pool.speedup" 1.;
      Hashtbl.replace layers "pool.busy_inflation" 1.;
      Hashtbl.replace layers "pool.idle_frac" 0.;
      Hashtbl.replace layers "pool.tail_job_s"
        (List.fold_left Float.max 0.
           (Array.to_list (Array.map (fun ts -> median (List.map fst ts)) cell_times)));
      traced
    end
  in
  { sweeps; cell_times; warm; rss_mb; traced_s; layers; roots = Trace.roots obs }

(* One timed round of the matrix: a pooled call, then the same call on
   one worker. *)
type round = {
  wall : float;  (** pooled call, s *)
  busy : float;  (** its summed job times, s *)
  idle : float;  (** share of the workers' time not in a job *)
  tail : float;  (** its longest job, s *)
  wall1 : float;  (** the one-worker call, s *)
  busy1 : float;  (** its summed job times, s *)
}

(* The matrix through the domain pool: each round is one
   [compile_matrix ~certify:true] call at [jobs] workers, whose wall time
   is the sweep, then one at a single worker, whose compile times (scaled,
   see Machine speed) are the per-cell times. In a pooled call a job's own
   clock also counts its wait for whichever job computes its benchmark's
   shared stages, so the pooled per-cell medians spread by 13-17% from
   run to run. *)
let pool o cells ~reference ~jobs =
  let n = Array.length cells in
  let n_strategies = List.length Strategy.all in
  (* cells are benchmark-major over Strategy.all, as compile_matrix
     returns them *)
  let named =
    List.filteri (fun i _ -> i mod n_strategies = 0) (Array.to_list cells)
    |> List.map (fun c -> (c.label, c.circuit))
  in
  let sweep ?metrics ?ledger ~jobs () =
    Gc.compact ();
    let t0 = Clock.now_ns () in
    let results =
      match Compiler.compile_matrix ~certify:true ~jobs ?metrics ?ledger named with
      | rows -> Some (Array.of_list (List.concat_map (fun (_, rs) -> List.map snd rs) rows))
      | exception e ->
        attempted := !attempted + n;
        fail "matrix sweep at %d jobs: %s" jobs (Printexc.to_string e);
        None
    in
    (Clock.elapsed_ns t0 /. 1e9, results)
  in
  (* one attempt per cell of a sweep *)
  let check ?(also = fun _ _ -> ()) ~what want results =
    Array.mapi
      (fun i (r : Compiler.result) ->
        attempt (cell_name cells.(i)) (fun () ->
            (match r.Compiler.certificate with
             | Some cert when Qcert.Certificate.ok cert -> ()
             | _ -> failwith "certificate missing or refuted");
            let fp = fingerprint r in
            Option.iter (fun want -> expect ~what ~want fp) (want i);
            also i r;
            fp))
      results
  in
  let compile_times results =
    Array.to_list (Array.map (fun (r : Compiler.result) -> r.Compiler.compile_time) results)
  in
  let warm =
    match sweep ~jobs () with
    | _, Some results -> check ~what:"reference" (fun i -> reference cells.(i)) results
    | _, None -> Array.make n None
  in
  (* a timed call's job times, after its outputs are checked *)
  let timed ~jobs =
    match sweep ~jobs () with
    | wall, Some results ->
      ignore (check ~what:"warm-up" (fun i -> warm.(i)) results);
      (wall, compile_times results)
    | wall, None -> (wall, [])
  in
  let cell_times = Array.make n [] in
  let workers = float_of_int (min jobs n) in
  let rounds =
    List.map snd
      (repeat ~seconds:o.seconds (fun () ->
           let wall, times = timed ~jobs in
           let busy = sum times in
           let wall1, times1 = timed ~jobs:1 in
           let f = slowdown_after wall1 in
           List.iteri (fun i t -> cell_times.(i) <- (t, f) :: cell_times.(i)) times1;
           ( wall +. wall1,
             { wall; busy; idle = 1. -. (busy /. (workers *. wall));
               tail = List.fold_left Float.max 0. times; wall1;
               busy1 = sum times1 } )))
  in
  let sweeps = List.map (fun r -> r.wall) rounds in
  let rss_mb = peak_rss_mb () in
  let layers = Hashtbl.create 64 in
  let roots = ref [] in
  let traced_s =
    if not o.trace then 0.
    else begin
      let of_rounds f = median (List.map f rounds) in
      Hashtbl.replace layers "pool.speedup" (of_rounds (fun r -> r.wall1) /. median sweeps);
      Hashtbl.replace layers "pool.busy_inflation"
        (of_rounds (fun r -> r.busy) /. of_rounds (fun r -> r.busy1));
      Hashtbl.replace layers "pool.idle_frac" (of_rounds (fun r -> r.idle));
      Hashtbl.replace layers "pool.tail_job_s" (of_rounds (fun r -> r.tail));
      (* compile_matrix takes no trace collector; a ledger makes every
         job record its own, which lands in each result *)
      let ledger_path = Filename.concat out_dir "ledger-matrix-pool.jsonl" in
      if Sys.file_exists ledger_path then Sys.remove ledger_path;
      let ledger = Qobs.Ledger.open_file ledger_path in
      let metrics = Metrics.create () in
      let gc0 = gc_major_collections () in
      let wall, results = sweep ~metrics ~ledger ~jobs () in
      Qobs.Ledger.close ledger;
      add layers "gc.major_collections" (float_of_int (gc_major_collections () - gc0));
      Option.iter
        (fun results ->
          ignore
            (check ~what:"warm-up" (fun i -> warm.(i)) results ~also:(fun _ r ->
                 match r.Compiler.trace with
                 | Some root ->
                   absorb_spans layers ~strategy:r.Compiler.strategy
                     ~wall_ms:(r.Compiler.compile_time *. 1e3) root;
                   roots := root :: !roots
                 | None -> failwith "traced compile returned no trace"));
          match absorb_metrics layers metrics with
          | () -> ()
          | exception Failure msg -> fail "matrix metrics: %s" msg)
        results;
      wall
    end
  in
  { sweeps; cell_times; warm; rss_mb; traced_s; layers; roots = List.rev !roots }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let metrics_json ?(better = false) values =
  Json.Obj
    (List.map
       (fun (m, v) ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Float v); ("unit", Json.Str m.unit) ]
              @ if better then [ ("better", Json.Str m.better) ] else []) ))
       values)

let print_metrics title values =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m, v) -> Printf.printf "  %-36s %16.6f %s\n" m.name v m.unit)
    values

let cell_json c times (fp : fingerprint option) =
  Json.Obj
    ([ ("benchmark", Json.Str c.label);
       ("strategy", Json.Str (Strategy.to_string c.strategy));
       ("time_s", summary (List.map fst times));
       ("slowdown", summary (List.map snd times)) ]
     @ Option.fold ~none:[] ~some:fingerprint_fields fp)

(* ------------------------------------------------------------------ *)
(* Reference generation                                                *)

(* Writes expected.json: every seed-0 cell of every workload that the
   golden file does not cover, from compiles that certify (a refuted
   boundary raises and nothing is written). Run only when outputs are
   meant to change. *)
let write_expected () =
  let golden = reference_table [ golden_file ] in
  let seen = Hashtbl.create 64 in
  let entries =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun c ->
            let key = reference_key c in
            if Hashtbl.mem golden key || Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              Printf.eprintf "expected: certifying %s\n%!" (cell_name c);
              let fp =
                fingerprint
                  (Compiler.compile ~certify:true ~strategy:c.strategy c.circuit)
              in
              Some
                (Json.Obj
                   (("benchmark", Json.Str c.label)
                    :: ("strategy", Json.Str (Strategy.to_string c.strategy))
                    :: fingerprint_fields fp))
            end)
          (build_cells ~seed:0 w))
      workloads
  in
  Json.write_file expected_file
    (Json.Obj
       [ ("schema", Json.Str "qcc.bench.expected/1");
         ("entries", Json.List entries) ]);
  Printf.eprintf "wrote %s (%d entries)\n%!" expected_file (List.length entries)

(* ------------------------------------------------------------------ *)

let main o =
  let w =
    match List.find_opt (fun (w : workload) -> w.name = o.workload) workloads with
    | Some w -> w
    | None ->
      die "unknown workload %S; one of %s" o.workload
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads))
  in
  let nproc = nproc () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* each build is followed by the kernel run that scales it *)
  let builds =
    List.init setup_builds (fun _ ->
        let c0 = Sys.time () in
        let cells = build_cells ~seed:o.seed w in
        let cpu = Sys.time () -. c0 in
        Gc.compact ();
        (cpu, time_kernel (), cells))
  in
  let build_cpu = List.map (fun (cpu, _, _) -> cpu) builds in
  let setup_slowdown = median (List.map (fun (_, f, _) -> f) builds) in
  let cells =
    match builds with (_, _, cells) :: _ -> Array.of_list cells | [] -> [||]
  in
  let refs = reference_table [ golden_file; expected_file ] in
  let reference c = Hashtbl.find_opt refs (reference_key c) in
  let r =
    match w.runner with
    | Per_cell -> per_cell o cells ~reference
    | Pool -> pool o cells ~reference ~jobs:nproc
  in
  check_suite_identity (Array.to_list cells);
  (match w.runner with
   | Per_cell -> verify_certified cells ~reference ~warm:r.warm
   | Pool -> () (* every pool sweep is certified *));
  let held_out = Array.of_list (held_out_cells ~seed:o.seed w) in
  verify_certified held_out
    ~reference:(fun _ -> None)
    ~warm:(Array.make (Array.length held_out) None);
  let scaled (t, f) = t /. f in
  let cell_medians f =
    Array.to_list (Array.map (fun ts -> median (List.map f ts)) r.cell_times)
  in
  let setup_raw = init_cpu_s +. median build_cpu in
  (* one sweep at every cell's median time; a pool sweep is one call *)
  let sweep_s, sweep_raw =
    match w.runner with
    | Per_cell -> (sum (cell_medians scaled), sum (cell_medians fst))
    | Pool -> (median r.sweeps, median r.sweeps)
  in
  (* times at the kernel's reference speed (see Machine speed) *)
  let end_to_end =
    [ (m "setup_s" "s" "lower", setup_raw /. setup_slowdown);
      (m "sweep_s" "s" "lower", sweep_s);
      (m "cell_s_geomean" "s" "lower", geomean (cell_medians scaled));
      (m "matrix_cells_per_s" "cells/s" "higher",
       float_of_int (Array.length cells) /. sweep_s);
      (m "peak_rss_mb" "MB" "lower", r.rss_mb) ]
  in
  (* Reported, but not in the result line: the unscaled times, and two
     figures that repeat exactly for a given input; the output checks
     already pin every cell's latency and count every failure. *)
  let also =
    [ (m "machine_slowdown" "ratio" "lower",
       median !kernel_samples /. kernel_reference_s);
      (m "setup_unscaled_s" "s" "lower", setup_raw);
      (m "sweep_unscaled_s" "s" "lower", sweep_raw);
      (m "cell_unscaled_s_geomean" "s" "lower", geomean (cell_medians fst));
      (m "circuit_latency_ns_geomean" "ns" "lower",
       geomean
         (List.filter_map
            (Option.map (fun fp -> float_of_string fp.latency_hex))
            (Array.to_list r.warm)));
      (m "error_rate" "failed/attempted" "lower",
       float_of_int (List.length !failures) /. float_of_int (max 1 !attempted)) ]
  in
  let per_layer =
    if not o.trace then []
    else begin
      derive_ratios r.layers;
      Hashtbl.replace r.layers "trace.overhead" (r.traced_s /. sweep_raw);
      List.map (fun m -> (m, get r.layers m.name)) per_layer_metrics
    end
  in
  let correct = !failures = [] in
  if o.trace then
    write_chrome (Filename.concat out_dir ("trace-" ^ w.name ^ ".json")) r.roots;
  let sweep_q1, sweep_q3 = quartiles r.sweeps in
  Json.write_file
    (Filename.concat out_dir (w.name ^ ".json"))
    (Json.Obj
       [ ("schema", Json.Str "qcc.bench/2");
         ("workload", Json.Str w.name);
         ("seed", Json.Int o.seed);
         ("seconds", Json.Float o.seconds);
         ("trace", Json.Bool o.trace);
         ("machine", machine ~nproc);
         ("correct", Json.Bool correct);
         ("attempted", Json.Int !attempted);
         ("failed", Json.Int (List.length !failures));
         ("failures", Json.List (List.rev_map (fun f -> Json.Str f) !failures));
         ("setup",
          Json.Obj
            [ ("init_cpu_s", Json.Float init_cpu_s);
              ("build_cpu_s", summary build_cpu) ]);
         ("sweeps_s", summary r.sweeps);
         ("kernel_s", summary (List.rev !kernel_samples));
         ("end_to_end", metrics_json ~better:true (end_to_end @ also));
         ("per_layer", metrics_json ~better:true per_layer);
         ("cells",
          Json.List
            (Array.to_list
               (Array.mapi
                  (fun i c -> cell_json c (List.rev r.cell_times.(i)) r.warm.(i))
                  cells))) ]);
  Printf.printf
    "workload %s, seed %d, %d cells, %d timed sweeps (unscaled q1 %.4f s, q3 %.4f s)\n"
    w.name o.seed (Array.length cells) (List.length r.sweeps) sweep_q1 sweep_q3;
  Printf.printf "machine: nproc %d, OCaml %s, revision %s\n" nproc
    Sys.ocaml_version (git_revision ());
  print_metrics "end to end" (end_to_end @ also);
  if o.trace then print_metrics "per layer (traced sweep)" per_layer;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int (List.length !failures));
            ("metrics", metrics_json (if o.trace then per_layer else end_to_end)) ]));
  if not correct then exit 1

let () =
  let o = parse_args () in
  if o.write_expected then write_expected () else main o

