(* qcc — compile quantum circuits with aggregated-instruction pulses.

   Subcommands:
     compile    compile a QASM file (or named benchmark) under a strategy
     compare    run all strategies and print normalized latencies
     profile    per-pass wall-time breakdown over a benchmark/strategy matrix
     stats      aggregate / diff flight-recorder ledgers (--ledger files)
     bench-list list the built-in benchmark instances
     lint       run the Qlint static checkers on a circuit / compilation
     analyze    forward abstract interpretation: abstract states + summaries
     certify    translation-validate every pass boundary of a compilation
     verify     verify sampled aggregated instructions of a compilation
     pulse      GRAPE-synthesize a pulse for a named 1-2 qubit gate *)

open Cmdliner

(* user errors (bad flags, malformed inputs, unreadable or unwritable
   files) exit 2 with a one-line message instead of an uncaught-exception
   backtrace *)
let or_die f =
  let die msg =
    Printf.eprintf "qcc: %s\n" msg;
    exit 2
  in
  try f () with
  | Failure msg | Invalid_argument msg | Qgate.Qasm.Parse_error msg
  | Sys_error msg ->
    die msg

let load_circuit ~qasm_file ~benchmark =
  match (qasm_file, benchmark) with
  | Some path, None -> Qgate.Qasm.read_file path
  | None, Some name ->
    (match Qapps.Suite.find name with
     | b -> Qapps.Suite.lowered b
     | exception Not_found ->
       failwith
         (Printf.sprintf "unknown benchmark %S (see qcc bench-list)" name))
  | Some _, Some _ -> failwith "give either a QASM file or a benchmark, not both"
  | None, None -> failwith "give a QASM file (-f) or a benchmark name (-b)"

let parse_size ~what s =
  match int_of_string_opt s with
  | None ->
    failwith
      (Printf.sprintf "%s: %S is not an integer" what s)
  | Some n when n <= 0 ->
    failwith
      (Printf.sprintf "%s: %d is not a positive qubit count" what n)
  | Some n -> n

let topology_of = function
  | None -> None
  | Some "grid" -> None
  | Some s ->
    (match String.split_on_char ':' s with
     | [ "line"; n ] -> Some (Qmap.Topology.line (parse_size ~what:"line topology" n))
     | [ "full"; n ] -> Some (Qmap.Topology.full (parse_size ~what:"full topology" n))
     | _ ->
       failwith
         (Printf.sprintf
            "bad topology %S: expected 'grid', 'line:N' or 'full:N' with N \
             a positive integer" s))

let qasm_arg =
  Arg.(value & opt (some file) None & info [ "f"; "qasm" ] ~doc:"Input QASM file.")

let bench_arg =
  Arg.(value & opt (some string) None
       & info [ "b"; "benchmark" ] ~doc:"Built-in benchmark name (see bench-list).")

(* the strategy list is derived from the registry, so a new strategy
   shows up in --help and error messages without touching the CLI *)
let strategy_doc =
  Printf.sprintf "Strategy: %s." (String.concat " | " Qcc.Strategy.names)

let strategy_arg =
  Arg.(value & opt string "cls+aggregation"
       & info [ "s"; "strategy" ] ~doc:strategy_doc)

let topology_arg =
  Arg.(value & opt (some string) None
       & info [ "t"; "topology" ] ~doc:"Topology: grid (default), line:N, full:N.")

let width_arg =
  Arg.(value & opt int 10
       & info [ "w"; "width" ] ~doc:"Aggregated-instruction width limit.")

let arch_arg =
  Arg.(value & opt string "xy"
       & info [ "a"; "architecture" ]
           ~doc:"Physical coupling: xy (transmon), zz (flux/NMR), heisenberg (quantum dot).")

let device_of = function
  | "xy" -> Qcontrol.Device.default
  | "zz" -> Qcontrol.Device.with_interaction Qcontrol.Device.Zz Qcontrol.Device.default
  | "heisenberg" | "dots" ->
    Qcontrol.Device.with_interaction Qcontrol.Device.Heisenberg Qcontrol.Device.default
  | s -> failwith (Printf.sprintf "unknown architecture %S (xy zz heisenberg)" s)

let config topology width arch =
  if width <= 0 then
    failwith
      (Printf.sprintf "--width: %d is not a positive width limit" width);
  { Qcc.Backend.device = device_of arch;
    topology = topology_of topology;
    width_limit = width }

let print_result r =
  Qcc.Report.print_kv
    [ ("strategy", Qcc.Strategy.to_string r.Qcc.Compiler.strategy);
      ("latency (ns)", Printf.sprintf "%.1f" r.Qcc.Compiler.latency);
      ("instructions", string_of_int r.Qcc.Compiler.n_instructions);
      ("swaps inserted", string_of_int r.Qcc.Compiler.n_swaps_inserted);
      ("merges", string_of_int r.Qcc.Compiler.n_merges);
      ("compile time (s)", Printf.sprintf "%.2f" r.Qcc.Compiler.compile_time) ]

(* -v → Info (per-compile summaries on the "qcc" source), -vv → Debug
   (adds per-span close timings from "qobs") *)
let setup_logs verbosity =
  if verbosity > 0 then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbosity >= 2 then Logs.Debug else Logs.Info))
  end

let verbosity_arg =
  Arg.(value & flag_all
       & info [ "v"; "verbose" ]
           ~doc:"Verbosity: once for per-compile info logs, twice for \
                 per-pass debug timings plus the pass summary and full \
                 schedule.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the compilation (open \
                 in about://tracing or Perfetto).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write pipeline metrics (counters/histograms) as JSON.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable result summary as JSON.")

let ledger_arg =
  Arg.(value & opt (some string) None
       & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Append one qcc.ledger/1 row per compilation to this JSONL \
                 flight-recorder file (aggregate with qcc stats).")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Run up to N benchmark×strategy jobs in parallel on an \
                 OCaml domain pool: min(N, job count) - 1 spawned domains \
                 plus the calling domain, which runs its share. \
                 Deterministic: results are byte-identical to -j 1 (no \
                 spawns, the calling domain alone) at any N — only wall \
                 time changes.")

let check_jobs jobs =
  if jobs < 1 then
    failwith (Printf.sprintf "--jobs: %d is not a positive worker count" jobs);
  jobs

let with_ledger path f =
  match path with
  | None -> f None
  | Some p ->
    let l = Qobs.Ledger.open_file p in
    Fun.protect ~finally:(fun () -> Qobs.Ledger.close l) (fun () -> f (Some l))

let source_label ~qasm_file ~benchmark =
  match (benchmark, qasm_file) with
  | Some name, _ -> Some name
  | None, Some path -> Some (Filename.basename path)
  | None, None -> None

let wrote path = Printf.printf "wrote %s\n%!" path

(* an output file whose directory is missing fails before any work, with
   the message opening it would give *)
let check_output_dir path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then
    raise (Sys_error (path ^ ": No such file or directory"))
  else if not (Sys.is_directory dir) then
    raise (Sys_error (path ^ ": Not a directory"))

(* an output directory is made, or found to be one, before any work *)
let make_output_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) when Sys.is_directory dir -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
    raise (Sys_error (dir ^ ": Not a directory"))
  | exception Unix.Unix_error (e, _, _) ->
    raise (Sys_error (dir ^ ": " ^ Unix.error_message e))

let compile_cmd =
  let run qasm bench strategy topology width arch trace_file metrics_file
      json_file ledger_file verbosity =
    or_die @@ fun () ->
    List.iter (Option.iter check_output_dir)
      [ trace_file; metrics_file; json_file ];
    let verbosity = List.length verbosity in
    setup_logs verbosity;
    let circuit = load_circuit ~qasm_file:qasm ~benchmark:bench in
    let strategy = Qcc.Strategy.of_string strategy in
    (* a ledger row wants per-pass spans and the metric snapshot, so
       --ledger implies enabled collectors *)
    let obs =
      if trace_file <> None || ledger_file <> None || verbosity >= 2 then
        Qobs.Trace.create ()
      else Qobs.Trace.disabled
    in
    let metrics =
      if metrics_file <> None || ledger_file <> None then Qobs.Metrics.create ()
      else Qobs.Metrics.disabled
    in
    let r =
      with_ledger ledger_file @@ fun ledger ->
      Qcc.Compiler.compile ~config:(config topology width arch) ~obs ~metrics
        ?ledger
        ?source_label:(source_label ~qasm_file:qasm ~benchmark:bench)
        ~strategy circuit
    in
    print_result r;
    Option.iter
      (fun path ->
        Qobs.Trace.write_chrome_file path obs;
        wrote path)
      trace_file;
    Option.iter
      (fun path ->
        Qobs.Metrics.write_file path metrics;
        wrote path)
      metrics_file;
    Option.iter
      (fun path ->
        Qobs.Json.write_file path (Qcc.Report.result_to_json r);
        wrote path)
      json_file;
    if verbosity >= 2 then begin
      print_string (Qobs.Trace.to_text obs);
      Format.printf "%a@." Qsched.Schedule.pp r.Qcc.Compiler.schedule
    end
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a circuit under one strategy.")
    Term.(const run $ qasm_arg $ bench_arg $ strategy_arg $ topology_arg
          $ width_arg $ arch_arg $ trace_arg $ metrics_arg $ json_arg
          $ ledger_arg $ verbosity_arg)

let compare_cmd =
  let run qasm benches topology width arch json_file ledger_file jobs =
    or_die @@ fun () ->
    Option.iter check_output_dir json_file;
    let jobs = check_jobs jobs in
    let cfg = config topology width arch in
    let rows =
      with_ledger ledger_file @@ fun ledger ->
      match (qasm, benches) with
      | Some _, _ :: _ ->
        failwith "give either a QASM file or benchmarks, not both"
      | None, (_ :: _ as benches) ->
        (* every benchmark×strategy cell becomes a pool job (at -j 1 the
           pool is the caller's domain); circuits are loaded (and the lazy
           suite entries forced) here on the caller's domain, before any
           worker spawns *)
        Qcc.Compiler.compile_matrix ~config:cfg ?ledger ~jobs
          (List.map
             (fun name ->
               (name, load_circuit ~qasm_file:None ~benchmark:(Some name)))
             benches)
      | _ ->
        [ ( "circuit",
            Qcc.Compiler.compile_all ~config:cfg ?ledger
              ?source_label:(source_label ~qasm_file:qasm ~benchmark:None)
              ~jobs
              (load_circuit ~qasm_file:qasm ~benchmark:None) ) ]
    in
    Qcc.Report.print_speedup_table ~header:"normalized latency (isa = 1.0)"
      ?json:json_file rows
  in
  let benches =
    Arg.(value & opt_all string []
         & info [ "b"; "benchmark" ]
             ~doc:"Built-in benchmark name (repeatable; see bench-list).")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all strategies on one or more circuits.")
    Term.(const run $ qasm_arg $ benches $ topology_arg $ width_arg
          $ arch_arg $ json_arg $ ledger_arg $ jobs_arg)

(* per-pass wall-time matrix: compile each benchmark under each strategy
   with tracing on, then read the pass spans back out of result.trace *)
let profile_cmd =
  let canonical_passes = Qcc.Compiler.canonical_passes () in
  let run benches strategies topology width arch format jobs =
    or_die @@ fun () ->
    let jobs = check_jobs jobs in
    let benches = if benches = [] then [ "maxcut-line" ] else benches in
    let strategies =
      match strategies with
      | [] -> Qcc.Strategy.all
      | names -> List.map Qcc.Strategy.of_string names
    in
    let config = config topology width arch in
    let find_bench bname =
      try Qapps.Suite.find bname
      with Not_found ->
        failwith
          (Printf.sprintf "unknown benchmark %S (see qcc bench-list)" bname)
    in
    (* one compile per (benchmark, strategy) cell, tracing + metrics on;
       the json rendering reads the same spans the text table does, plus
       the per-pass GC allocation columns. All cells are computed up
       front — with -j N, as jobs on the domain pool (private per-cell
       collectors, no shared cache: each cell is an independent measured
       compile) — and regrouped per benchmark for rendering. *)
    let bench_cells =
      let circuits =
        List.map (fun b -> (b, Qapps.Suite.lowered (find_bench b))) benches
      in
      let n_strat = List.length strategies in
      let cells =
        Array.of_list
          (List.concat_map
             (fun (_, circuit) ->
               List.map (fun s -> (circuit, s)) strategies)
             circuits)
      in
      let compile_cell (circuit, strategy) =
        let obs = Qobs.Trace.create () in
        let metrics = Qobs.Metrics.create () in
        let r = Qcc.Compiler.compile ~config ~obs ~metrics ~strategy circuit in
        (strategy, r, metrics)
      in
      let results =
        Qcc.Parallel.map ~jobs ~init:Qcc.Compiler.reset_all_memos
          (fun _ cell -> compile_cell cell)
          cells
      in
      List.mapi
        (fun bi (bname, circuit) ->
          (bname, circuit,
           List.init n_strat (fun si -> results.((bi * n_strat) + si))))
        circuits
    in
    let profile_json () =
      let open Qobs.Json in
      let bench_obj (bname, circuit, compiled) =
        let strategy_obj (strategy, r, metrics) =
          let passes =
            match r.Qcc.Compiler.trace with
            | None -> []
            | Some root -> List.map Qobs.Ledger.pass_row (Qobs.Span.children root)
          in
          Obj
            [ ("strategy", Str (Qcc.Strategy.to_string strategy));
              ("latency_ns", Float r.Qcc.Compiler.latency);
              ("instructions", Int r.Qcc.Compiler.n_instructions);
              ("swaps", Int r.Qcc.Compiler.n_swaps_inserted);
              ("merges", Int r.Qcc.Compiler.n_merges);
              ("compile_time_s", Float r.Qcc.Compiler.compile_time);
              ("passes", List passes);
              ("metrics", Qobs.Metrics.to_json metrics) ]
        in
        Obj
          [ ("benchmark", Str bname);
            ("n_qubits", Int (Qgate.Circuit.n_qubits circuit));
            ("n_gates", Int (Qgate.Circuit.n_gates circuit));
            ("strategies", List (List.map strategy_obj compiled)) ]
      in
      print_endline
        (to_string
           (Obj
              [ ("schema", Str "qcc.profile/1");
                ("benchmarks", List (List.map bench_obj bench_cells)) ]))
    in
    let profile_text () =
    List.iter
      (fun (bname, circuit, compiled) ->
        Printf.printf "\n==== %s (%d qubits, %d gates) ====\n" bname
          (Qgate.Circuit.n_qubits circuit)
          (Qgate.Circuit.n_gates circuit);
        let shown_passes =
          List.filter
            (fun p ->
              List.exists
                (fun (s, _, _) -> List.mem p (Qcc.Compiler.passes s))
                compiled)
            canonical_passes
        in
        let cell fmt = Printf.printf " %12s" fmt in
        Printf.printf "%-14s" "pass (ms)";
        List.iter
          (fun (s, _, _) -> cell (Qcc.Strategy.to_string s))
          compiled;
        print_newline ();
        let span_ms r name =
          match r.Qcc.Compiler.trace with
          | None -> None
          | Some root ->
            (match Qobs.Span.find_all ~name root with
             | [] -> None
             | spans ->
               Some
                 (List.fold_left
                    (fun acc s -> acc +. Qobs.Span.duration_ns s)
                    0. spans
                  /. 1e6))
        in
        List.iter
          (fun pass ->
            Printf.printf "%-14s" pass;
            List.iter
              (fun (_, r, _) ->
                match span_ms r pass with
                | Some ms -> cell (Printf.sprintf "%.3f" ms)
                | None -> cell "-")
              compiled;
            print_newline ())
          shown_passes;
        Printf.printf "%-14s" "total";
        List.iter
          (fun (_, r, _) -> cell (Printf.sprintf "%.3f" (Option.value ~default:0. (span_ms r "compile"))))
          compiled;
        print_newline ();
        let metric_row label value =
          Printf.printf "%-14s" label;
          List.iter (fun entry -> cell (value entry)) compiled;
          print_newline ()
        in
        metric_row "latency (ns)" (fun (_, r, _) ->
            Printf.sprintf "%.1f" r.Qcc.Compiler.latency);
        metric_row "instructions" (fun (_, r, _) ->
            string_of_int r.Qcc.Compiler.n_instructions);
        metric_row "swaps" (fun (_, r, _) ->
            string_of_int r.Qcc.Compiler.n_swaps_inserted);
        metric_row "merges" (fun (_, r, _) ->
            string_of_int r.Qcc.Compiler.n_merges);
        let counter name (_, _, m) =
          string_of_int (Qobs.Metrics.counter_value m name)
        in
        metric_row "commute fast" (counter "commute.route.structural");
        metric_row "commute dense" (counter "commute.route.dense");
        metric_row "agg attempted" (counter "agg.attempted");
        metric_row "agg accepted" (counter "agg.accepted");
        metric_row "agg vetoed" (counter "agg.vetoed_monotonic");
        Printf.printf "%!")
      bench_cells
    in
    match format with
    | "text" -> profile_text ()
    | "json" -> profile_json ()
    | f -> failwith (Printf.sprintf "unknown format %S (text | json)" f)
  in
  let benches =
    Arg.(value & opt_all string []
         & info [ "b"; "benchmark" ]
             ~doc:"Benchmark to profile (repeatable; default maxcut-line).")
  in
  let strategies =
    Arg.(value & opt_all string []
         & info [ "s"; "strategy" ]
             ~doc:"Strategy to profile (repeatable; default all five).")
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ]
             ~doc:"Report format: text (default) or json (schema \
                   qcc.profile/1, with per-pass wall time and GC \
                   allocation).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Compile a benchmark/strategy matrix with tracing on and print \
             the per-pass wall-time breakdown plus headline metrics.")
    Term.(const run $ benches $ strategies $ topology_arg $ width_arg
          $ arch_arg $ format $ jobs_arg)

let stats_cmd =
  let run files base format top =
    or_die @@ fun () ->
    if files = [] then failwith "give at least one ledger file";
    let read path =
      match Qobs.Ledger.read_file path with
      | Ok rows -> rows
      | Error msg -> failwith msg
    in
    let cur = Qobs.Stats.of_rows (List.concat_map read files) in
    match base with
    | None ->
      (match format with
       | "text" -> Format.printf "%a" (Qobs.Stats.pp_text ~top) cur
       | "json" -> print_endline (Qobs.Json.to_string (Qobs.Stats.to_json cur))
       | f -> failwith (Printf.sprintf "unknown format %S (text | json)" f))
    | Some base_path ->
      let d = Qobs.Stats.diff ~base:(Qobs.Stats.of_rows (read base_path)) ~cur in
      (match format with
       | "text" -> Format.printf "%a" (Qobs.Stats.pp_diff ~top) d
       | "json" ->
         print_endline (Qobs.Json.to_string (Qobs.Stats.diff_to_json d))
       | f -> failwith (Printf.sprintf "unknown format %S (text | json)" f))
  in
  let files =
    Arg.(value & pos_all file []
         & info [] ~docv:"LEDGER"
             ~doc:"Ledger JSONL file(s) written by --ledger (concatenated).")
  in
  let base =
    Arg.(value & opt (some file) None
         & info [ "diff" ] ~docv:"BASE"
             ~doc:"Diff against a baseline ledger: per-pass wall-time \
                   movers, compile-time and cache-rate deltas.")
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ]
             ~doc:"Report format: text (default) or json (schema qcc.stats/1).")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K" ~doc:"Rows in the slowest-passes table.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Aggregate flight-recorder ledgers (qcc.ledger/1): slowest \
             passes by wall time and allocation, stage-cache hit rates, \
             commutation route mix; --diff compares two ledgers.")
    Term.(const run $ files $ base $ format $ top)

let bench_list_cmd =
  let run () =
    List.iter
      (fun (b : Qapps.Suite.benchmark) ->
        let c = Lazy.force b.Qapps.Suite.circuit in
        Printf.printf "%-16s %-12s qubits=%d (paper: %d) gates=%d  %s\n"
          b.Qapps.Suite.name b.Qapps.Suite.application
          (Qgate.Circuit.n_qubits c) b.Qapps.Suite.paper_qubits
          (Qgate.Circuit.n_gates c) b.Qapps.Suite.purpose)
      Qapps.Suite.all
  in
  Cmd.v (Cmd.info "bench-list" ~doc:"List built-in benchmarks.")
    Term.(const run $ const ())

let lint_cmd =
  let run qasm bench strategy topology width arch format semantic ancillas
      threshold explain =
    or_die @@ fun () ->
    match explain with
    | Some code ->
      (* --explain needs no input circuit: print the registry entry *)
      (match Qlint.Registry.explain code with
       | Some text -> print_endline text
       | None ->
         failwith
           (Printf.sprintf "unknown diagnostic code %S (see the QL glossary \
                            in the README)" code))
    | None ->
      let threshold =
        match threshold with
        | None -> None
        | Some "warning" -> Some Qlint.Diagnostic.Warning
        | Some "error" -> Some Qlint.Diagnostic.Error
        | Some s ->
          failwith
            (Printf.sprintf "unknown severity threshold %S (warning | error)" s)
      in
      let render report =
        (match format with
         | "text" -> Format.printf "%a" Qlint.Report.pp_text report
         | "json" -> Format.printf "%a" Qlint.Report.pp_json report
         | "sarif" -> Format.printf "%a" Qlint.Sarif.pp report
         | f ->
           failwith (Printf.sprintf "unknown format %S (text | json | sarif)" f));
        let fails =
          match threshold with
          | Some sev -> Qlint.Report.has_at_least sev report
          | None -> Qlint.Report.has_errors report
        in
        if fails then exit 1
      in
      (* front-door lint: QASM parse + well-formedness before compiling *)
      let input_diags =
        match (qasm, bench) with
        | Some _, Some _ ->
          failwith "give either a QASM file or a benchmark, not both"
        | Some path, None ->
          Qlint.Check_circuit.lint_qasm_file ~stage:"input" path
        | _ ->
          Qlint.Check_circuit.run ~stage:"input" ~warn_unused:true
            (load_circuit ~qasm_file:qasm ~benchmark:bench)
      in
      if List.exists Qlint.Diagnostic.is_error input_diags then
        render (Qlint.Report.of_list input_diags)
      else begin
        let circuit = load_circuit ~qasm_file:qasm ~benchmark:bench in
        let strategy = Qcc.Strategy.of_string strategy in
        let cfg = config topology width arch in
        (* semantic lints interpret the input circuit abstractly; the
           aggregation-opportunity lints need the compiled GDG *)
        let semantic_diags =
          if semantic then
            Qlint.Check_semantic.run ~stage:"input" ~ancillas circuit
          else []
        in
        let compiled, aggop_diags =
          match
            Qcc.Compiler.compile ~config:cfg ~check:true ~strategy circuit
          with
          | r ->
            let aggop =
              if semantic then
                Qlint.Check_aggop.run ~stage:"aggregate"
                  ~gate_time:
                    (Qcontrol.Latency_model.gate_time cfg.Qcc.Backend.device)
                  ~width_limit:cfg.Qcc.Backend.width_limit r.Qcc.Compiler.gdg
              else []
            in
            (r.Qcc.Compiler.diagnostics, aggop)
          | exception Qlint.Report.Check_failed rep ->
            (Qlint.Report.diagnostics rep, [])
        in
        render
          (Qlint.Report.of_list
             (input_diags @ semantic_diags @ compiled @ aggop_diags))
      end
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ]
             ~doc:"Report format: text (default), json or sarif (SARIF 2.1.0).")
  in
  let semantic =
    Arg.(value & flag
         & info [ "semantic" ]
             ~doc:"Also run the semantic lints: abstract-interpretation \
                   circuit checks (QL06x) and aggregation-opportunity \
                   checks over the compiled GDG (QL07x).")
  in
  let ancillas =
    Arg.(value & opt_all int []
         & info [ "ancilla" ] ~docv:"QUBIT"
             ~doc:"Declare a qubit as an ancilla for QL063 (must be \
                   provably returned to |0>). Repeatable; only meaningful \
                   with --semantic.")
  in
  let threshold =
    Arg.(value & opt (some string) None
         & info [ "severity-threshold" ] ~docv:"SEV"
             ~doc:"Exit 1 when any diagnostic at or above this severity \
                   (warning | error) is reported. Default: error.")
  in
  let explain =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"CODE"
             ~doc:"Explain a diagnostic code (e.g. QL060) and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static checkers (circuit, GDG, schedule, mapping, \
             aggregation, and with --semantic the abstract-interpretation \
             lints) over a full compilation; exit 1 on any error \
             diagnostic (tunable with --severity-threshold).")
    Term.(const run $ qasm_arg $ bench_arg $ strategy_arg $ topology_arg
          $ width_arg $ arch_arg $ format $ semantic $ ancillas $ threshold
          $ explain)

let analyze_cmd =
  let run qasm bench topology width arch format =
    or_die @@ fun () ->
    let circuit = load_circuit ~qasm_file:qasm ~benchmark:bench in
    let cfg = config topology width arch in
    let metrics = Qobs.Metrics.create () in
    Qobs.Metrics.with_ambient metrics @@ fun () ->
    let cr = Qflow.Analysis.circuit circuit in
    let gdg =
      Qgdg.Gdg.of_circuit
        ~latency:
          (Qcontrol.Latency_model.block_time
             ~width_limit:cfg.Qcc.Backend.width_limit cfg.Qcc.Backend.device)
        circuit
    in
    let gr = Qflow.Analysis.gdg gdg in
    let klass_counts =
      List.map
        (fun k ->
          ( k,
            List.length
              (List.filter
                 (fun (i : Qflow.Analysis.inst_info) ->
                   i.Qflow.Analysis.summary.Qgdg.Oracle.klass = k)
                 gr.Qflow.Analysis.insts) ))
        [ Qgdg.Oracle.Identity; Qgdg.Oracle.Diagonal; Qgdg.Oracle.Clifford;
          Qgdg.Oracle.Phase_linear; Qgdg.Oracle.General ]
    in
    let hits = Qobs.Metrics.counter_value metrics "qflow.summary.hit" in
    let misses = Qobs.Metrics.counter_value metrics "qflow.summary.miss" in
    (match format with
     | "text" ->
       Printf.printf "circuit: %d qubits, %d gates\n" cr.Qflow.Analysis.n_qubits
         cr.Qflow.Analysis.n_gates;
       Printf.printf "final abstract state:\n";
       Array.iteri
         (fun q v ->
           Printf.printf "  q%-3d %s\n" q (Qflow.Absval.to_string v))
         cr.Qflow.Analysis.final;
       (match cr.Qflow.Analysis.dead with
        | [] -> Printf.printf "dead gates: none\n"
        | dead ->
          Printf.printf "dead gates: %d\n" (List.length dead);
          List.iter
            (fun (i, g) ->
              Printf.printf "  [%d] %s\n" i (Qgate.Gate.to_string g))
            dead);
       Printf.printf "gdg: %d instructions, %d transfer steps\n"
         (List.length gr.Qflow.Analysis.insts) gr.Qflow.Analysis.steps;
       Printf.printf "summary klasses:";
       List.iter
         (fun (k, n) ->
           if n > 0 then
             Printf.printf " %s=%d" (Qgdg.Oracle.klass_to_string k) n)
         klass_counts;
       print_newline ();
       Printf.printf "summary cache: %d hits, %d misses\n" hits misses
     | "json" ->
       let open Qobs.Json in
       let j =
         Obj
           [ ("schema", Str "qcc.analyze/1");
             ("n_qubits", Int cr.Qflow.Analysis.n_qubits);
             ("n_gates", Int cr.Qflow.Analysis.n_gates);
             ( "final",
               List
                 (Array.to_list
                    (Array.map
                       (fun v -> Str (Qflow.Absval.to_string v))
                       cr.Qflow.Analysis.final)) );
             ( "dead",
               List
                 (List.map
                    (fun (i, g) ->
                      Obj
                        [ ("gate_index", Int i);
                          ("gate", Str (Qgate.Gate.to_string g)) ])
                    cr.Qflow.Analysis.dead) );
             ("instructions", Int (List.length gr.Qflow.Analysis.insts));
             ("transfer_steps", Int gr.Qflow.Analysis.steps);
             ( "klasses",
               Obj
                 (List.map
                    (fun (k, n) -> (Qgdg.Oracle.klass_to_string k, Int n))
                    klass_counts) );
             ( "summary_cache",
               Obj [ ("hits", Int hits); ("misses", Int misses) ] ) ]
       in
       print_endline (to_string j)
     | f -> failwith (Printf.sprintf "unknown format %S (text | json)" f))
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ] ~doc:"Report format: text (default) or json.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the forward abstract interpretation (Qflow) over a \
             circuit: per-qubit final abstract states, provably dead \
             gates, per-instruction algebraic summary classes and the \
             summary-cache hit/miss counters.")
    Term.(const run $ qasm_arg $ bench_arg $ topology_arg $ width_arg
          $ arch_arg $ format)

let certify_cmd =
  let run qasm bench strategies topology width arch format jobs =
    or_die @@ fun () ->
    let jobs = check_jobs jobs in
    let circuit = load_circuit ~qasm_file:qasm ~benchmark:bench in
    let strategies =
      match strategies with
      | [] -> Qcc.Strategy.all
      | names -> List.map Qcc.Strategy.of_string names
    in
    let cfg = config topology width arch in
    (* a refuted boundary is a per-strategy verdict, not a pool failure:
       catch it inside the job so every strategy still reports *)
    let cert_of strategy =
      match
        Qcc.Compiler.compile ~config:cfg ~certify:true ~strategy circuit
      with
      | r -> Option.get r.Qcc.Compiler.certificate
      | exception Qcert.Certificate.Certification_failed c -> c
    in
    let certs =
      Array.to_list
        (Qcc.Parallel.map ~jobs ~init:Qcc.Compiler.reset_all_memos
           (fun _ strategy -> cert_of strategy)
           (Array.of_list strategies))
    in
    (match format with
     | "text" ->
       List.iter (fun c -> Format.printf "%a@." Qcert.Certificate.pp c) certs
     | "json" ->
       print_endline
         (Qobs.Json.to_string
            (Qobs.Json.Obj
               [ ("schema", Qobs.Json.Str "qcc.certify/1");
                 ("results",
                  Qobs.Json.List (List.map Qcert.Certificate.to_json certs)) ]))
     | f -> failwith (Printf.sprintf "unknown format %S (text | json)" f));
    if not (List.for_all Qcert.Certificate.ok certs) then exit 1
  in
  let strategies =
    Arg.(value & opt_all string []
         & info [ "s"; "strategy" ]
             ~doc:"Strategy to certify (repeatable; default all five).")
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ] ~doc:"Report format: text (default) or json.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:(Printf.sprintf
               "Translation-validate a compilation: prove every pass boundary \
                (lowering, GDG, contraction, scheduling, routing, \
                aggregation, end-to-end) and print the per-boundary \
                certificate; exit 1 on any refuted boundary. The dense \
                end-to-end check runs only on registers of at most %d sites; \
                a wider register records a QC001 skip."
               Qcert.Pipeline.end_to_end_limit))
    Term.(const run $ qasm_arg $ bench_arg $ strategies $ topology_arg
          $ width_arg $ arch_arg $ format $ jobs_arg)

let verify_cmd =
  let run qasm bench topology width arch samples format =
    or_die @@ fun () ->
    let circuit = load_circuit ~qasm_file:qasm ~benchmark:bench in
    let r =
      Qcc.Compiler.compile ~config:(config topology width arch)
        ~strategy:Qcc.Strategy.Cls_aggregation circuit
    in
    let rng = Qgraph.Rand.create 2025 in
    let report =
      Qsim.Verify.verify_sampled ~samples rng (device_of arch)
        (Qcc.Compiler.blocks r)
    in
    (match format with
     | "text" -> Format.printf "@[<v>%a@]@." Qsim.Verify.pp_report report
     | "json" ->
       print_endline (Qobs.Json.to_string (Qsim.Verify.report_to_json report))
     | f -> failwith (Printf.sprintf "unknown format %S (text | json)" f))
  in
  let samples =
    Arg.(value & opt int 10 & info [ "n"; "samples" ] ~doc:"Blocks to sample.")
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ] ~doc:"Report format: text (default) or json.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify sampled aggregated instructions (unitary + pulse).")
    Term.(const run $ qasm_arg $ bench_arg $ topology_arg $ width_arg $ arch_arg
          $ samples $ format)

let pulse_cmd =
  let run gate duration =
    or_die @@ fun () ->
    let target, n_qubits, couplings =
      match gate with
      | "x" -> (Qgate.Unitary.of_kind Qgate.Gate.X, 1, [])
      | "h" -> (Qgate.Unitary.of_kind Qgate.Gate.H, 1, [])
      | "cnot" | "cx" -> (Qgate.Unitary.of_kind Qgate.Gate.Cnot, 2, [ (0, 1) ])
      | "iswap" -> (Qgate.Unitary.of_kind Qgate.Gate.Iswap, 2, [ (0, 1) ])
      | "swap" -> (Qgate.Unitary.of_kind Qgate.Gate.Swap, 2, [ (0, 1) ])
      | "zz" -> (Qgate.Unitary.of_kind (Qgate.Gate.Rzz 5.67), 2, [ (0, 1) ])
      | g -> failwith (Printf.sprintf "unknown gate %S (x h cnot iswap swap zz)" g)
    in
    let problem =
      { Qcontrol.Grape.n_qubits;
        couplings;
        target;
        duration;
        n_steps = max 20 (int_of_float duration);
        device = Qcontrol.Device.default }
    in
    let r = Qcontrol.Grape.optimize problem in
    Printf.printf "fidelity %.5f after %d iterations (converged: %b)\n"
      r.Qcontrol.Grape.fidelity r.Qcontrol.Grape.iterations
      r.Qcontrol.Grape.converged;
    Format.printf "%a@." Qcontrol.Pulse.pp r.Qcontrol.Grape.pulse
  in
  let gate =
    Arg.(value & pos 0 string "iswap" & info [] ~docv:"GATE" ~doc:"Gate name.")
  in
  let duration =
    Arg.(value & opt float 60. & info [ "d"; "duration" ] ~doc:"Pulse length (ns).")
  in
  Cmd.v (Cmd.info "pulse" ~doc:"GRAPE-synthesize a pulse for a named gate.")
    Term.(const run $ gate $ duration)

let export_cmd =
  let run qasm bench strategy topology width arch out_dir =
    or_die @@ fun () ->
    let circuit = load_circuit ~qasm_file:qasm ~benchmark:bench in
    let strategy = Qcc.Strategy.of_string strategy in
    make_output_dir out_dir;
    let r =
      Qcc.Compiler.compile ~config:(config topology width arch) ~strategy circuit
    in
    let path name = Filename.concat out_dir name in
    Qviz.Dot.write_file (path "gdg.dot") r.Qcc.Compiler.gdg;
    Qviz.Timeline.write_svg (path "schedule.svg") r.Qcc.Compiler.schedule;
    Qviz.Timeline.write_json (path "schedule.json") r.Qcc.Compiler.schedule;
    print_result r;
    Printf.printf "wrote %s, %s, %s
" (path "gdg.dot") (path "schedule.svg")
      (path "schedule.json")
  in
  let out_dir =
    Arg.(value & opt string "qcc-out"
         & info [ "o"; "output" ] ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Compile and write the GDG (DOT) and schedule (SVG + JSON).")
    Term.(const run $ qasm_arg $ bench_arg $ strategy_arg $ topology_arg
          $ width_arg $ arch_arg $ out_dir)

let () =
  let doc = "optimized compilation of aggregated quantum instructions" in
  let info = Cmd.info "qcc" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval (Cmd.group info
                [ compile_cmd; compare_cmd; profile_cmd; stats_cmd;
                  bench_list_cmd; lint_cmd; analyze_cmd; certify_cmd;
                  verify_cmd; pulse_cmd; export_cmd ])
  in
  (* a usage error Cmdliner catches exits 2, as [or_die]'s do *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
