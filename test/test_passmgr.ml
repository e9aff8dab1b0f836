(* pass-manager regression suite: pins the registry-driven driver to the
   pre-refactor pipelines (golden data generated by test/golden/gen.ml)
   and exercises the stage cache's sharing and isolation guarantees *)

open Util
module Compiler = Qcc.Compiler
module Backend = Qcc.Backend
module Strategy = Qcc.Strategy
module Pipeline = Qcc.Pipeline
module Pass = Qcc.Pass
module Ir = Qcc.Ir
module Stages = Qcc.Stages
module Gdg = Qgdg.Gdg
module Json = Qobs.Json

let read_json path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

let str field j =
  match Json.member field j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S" field

let int_field field j =
  match Json.member field j with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "missing int field %S" field

let certificate_digest c =
  Digest.to_hex (Digest.string (Json.to_string (Qcert.Certificate.to_json c)))

let circuit_of name = Qapps.Suite.lowered (Qapps.Suite.find name)

(* (benchmark, strategy) -> golden entry *)
let golden_entries =
  lazy
    (match read_json "golden/compile_golden.json" with
     | Json.Obj _ as doc ->
       (match Json.member "entries" doc with
        | Some (Json.List entries) ->
          List.map (fun e -> ((str "benchmark" e, str "strategy" e), e)) entries
        | _ -> Alcotest.fail "golden: no entries array")
     | _ -> Alcotest.fail "golden: not an object")

let check_against_golden ~id bench (results : (Strategy.t * Compiler.result) list)
    =
  List.iter
    (fun ((s : Strategy.t), (r : Compiler.result)) ->
      let key = (bench, Strategy.to_string s) in
      let e =
        match List.assoc_opt key (Lazy.force golden_entries) with
        | Some e -> e
        | None ->
          Alcotest.failf "no golden entry for %s/%s" bench
            (Strategy.to_string s)
      in
      let where = Printf.sprintf "%s/%s (%s)" bench (Strategy.to_string s) id in
      Alcotest.(check string)
        (where ^ " latency") (str "latency_hex" e)
        (Printf.sprintf "%h" r.Compiler.latency);
      check_int (where ^ " merges") (int_field "merges" e) r.Compiler.n_merges;
      check_int (where ^ " swaps") (int_field "swaps" e)
        r.Compiler.n_swaps_inserted;
      check_int (where ^ " instructions")
        (int_field "instructions" e)
        r.Compiler.n_instructions;
      match (Json.member "certificate_digest" e, r.Compiler.certificate) with
      | Some (Json.Str d), Some c ->
        Alcotest.(check string) (where ^ " certificate") d (certificate_digest c)
      | Some _, None -> ()  (* compiled without ~certify; nothing to pin *)
      | Some _, Some _ -> Alcotest.failf "%s: malformed golden digest" where
      | None, _ -> ())
    results

let golden_cases =
  (* same matrix as test/golden/gen.ml: every Table 3 benchmark through
     all five strategies with the shared per-circuit cache; the certified
     subset also pins certificate digests. The two largest sqrt cells
     take seconds, so they run only in the full (non-quick) suite. *)
  List.map
    (fun bench ->
      let certify = List.mem bench [ "maxcut-line"; "uccsd-n4" ] in
      let mk =
        if List.mem bench [ "sqrt-n4"; "sqrt-n5" ] then slow_case else case
      in
      mk (Printf.sprintf "golden: %s" bench) (fun () ->
          let circuit = circuit_of bench in
          check_against_golden ~id:"cached" bench
            (Compiler.compile_all ~certify circuit)))
    [ "maxcut-line"; "maxcut-reg4"; "maxcut-cluster"; "ising-n30"; "ising-n60";
      "sqrt-n3"; "sqrt-n4"; "sqrt-n5"; "uccsd-n4"; "uccsd-n6" ]

let cache_cases =
  [ case "cache on/off produces identical results" (fun () ->
        let circuit = circuit_of "maxcut-line" in
        List.iter
          (fun strategy ->
            let uncached = Compiler.compile ~strategy circuit in
            check_against_golden
              ~id:"uncached"
              "maxcut-line"
              [ (strategy, uncached) ])
          Strategy.all);
    case "compile_all shares the strategy-prefix artifacts" (fun () ->
        (* every strategy lowers the same circuit (4 hits after the
           first), and isa/aggregation additionally share placement and
           routing (2 more) *)
        let cache = Pipeline.Cache.create () in
        ignore (Compiler.compile_all ~cache (circuit_of "maxcut-line"));
        check_int "hits" 6 (Pipeline.Cache.hits cache);
        check_bool "misses counted" true (Pipeline.Cache.misses cache > 0));
    case "hits are physically shared artifacts" (fun () ->
        let circuit = circuit_of "maxcut-line" in
        let cache = Pipeline.Cache.create () in
        let r1 = Compiler.compile ~cache ~strategy:Strategy.Cls circuit in
        let r2 = Compiler.compile ~cache ~strategy:Strategy.Cls circuit in
        check_bool "same gdg" true (r1.Compiler.gdg == r2.Compiler.gdg);
        check_bool "same schedule" true
          (r1.Compiler.schedule == r2.Compiler.schedule);
        check_float "same latency" r1.Compiler.latency r2.Compiler.latency);
    case "distinct backends never share" (fun () ->
        let circuit = circuit_of "maxcut-line" in
        let cache = Pipeline.Cache.create () in
        let r1 = Compiler.compile ~cache ~strategy:Strategy.Isa circuit in
        let config = { Backend.default with width_limit = 4 } in
        let r2 = Compiler.compile ~config ~cache ~strategy:Strategy.Isa circuit in
        check_int "no cross-backend hits" 0 (Pipeline.Cache.hits cache);
        check_bool "distinct gdg" true (r1.Compiler.gdg != r2.Compiler.gdg));
    case "Ir.clone isolates mutable graphs" (fun () ->
        (* detect and aggregate contract their input graph in place; the
           driver hands them a clone whenever the input came from (or
           will enter) the cache, so cached artifacts stay pristine *)
        let circuit = circuit_of "maxcut-line" in
        let gdg = Gdg.of_circuit ~latency:(fun _ -> 1.) circuit in
        let art : Ir.gdg_built =
          { Ir.l = { Ir.base = circuit; circuit }; gdg; merges = 0;
            route = None }
        in
        let copy = Ir.clone Ir.Gdg_built art in
        check_bool "distinct graph" true (copy.Ir.gdg != art.Ir.gdg);
        check_int "same size" (Gdg.size art.Ir.gdg) (Gdg.size copy.Ir.gdg));
    case "contraction under a cache leaves results stable" (fun () ->
        let circuit = circuit_of "uccsd-n4" in
        let cache = Pipeline.Cache.create () in
        let cached = Compiler.compile ~cache ~strategy:Strategy.Cls circuit in
        let uncached = Compiler.compile ~strategy:Strategy.Cls circuit in
        check_int "merges stable" uncached.Compiler.n_merges
          cached.Compiler.n_merges;
        check_float "latency stable" uncached.Compiler.latency
          cached.Compiler.latency);
    case "cache hit metric is ticked" (fun () ->
        let metrics = Qobs.Metrics.create () in
        let cache = Pipeline.Cache.create () in
        ignore (Compiler.compile_all ~metrics ~cache (circuit_of "maxcut-line"));
        check_int "pipeline.cache.hit" 6
          (Qobs.Metrics.counter_value metrics "pipeline.cache.hit");
        check_bool "pipeline.cache.miss" true
          (Qobs.Metrics.counter_value metrics "pipeline.cache.miss" > 0)) ]

(* run a pass list on maxcut-line with no collectors, lint or cache *)
let run_passes passes =
  Pipeline.run ~ctx:(Pass.ctx ()) passes (circuit_of "maxcut-line")

let expect_invalid msg passes =
  match run_passes passes with
  | _ -> Alcotest.failf "no Invalid_argument %S" msg
  | exception Invalid_argument m -> Alcotest.(check string) "message" msg m

(* the compiler's complaint about a sequence under test/ill_typed/: the
   dune rule fails unless compilation does, and a type error (not, say,
   an unbound module) must name the stage that does not line up *)
let expect_type_error name stage =
  let ic = open_in_bin (Printf.sprintf "ill_typed/%s.err" name) in
  let err = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_bool (name ^ ": type error") true
    (contains ~needle:"This expression has type" err);
  check_bool (Printf.sprintf "%s: names %s" name stage) true
    (contains ~needle:stage err)

let attr_int (span : Qobs.Span.t) key =
  match List.assoc_opt key span.Qobs.Span.attrs with
  | Some (Qobs.Span.Int v) -> v
  | _ -> Alcotest.failf "span %s: no int attribute %S" span.Qobs.Span.name key

let registry_cases =
  [ case "every strategy's pass sequence composes" (fun () ->
        List.iter
          (fun s ->
            let c = run_passes (Strategy.passes s) in
            check_bool (Strategy.to_string s) true (c.Ir.latency > 0.))
          Strategy.all);
    (* composition is a type fact: test/ill_typed/dune compiles sequences
       that must not type-check and captures the compiler's complaint *)
    case "truncated sequence is rejected" (fun () ->
        expect_type_error "truncated" "Ir.lowered";
        expect_type_error "misordered" "Ir.placed");
    case "a sequence that stops before schedule is rejected" (fun () ->
        expect_type_error "unfinished" "Ir.scheduled");
    case "aggregate refuses an unrouted graph" (fun () ->
        expect_invalid "Stages.aggregate: unrouted GDG"
          Stages.
            [ lower; gdg_of_lowered ~cost:Model ~lint:false; aggregate;
              asap_final ]);
    case "the final schedule must be routed" (fun () ->
        expect_invalid "Pipeline.run: final schedule is not routed"
          Stages.[ lower; gdg_of_lowered ~cost:Serial ~lint:false; cls_final ]);
    case "compile and route spans carry their counts on every strategy"
      (fun () ->
        let circuit = circuit_of "maxcut-reg4" in
        let lowered = Qgate.Decompose.to_isa circuit in
        List.iter
          (fun strategy ->
            let where = Strategy.to_string strategy in
            let obs = Qobs.Trace.create () in
            let r = Compiler.compile ~obs ~strategy circuit in
            match r.Compiler.trace with
            | None -> Alcotest.failf "%s: no trace" where
            | Some root ->
              check_int (where ^ " qubits")
                (Qgate.Circuit.n_qubits lowered) (attr_int root "qubits");
              check_int (where ^ " gates")
                (Qgate.Circuit.n_gates lowered) (attr_int root "gates");
              (match Qobs.Span.find_all ~name:"route" root with
               | [ route ] ->
                 check_int (where ^ " swaps") r.Compiler.n_swaps_inserted
                   (attr_int route "swaps")
               | spans ->
                 Alcotest.failf "%s: %d route spans" where (List.length spans)))
          Strategy.all);
    case "pass names are unique and name the compile span's children"
      (fun () ->
        (* the one composition fact types cannot state: span names must
           be unique within a strategy, and they are exactly the spans a
           traced compile opens under its root *)
        let circuit = circuit_of "maxcut-line" in
        List.iter
          (fun strategy ->
            let where = Strategy.to_string strategy in
            let names = Compiler.passes strategy in
            check_int (where ^ " unique") (List.length names)
              (List.length (List.sort_uniq compare names));
            let obs = Qobs.Trace.create () in
            let r = Compiler.compile ~obs ~strategy circuit in
            match r.Compiler.trace with
            | None -> Alcotest.failf "%s: no trace" where
            | Some root ->
              Alcotest.(check (list string))
                (where ^ " spans") names
                (List.map
                   (fun (s : Qobs.Span.t) -> s.Qobs.Span.name)
                   (Qobs.Span.children root)))
          Strategy.all);
    case "raising pass leaves the trace balanced" (fun () ->
        (* a pass that raises mid-run (as a failing lint checkpoint under
           ~check:true would) must still close its span, leave the open
           stack unwound, and leave the collector reusable *)
        let obs = Qobs.Trace.create () in
        let metrics = Qobs.Metrics.create () in
        let lint = ref [] in
        let ctx = Qcc.Pass.ctx ~obs ~metrics ~lint () in
        let boom =
          Pass.make ~name:"boom" ~fingerprint:"boom/test" ~out:Ir.Scheduled
            (fun _ (_ : Ir.lowered) -> failwith "boom")
        in
        let passes = Pass.[ Stages.lower; boom ] in
        let circuit = circuit_of "maxcut-line" in
        (try
           ignore
             (Qobs.Trace.with_span obs "compile" (fun () ->
                  Pipeline.run ~ctx passes circuit))
         with Failure _ -> ());
        (match Qobs.Trace.roots obs with
         | [ root ] ->
           Alcotest.(check string) "root span" "compile" root.Qobs.Span.name;
           Alcotest.(check (list string))
             "children closed in order" [ "lower"; "boom" ]
             (List.map
                (fun (s : Qobs.Span.t) -> s.Qobs.Span.name)
                (Qobs.Span.children root));
           List.iter
             (fun (s : Qobs.Span.t) ->
               check_bool (s.Qobs.Span.name ^ " closed") true
                 (s.Qobs.Span.stop_ns >= s.Qobs.Span.start_ns);
               (* the raising pass's span still carries its GC delta *)
               check_bool (s.Qobs.Span.name ^ " GC delta") true
                 (s.Qobs.Span.gc <> None))
             (root :: Qobs.Span.children root)
         | rs -> Alcotest.failf "expected 1 root, got %d" (List.length rs));
        (* the collector survives: a fresh span lands as a new root, not
           inside a leaked open span *)
        ignore (Qobs.Trace.with_span obs "after" (fun () -> ()));
        check_int "collector reusable" 2 (List.length (Qobs.Trace.roots obs))) ]

let canonical_cases =
  [ case "canonical order covers every strategy's passes" (fun () ->
        (* no single linear order can respect every strategy (isa builds
           its GDG after routing, cls before it) — the canonical list is
           a display order, so pin coverage and uniqueness *)
        let order = Compiler.canonical_passes () in
        List.iter
          (fun s ->
            List.iter
              (fun p ->
                check_bool
                  (Printf.sprintf "%s: %s listed" (Strategy.to_string s) p)
                  true (List.mem p order))
              (Compiler.passes s))
          Strategy.all;
        check_int "no duplicates"
          (List.length order)
          (List.length (List.sort_uniq compare order));
        check_bool "starts at lower" true (List.hd order = "lower");
        check_bool "ends at schedule" true
          (List.nth order (List.length order - 1) = "schedule")) ]

let suites =
  [ ("passmgr golden", golden_cases);
    ("passmgr cache", cache_cases);
    ("passmgr registry", registry_cases @ canonical_cases) ]
