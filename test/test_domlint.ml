(* domlint: the domain-safety analyzer over seeded sources, the DS0xx
   registry contract, and the runtime side of the discipline it gates —
   memo resets, metrics shard merging, concurrent ledger appends *)

open Util
module D = Domlint_lib
module Compiler = Qcc.Compiler
module Strategy = Qcc.Strategy
module Metrics = Qobs.Metrics

(* parse an inline implementation (and optional interface) and run the
   full scan → diagnose pipeline, as domlint does per file *)
let diags_of ?intf source =
  let structure = D.Scan.parse_implementation ~path:"seed.ml" source in
  let intf =
    match intf with
    | None -> D.Scan.No_intf
    | Some s -> D.Scan.intf_vals (D.Scan.parse_interface ~path:"seed.mli" s)
  in
  D.Check.diagnose [ D.Scan.scan_structure ~file:"seed.ml" ~intf structure ]

let codes_of diags = List.map (fun d -> d.D.Check.code) diags

let check_codes name expected diags =
  Alcotest.(check (list string)) name expected (codes_of diags)

let seeded_cases =
  [ case "DS010: private unclassified table" (fun () ->
        check_codes "codes" [ "DS010" ]
          (diags_of ~intf:"val get : string -> int option"
             "let counts = Hashtbl.create 8\nlet get k = Hashtbl.find_opt \
              counts k"));
    case "DS011: escaping unclassified ref" (fun () ->
        check_codes "codes" [ "DS011" ] (diags_of "let total = ref 0"));
    case "DS011: lazy escaping the module" (fun () ->
        check_codes "codes" [ "DS011" ]
          (diags_of "let table = lazy (List.init 10 string_of_int)"));
    case "DS020: domain_local memo without reset" (fun () ->
        check_codes "codes" [ "DS020" ]
          (diags_of
             "let memo = Domain.DLS.new_key (fun () -> Hashtbl.create 8) \
              [@@domain_safety domain_local]"));
    case "DS020 satisfied by a reset_* entry point" (fun () ->
        check_codes "codes" []
          (diags_of
             "let memo = Domain.DLS.new_key (fun () -> Hashtbl.create 8) \
              [@@domain_safety domain_local]\n\
              let reset_memo () = Hashtbl.reset (Domain.DLS.get memo)"));
    case "DS030: Random.self_init at module init" (fun () ->
        check_codes "codes" [ "DS030" ]
          (diags_of "let () = Random.self_init ()"));
    case "DS030: global Format mutation at module init" (fun () ->
        check_codes "codes" [ "DS030" ]
          (diags_of "let () = Format.set_margin 120"));
    case "DS040: malformed payload" (fun () ->
        check_codes "codes" [ "DS040" ]
          (diags_of "let r = ref 0 [@@domain_safety bogus]"));
    case "DS040: attribute on a plain function is stale" (fun () ->
        check_codes "codes" [ "DS040" ]
          (diags_of "let f x = x + 1 [@@domain_safety frozen_after_init]"));
    case "DS040: domain_local without a DLS slot" (fun () ->
        check_codes "codes" [ "DS040" ]
          (diags_of "let r = ref 0 [@@domain_safety domain_local]"));
    case "DS040: DLS slot not classified domain_local" (fun () ->
        check_codes "codes" [ "DS040" ]
          (diags_of
             "let slot = Domain.DLS.new_key (fun () -> 0) [@@domain_safety \
              frozen_after_init]"));
    case "classified frozen ref is clean" (fun () ->
        check_codes "codes" []
          (diags_of "let r = ref 0 [@@domain_safety frozen_after_init]"));
    case "unsafe with a reason is clean" (fun () ->
        check_codes "codes" []
          (diags_of
             "let l = lazy 42 [@@domain_safety unsafe \"forced before \
              spawn\"]"));
    case "allocation inside a function is not ambient" (fun () ->
        check_codes "codes" []
          (diags_of "let fresh () = Hashtbl.create 8\nlet f = fun () -> ref 0"));
    case "diagnostics are sorted by file, line, code" (fun () ->
        let diags =
          diags_of "let a = ref 0\nlet () = Random.self_init ()\nlet b = ref 1"
        in
        let lines = List.map (fun d -> d.D.Check.line) diags in
        check_bool "sorted" true (lines = List.sort compare lines)) ]

let report_cases =
  [ case "JSON report carries the qcc.domlint/1 schema" (fun () ->
        let structure =
          D.Scan.parse_implementation ~path:"seed.ml" "let r = ref 0"
        in
        let fr =
          D.Scan.scan_structure ~file:"seed.ml" ~intf:D.Scan.No_intf structure
        in
        let diags = D.Check.diagnose [ fr ] in
        let json =
          D.Ds_report.to_json ~files_scanned:1 ~sites:fr.D.Scan.sites ~diags
        in
        (match Qobs.Json.member "schema" json with
         | Some (Qobs.Json.Str s) -> Alcotest.(check string) "schema" "qcc.domlint/1" s
         | _ -> Alcotest.fail "no schema field");
        match Qobs.Json.member "errors" json with
        | Some (Qobs.Json.Int n) -> check_int "errors" 1 n
        | _ -> Alcotest.fail "no errors field");
    case "SARIF report resolves DS rules from the registry" (fun () ->
        let diags = diags_of "let r = ref 0" in
        let sarif = Qobs.Json.to_string (D.Ds_report.to_sarif ~diags) in
        let has re = Str.string_match (Str.regexp (".*" ^ re ^ ".*")) sarif 0 in
        check_bool "sarif version pinned" true (has "2\\.1\\.0");
        check_bool "rule id present" true (has "DS011");
        check_bool "registry summary flows into the rule" true
          (has "escaping the module")) ]

(* every code domlint can emit must be registered (and only those), so
   `qcc lint --explain DSxxx` and the README glossary stay single-source *)
let registry_cases =
  [ case "DS codes are registered, error-severity, one family" (fun () ->
        List.iter
          (fun code ->
            match Qlint.Registry.find code with
            | None -> Alcotest.failf "%s missing from Qlint.Registry" code
            | Some e ->
              Alcotest.(check string) "family" "domain-safety" e.Qlint.Registry.family;
              check_bool (code ^ " is error") true
                (e.Qlint.Registry.severity = Qlint.Diagnostic.Error))
          [ "DS010"; "DS011"; "DS020"; "DS030"; "DS040" ]);
    case "registry DS family matches the emitter exactly" (fun () ->
        let registered =
          List.sort compare
            (List.filter_map
               (fun (e : Qlint.Registry.entry) ->
                 if e.Qlint.Registry.family = "domain-safety" then
                   Some e.Qlint.Registry.code
                 else None)
               Qlint.Registry.all)
        in
        Alcotest.(check (list string))
          "codes" [ "DS010"; "DS011"; "DS020"; "DS030"; "DS040" ] registered);
    case "explain works for DS codes" (fun () ->
        match Qlint.Registry.explain "DS020" with
        | Some text -> (
          match Str.search_forward (Str.regexp_string "reset") text 0 with
          | (_ : int) -> ()
          | exception Not_found ->
            Alcotest.failf "DS020 explanation does not mention reset: %s" text)
        | None -> Alcotest.fail "no explanation for DS020") ]

(* ---- the runtime discipline the gate protects ---- *)

(* counter snapshot: every counter-valued metric (histograms carry wall
   times and are never run-reproducible) *)
let counters m =
  List.filter_map
    (fun n ->
      match Metrics.counter_value m n with 0 -> None | v -> Some (n, v))
    (Metrics.names m)

let reset_cases =
  [ case "reset_all_memos returns a domain to a cold start" (fun () ->
        let circuit = Qapps.Suite.lowered (Qapps.Suite.find "maxcut-line") in
        let run () =
          (* each run starts a fresh major cycle, so [alloc.major_collections]
             counts the compile's own allocation, not the heap state the
             earlier tests left behind *)
          Gc.compact ();
          let m = Metrics.create () in
          ignore
            (Compiler.compile ~metrics:m ~strategy:Strategy.Cls_aggregation
               circuit);
          m
        in
        Compiler.reset_all_memos ();
        let cold1 = run () in
        let warm = run () in
        Compiler.reset_all_memos ();
        Compiler.reset_all_memos ();
        (* idempotent *)
        let cold2 = run () in
        Alcotest.(check (list (pair string int)))
          "cold counters reproduce after reset" (counters cold1)
          (counters cold2);
        check_bool "warm run reuses the decision memo" true
          (Metrics.counter_value warm "commute.route.memo"
           >= Metrics.counter_value cold1 "commute.route.memo"));
    case "latency memo reset is idempotent and re-warms identically"
      (fun () ->
        let device = Qcontrol.Device.default in
        let gates = [ Qgate.Gate.cnot 0 1; Qgate.Gate.rz 0.7 1 ] in
        let a = Qcontrol.Latency_model.block_time device gates in
        Qcontrol.Latency_model.reset_memos ();
        Qcontrol.Latency_model.reset_memos ();
        let b = Qcontrol.Latency_model.block_time device gates in
        check_float ~eps:0. "identical after reset" a b) ]

(* deterministic op stream from a seed: drives two registries apart so
   merge has real work to do *)
let apply_ops m rng n =
  let names = [| "a"; "b"; "c.count"; "d.ms" |] in
  for _ = 1 to n do
    let name = names.(Random.State.int rng (Array.length names)) in
    match Random.State.int rng 2 with
    | 0 -> Metrics.incr m ~by:(1 + Random.State.int rng 5) name
    | _ -> Metrics.observe m name (Random.State.float rng 10.)
  done

let registry_of_seed seed n =
  let m = Metrics.create () in
  apply_ops m (Random.State.make [| seed |]) n;
  m

let snapshot m = Qobs.Json.to_string (Metrics.to_json m)

let merge_cases =
  [ qcheck ~count:100 "metrics merge is commutative"
      QCheck.(pair (int_range 0 100000) (int_range 0 100000))
      (fun (sa, sb) ->
        let a = registry_of_seed sa 40 and b = registry_of_seed sb 40 in
        snapshot (Metrics.merge a b) = snapshot (Metrics.merge b a));
    qcheck ~count:100 "metrics merge is associative"
      QCheck.(triple (int_range 0 100000) (int_range 0 100000)
                (int_range 0 100000))
      (fun (sa, sb, sc) ->
        let a = registry_of_seed sa 30
        and b = registry_of_seed sb 30
        and c = registry_of_seed sc 30 in
        snapshot (Metrics.merge (Metrics.merge a b) c)
        = snapshot (Metrics.merge a (Metrics.merge b c)));
    qcheck ~count:100 "merging the empty registry is identity"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let a = registry_of_seed seed 40 in
        snapshot (Metrics.merge a (Metrics.create ())) = snapshot a);
    case "merge does not mutate its arguments" (fun () ->
        let a = registry_of_seed 1 40 and b = registry_of_seed 2 40 in
        let sa = snapshot a and sb = snapshot b in
        ignore (Metrics.merge a b);
        Alcotest.(check string) "left untouched" sa (snapshot a);
        Alcotest.(check string) "right untouched" sb (snapshot b)) ]

let two_domain_cases =
  [ case "concurrent ticks in two domains lose no counts" (fun () ->
        let n = 20_000 in
        let worker k () =
          let m = Metrics.create () in
          Metrics.set_ambient m;
          for i = 1 to n do
            Metrics.tick "par.ticks";
            if i mod 100 = k then Metrics.record "par.ms" (float_of_int i)
          done;
          Metrics.set_ambient Metrics.disabled;
          m
        in
        let d1 = Domain.spawn (worker 0) and d2 = Domain.spawn (worker 1) in
        let m1 = Domain.join d1 and m2 = Domain.join d2 in
        check_int "ambient of this domain untouched" 0
          (Metrics.counter_value (Metrics.ambient ()) "par.ticks");
        let merged = Metrics.merge m1 m2 in
        check_int "no lost ticks" (2 * n)
          (Metrics.counter_value merged "par.ticks");
        (match Metrics.hist_value merged "par.ms" with
         | Some h -> check_int "no lost samples" (2 * (n / 100)) h.Metrics.n
         | None -> Alcotest.fail "histogram missing after merge");
        Alcotest.(check string) "merged snapshot order-independent"
          (snapshot (Metrics.merge m1 m2))
          (snapshot (Metrics.merge m2 m1))) ]

let ledger_cases =
  [ case "concurrent writers never tear a ledger row" (fun () ->
        let path = Filename.temp_file "qobs_ledger_par" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let ledger = Qobs.Ledger.open_file path in
            let writers = 4 and rows_per = 200 in
            let worker w () =
              for i = 1 to rows_per do
                Qobs.Ledger.append ledger
                  (Qobs.Json.Obj
                     [ ("writer", Qobs.Json.Int w); ("i", Qobs.Json.Int i);
                       (* bulk payload widens the window a torn write
                          would need to hit *)
                       ("pad", Qobs.Json.Str (String.make 256 'x')) ])
              done
            in
            let domains =
              List.init writers (fun w -> Domain.spawn (worker w))
            in
            List.iter Domain.join domains;
            Qobs.Ledger.close ledger;
            match Qobs.Ledger.read_file path with
            | Error msg -> Alcotest.failf "torn or invalid row: %s" msg
            | Ok rows ->
              check_int "all rows present" (writers * rows_per)
                (List.length rows);
              List.iteri
                (fun w_expect _ ->
                  let seen =
                    List.filter
                      (fun r ->
                        Qobs.Json.member "writer" r
                        = Some (Qobs.Json.Int w_expect))
                      rows
                  in
                  check_int
                    (Printf.sprintf "writer %d row count" w_expect)
                    rows_per (List.length seen))
                (List.init writers Fun.id))) ]

let suites =
  [ ("domlint.seeded", seeded_cases);
    ("domlint.report", report_cases);
    ("domlint.registry", registry_cases);
    ("domlint.reset", reset_cases);
    ("domlint.merge", merge_cases);
    ("domlint.par", two_domain_cases);
    ("domlint.ledger", ledger_cases) ]
