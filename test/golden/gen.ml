(* Regenerates the golden pass-manager regression data.

   Run from the repo root after an INTENTIONAL behavior change:

     dune exec test/golden/gen.exe

   writes test/golden/compile_golden.json (per benchmark x strategy:
   bit-exact latency, merge/swap/instruction counts, and certificate
   digests for the certified subset) and test/golden/compare_golden.json
   (the `qcc compare --json` speedup table over the CI smoke benchmarks,
   with the nondeterministic compile_time_s fields removed).

   The refactor-regression suite (test_passmgr.ml) and the CI compare
   smoke both diff against these files; they must only ever be
   regenerated when latencies/merges are *supposed* to change. *)

module Compiler = Qcc.Compiler
module Strategy = Qcc.Strategy
module Json = Qobs.Json

let benchmarks =
  [ "maxcut-line"; "maxcut-reg4"; "maxcut-cluster"; "ising-n30"; "ising-n60";
    "sqrt-n3"; "sqrt-n4"; "sqrt-n5"; "uccsd-n4"; "uccsd-n6" ]

let certified = [ "maxcut-line"; "uccsd-n4" ]

let certificate_digest c =
  Digest.to_hex (Digest.string (Json.to_string (Qcert.Certificate.to_json c)))

let rec strip_compile_time = function
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "compile_time_s" then None
           else Some (k, strip_compile_time v))
         kvs)
  | Json.List vs -> Json.List (List.map strip_compile_time vs)
  | v -> v

let () =
  let dir = Filename.concat (Filename.concat "test" "golden") "" in
  let dir = if Sys.file_exists (dir ^ "gen.ml") then dir else "" in
  let compare_rows = ref [] in
  let entries =
    List.concat_map
      (fun name ->
        Printf.eprintf "golden: compiling %s...\n%!" name;
        let circuit = Qapps.Suite.lowered (Qapps.Suite.find name) in
        let certify = List.mem name certified in
        let results = Compiler.compile_all ~certify circuit in
        if certify then compare_rows := (name, results) :: !compare_rows;
        List.map
          (fun ((s : Strategy.t), (r : Compiler.result)) ->
            Json.Obj
              ([ ("benchmark", Json.Str name);
                 ("strategy", Json.Str (Strategy.to_string s));
                 ("latency_hex", Json.Str (Printf.sprintf "%h" r.Compiler.latency));
                 ("merges", Json.Int r.Compiler.n_merges);
                 ("swaps", Json.Int r.Compiler.n_swaps_inserted);
                 ("instructions", Json.Int r.Compiler.n_instructions) ]
               @
               match r.Compiler.certificate with
               | Some c ->
                 [ ("certificate_digest", Json.Str (certificate_digest c)) ]
               | None -> []))
          results)
      benchmarks
  in
  let doc =
    Json.Obj
      [ ("schema", Json.Str "qcc.golden.compile/1");
        ("entries", Json.List entries) ]
  in
  Json.write_file (dir ^ "compile_golden.json") doc;
  Printf.eprintf "wrote %scompile_golden.json (%d entries)\n%!" dir
    (List.length entries);
  let table =
    strip_compile_time
      (Qcc.Report.speedup_table_to_json ~rows:(List.rev !compare_rows))
  in
  Json.write_file (dir ^ "compare_golden.json") table;
  Printf.eprintf "wrote %scompare_golden.json\n%!" dir
