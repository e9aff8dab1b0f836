(* The parallel compile drivers: Parallel.map's slotting and failure
   contract, the determinism of the pooled drivers against their
   sequential reference, and the canonical (sharing-insensitive) stage
   cache root key. *)

open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Compiler = Qcc.Compiler
module Strategy = Qcc.Strategy
module Parallel = Qcc.Parallel
module Cache = Qcc.Pipeline.Cache
module Metrics = Qobs.Metrics

(* ------------------------------------------------------------------ *)
(* Parallel.map: slotting, init, failure propagation                   *)

let map_matches_mapi () =
  let arr = Array.init 100 (fun i -> i * 3) in
  let f i x = (i, x + 1) in
  List.iter
    (fun jobs ->
      Alcotest.(check (array (pair int int)))
        (Printf.sprintf "map ~jobs:%d slots by index" jobs)
        (Array.mapi f arr)
        (Parallel.map ~jobs f arr))
    [ 1; 2; 3; 8; 200 ]

let map_empty_and_init () =
  check_int "empty input, no work" 0
    (Array.length (Parallel.map ~jobs:4 (fun _ x -> x) [||]));
  (* init runs once per worker, before any job on that worker: the
     caller plus min jobs n - 1 spawned domains *)
  List.iter
    (fun jobs ->
      let inits = Atomic.make 0 in
      let out =
        Parallel.map ~jobs ~init:(fun () -> Atomic.incr inits)
          (fun i x -> i + x)
          (Array.make 12 0)
      in
      check_int "12 jobs ran" 12 (Array.length out);
      check_int
        (Printf.sprintf "init ran once per worker at ~jobs:%d" jobs)
        jobs (Atomic.get inits))
    [ 1; 3 ]

(* spin until [ready ()] holds; fail after about 10 s rather than hang *)
let wait_for what ready =
  let deadline = Qobs.Clock.now_ns () +. 10e9 in
  while not (ready ()) do
    if Qobs.Clock.now_ns () > deadline then
      failwith (Printf.sprintf "timed out waiting for %s" what);
    Domain.cpu_relax ()
  done

let caller_runs_a_share () =
  (* each job waits for the other to start, so no one worker can run
     both: a pool of two is the caller plus one spawned domain *)
  let caller = Domain.self () in
  let started = Atomic.make 0 in
  let ran_on =
    Parallel.map ~jobs:2
      (fun _ () ->
        let self = Domain.self () in
        Atomic.incr started;
        wait_for "the other job" (fun () -> Atomic.get started = 2);
        self)
      [| (); () |]
  in
  let on_caller = List.filter (( = ) caller) (Array.to_list ran_on) in
  check_int "exactly one job ran on the caller's domain" 1
    (List.length on_caller);
  check_bool "the other job ran on a spawned domain" true
    (Array.exists (( <> ) caller) ran_on)

let caller_init_failure_joins () =
  (* the caller's init raises only once a spawned worker is inside a
     job, and that job outlasts the raise by ~20 ms: re-raising before
     the joins would leave it unfinished *)
  let caller = Domain.self () in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let raised = Atomic.make false in
  let init () =
    if Domain.self () = caller then begin
      wait_for "a spawned worker's job" (fun () -> Atomic.get started > 0);
      Atomic.set raised true;
      failwith "caller init down"
    end
  in
  let job i () =
    Atomic.incr started;
    wait_for "the caller's init failure" (fun () -> Atomic.get raised);
    let t0 = Qobs.Clock.now_ns () in
    wait_for "20 ms" (fun () -> Qobs.Clock.elapsed_ns t0 > 20e6);
    Atomic.incr finished;
    i
  in
  (match Parallel.map ~jobs:4 ~init job (Array.make 8 ()) with
  | _ -> Alcotest.fail "expected the caller's init exception"
  | exception Failure msg ->
    Alcotest.(check string) "caller init failure" "caller init down" msg);
  check_bool "a spawned worker ran a job" true (Atomic.get started > 0);
  check_int "every started job finished before the re-raise"
    (Atomic.get started) (Atomic.get finished);
  Alcotest.(check (array int))
    "pool reusable after the caller's failure" [| 0; 1; 2; 3 |]
    (Parallel.map ~jobs:4 (fun i _ -> i) (Array.make 4 ()))

let map_reraises_lowest_failure () =
  (* several workers can fail, the caller among them; the caller must
     see the lowest job index's exception, deterministically, with all
     domains joined *)
  List.iter
    (fun jobs ->
      List.iter
        (fun (fails, want) ->
          match
            Parallel.map ~jobs
              (fun i _ -> if fails i then failwith (Printf.sprintf "job %d" i))
              (Array.make 16 ())
          with
          | _ -> Alcotest.fail "expected a re-raised worker exception"
          | exception Failure msg ->
            Alcotest.(check string)
              (Printf.sprintf "lowest failing job at ~jobs:%d" jobs)
              want msg)
        [ ((fun i -> i mod 3 = 2), "job 2"); ((fun _ -> true), "job 0") ])
    [ 1; 2; 4 ];
  (* init failures outrank any job failure *)
  (match
     Parallel.map ~jobs:2 ~init:(fun () -> failwith "init down")
       (fun i _ -> i)
       (Array.make 4 ())
   with
  | _ -> Alcotest.fail "expected the init exception"
  | exception Failure msg -> Alcotest.(check string) "init failure wins" "init down" msg);
  (* the pool was joined cleanly every time: a fresh map still works *)
  Alcotest.(check (array int))
    "pool reusable after failure" [| 0; 2; 4; 6 |]
    (Parallel.map ~jobs:4 (fun i _ -> 2 * i) (Array.make 4 ()))

(* ------------------------------------------------------------------ *)
(* Metrics shards: absorb/merge law                                    *)

let absorb_folds_shards () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "jobs" ~by:2;
  Metrics.incr b "jobs" ~by:3;
  Metrics.observe b "t" 4.0;
  let into = Metrics.create () in
  Metrics.incr into "jobs";
  Metrics.absorb ~into a;
  Metrics.absorb ~into b;
  check_int "counters add" 6 (Metrics.counter_value into "jobs");
  (match Metrics.hist_value into "t" with
  | Some h -> check_int "hist count crossed over" 1 h.Metrics.n
  | None -> Alcotest.fail "hist lost in absorb");
  (* the shard order a pool joins in cannot matter *)
  Alcotest.(check string)
    "merge commutes (snapshot bytes)"
    (Qobs.Json.to_string (Metrics.to_json (Metrics.merge a b)))
    (Qobs.Json.to_string (Metrics.to_json (Metrics.merge b a)));
  Metrics.absorb ~into:Metrics.disabled a (* must not raise *)

(* ------------------------------------------------------------------ *)
(* Stage-cache root key: canonical bytes, not Marshal sharing          *)

let root_key_ignores_sharing () =
  (* one gate value used twice marshals with a back-reference; two
     independently built (structurally equal) gates marshal as two
     blocks. The old Marshal-based root key split these into distinct
     cache keys; the canonical-QASM key must not. *)
  let g = Gate.rz 0.5 0 in
  let shared = Circuit.make 2 [ g; g; Gate.cnot 0 1 ] in
  let rebuilt = Circuit.make 2 [ Gate.rz 0.5 0; Gate.rz 0.5 0; Gate.cnot 0 1 ] in
  check_bool "Marshal bytes differ (sharing), so the old key split"
    false
    (String.equal (Marshal.to_string shared []) (Marshal.to_string rebuilt []));
  let cache = Cache.create () in
  let r1 = Compiler.compile ~cache ~strategy:Strategy.Isa shared in
  let misses = Cache.misses cache in
  check_bool "first compile populated the cache" true (misses > 0);
  let hits = Cache.hits cache in
  let r2 = Compiler.compile ~cache ~strategy:Strategy.Isa rebuilt in
  check_int "equal circuit adds no misses" misses (Cache.misses cache);
  check_bool "equal circuit re-reads every stage" true (Cache.hits cache > hits);
  check_float "identical latency through the shared entries"
    r1.Compiler.latency r2.Compiler.latency

(* ------------------------------------------------------------------ *)
(* Pooled drivers: byte-identical to the sequential reference          *)

let fingerprint (r : Compiler.result) =
  let digest =
    match r.Compiler.certificate with
    | Some c ->
      Digest.to_hex
        (Digest.string (Qobs.Json.to_string (Qcert.Certificate.to_json c)))
    | None -> "<uncertified>"
  in
  (Printf.sprintf "%h" r.Compiler.latency, r.Compiler.n_merges, digest)

(* the deterministic slice of the merged snapshot: totals that depend
   only on the job set, not on scheduling. Wall-time gauges/hists and
   the memo-warmth-sensitive counters — commute.route.*,
   qflow.summary.* and weyl.* — legitimately vary with the pool size; the
   compute-once cache and the per-query commute/agg/qcert totals must
   not. *)
let deterministic_counters m =
  List.map
    (fun name -> (name, Metrics.counter_value m name))
    [ "pipeline.cache.hit"; "pipeline.cache.miss"; "commute.checks";
      "agg.attempted"; "agg.accepted"; "agg.vetoed_monotonic";
      "agg.slack_visits"; "agg.regroup_visits"; "cls.ready_visits";
      "qcert.proved"; "qcert.refuted"; "qcert.skipped"; "qcert.facts" ]

let small_circuits =
  lazy
    (let rng = Qgraph.Rand.create 7 in
     let open Gate in
     [ Circuit.make 3
         [ h 0; cnot 0 1; rz 0.7 1; cnot 1 2; rz 0.3 2; cnot 0 1; rx 0.2 0 ];
       Circuit.make 4 (random_unitary_gates rng 4 10) ])

let run_subset ~jobs subset =
  let arr = Array.of_list subset in
  let merged = Metrics.create () in
  let shards = Array.map (fun _ -> Metrics.create ()) arr in
  let cache = Cache.create () in
  let results =
    Parallel.map ~jobs ~init:Compiler.reset_all_memos
      (fun i (strategy, circuit) ->
        Compiler.compile ~certify:true ~metrics:shards.(i) ~cache ~strategy
          circuit)
      arr
  in
  Array.iter (fun s -> Metrics.absorb ~into:merged s) shards;
  (Array.map fingerprint results, deterministic_counters merged)

let qcheck_pool_determinism =
  let circuits = Lazy.force small_circuits in
  let all_jobs =
    List.concat_map
      (fun c -> List.map (fun s -> (s, c)) Strategy.all)
      circuits
  in
  qcheck ~count:5 "pooled compile subsets are byte-identical to jobs:1"
    QCheck.(pair (int_range 2 8) (int_range 1 1023))
    (fun (pool, mask) ->
      let subset =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) all_jobs
      in
      subset = [] || run_subset ~jobs:1 subset = run_subset ~jobs:pool subset)

let compile_all_jobs_matches_sequential () =
  let circuit = List.hd (Lazy.force small_circuits) in
  let reference =
    List.map
      (fun (s, r) -> (s, fingerprint r))
      (Compiler.compile_all ~certify:true circuit)
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair string (triple string int string))))
        (Printf.sprintf "compile_all ~jobs:%d" jobs)
        (List.map (fun (s, fp) -> (Strategy.to_string s, fp)) reference)
        (List.map
           (fun (s, r) -> (Strategy.to_string s, fingerprint r))
           (Compiler.compile_all ~certify:true ~jobs circuit)))
    [ 1; 3 ]

(* the small circuits plus two suite benchmarks: every strategy of each
   runs on a 4-domain pool sharing one stage cache, and latency, merges
   and certificate digests must equal the sequential driver's *)
let compile_matrix_regroups () =
  let named =
    List.mapi
      (fun i c -> (Printf.sprintf "c%d" i, c))
      (Lazy.force small_circuits)
    @ List.map
        (fun b -> (b, Qapps.Suite.lowered (Qapps.Suite.find b)))
        [ "maxcut-line"; "uccsd-n4" ]
  in
  let seq = Compiler.compile_matrix ~certify:true named in
  let par = Compiler.compile_matrix ~certify:true ~jobs:4 named in
  List.iter2
    (fun (name, rs) (name', rs') ->
      Alcotest.(check string) "benchmark order" name name';
      List.iter2
        (fun (s, r) (s', r') ->
          Alcotest.(check string) "strategy order" (Strategy.to_string s)
            (Strategy.to_string s');
          Alcotest.(check (triple string int string))
            (Printf.sprintf "%s/%s identical" name (Strategy.to_string s))
            (fingerprint r) (fingerprint r'))
        rs rs')
    seq par

(* the caller keeps the memos its share of a pooled run warmed; a later
   sequential compile on it must decide exactly as a cold one *)
let warm_caller_changes_nothing () =
  let named =
    List.map
      (fun b -> (b, Qapps.Suite.lowered (Qapps.Suite.find b)))
      [ "maxcut-line"; "uccsd-n4" ]
  in
  let cold = Compiler.compile_matrix ~certify:true named in
  ignore (Compiler.compile_matrix ~certify:true ~jobs:2 named);
  List.iter
    (fun (name, rs) ->
      let circuit = List.assoc name named in
      List.iter
        (fun (strategy, r) ->
          let warm =
            Compiler.compile ~certify:true ~source_label:name ~strategy
              circuit
          in
          Alcotest.(check (pair (triple string int string) int))
            (Printf.sprintf "%s/%s warm = cold" name
               (Strategy.to_string strategy))
            (fingerprint r, r.Compiler.n_swaps_inserted)
            (fingerprint warm, warm.Compiler.n_swaps_inserted))
        rs)
    cold

let suites =
  [ ( "parallel",
      [ case "map matches Array.mapi at every pool size" map_matches_mapi;
        case "map on empty input; init once per worker" map_empty_and_init;
        case "caller runs a share of the jobs" caller_runs_a_share;
        case "caller init failure re-raises after the joins"
          caller_init_failure_joins;
        case "lowest-index worker failure re-raises; pool joins"
          map_reraises_lowest_failure;
        case "metrics shards absorb under the merge law" absorb_folds_shards;
        case "cache root key ignores Marshal sharing" root_key_ignores_sharing;
        qcheck_pool_determinism;
        slow_case "compile_all ?jobs matches the sequential driver"
          compile_all_jobs_matches_sequential;
        slow_case "compile_matrix regroups benchmark-major"
          compile_matrix_regroups;
        slow_case "a warm caller compiles the same bytes"
          warm_caller_changes_nothing ] ) ]
