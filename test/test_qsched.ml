(* tests for schedules, the ASAP baseline and the CLS scheduler *)

open Qsched
open Util
module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Gdg = Qgdg.Gdg
module Inst = Qgdg.Inst

let unit_latency _ = 1.0
let zz theta a b = [ Gate.cnot a b; Gate.rz theta b; Gate.cnot a b ]

let gdg_of gates n = Gdg.of_circuit ~latency:unit_latency (Circuit.make n gates)

let contract g =
  ignore
    (Qgdg.Diagonal.detect_and_contract
       ~latency:(fun gs -> float_of_int (List.length gs))
       g);
  g

let schedule_cases =
  [ case "makespan computed" (fun () ->
        let i = Inst.of_gate ~id:0 ~latency:5. (Gate.h 0) in
        let s =
          Schedule.make ~n_qubits:1
            [ { Schedule.inst = i; start = 2.; finish = 7. } ]
        in
        check_float "makespan" 7. s.Schedule.makespan);
    case "entries sorted by start" (fun () ->
        let mk id st =
          { Schedule.inst = Inst.of_gate ~id ~latency:1. (Gate.h id);
            start = st;
            finish = st +. 1. }
        in
        let s = Schedule.make ~n_qubits:3 [ mk 0 5.; mk 1 1.; mk 2 3. ] in
        Alcotest.(check (list int)) "order" [ 1; 2; 0 ]
          (List.map (fun (i : Inst.t) -> i.Inst.id) (Schedule.linearize s)));
    case "negative duration raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Schedule.make: negative duration") (fun () ->
            ignore
              (Schedule.make ~n_qubits:1
                 [ { Schedule.inst = Inst.of_gate ~id:0 ~latency:1. (Gate.h 0);
                     start = 3.;
                     finish = 1. } ])));
    case "overlap detection" (fun () ->
        let mk id st =
          { Schedule.inst = Inst.of_gate ~id ~latency:2. (Gate.h 0);
            start = st;
            finish = st +. 2. }
        in
        let bad = Schedule.make ~n_qubits:1 [ mk 0 0.; mk 1 1. ] in
        check_bool "overlap caught" false (Schedule.conflicts bad = []);
        let good = Schedule.make ~n_qubits:1 [ mk 0 0.; mk 1 2. ] in
        check_bool "ok" true (Schedule.conflicts good = []));
    case "empty schedule is overlap-free" (fun () ->
        let s = Schedule.make ~n_qubits:4 [] in
        check_bool "no overlap" true (Schedule.conflicts s = []);
        check_float "makespan" 0. s.Schedule.makespan;
        check_int "no conflicts" 0 (List.length (Schedule.conflicts s)));
    case "zero-duration entries may share an instant" (fun () ->
        (* two zero-length virtual instructions at t=1 on the same qubit:
           the half-open busy intervals [1,1) are empty, so no conflict *)
        let mk id =
          { Schedule.inst = Inst.of_gate ~id ~latency:0. (Gate.rz 0.3 0);
            start = 1.;
            finish = 1. }
        in
        let s = Schedule.make ~n_qubits:1 [ mk 0; mk 1 ] in
        check_bool "no overlap" true (Schedule.conflicts s = []));
    case "zero-duration entry at a busy instant does not conflict" (fun () ->
        (* a virtual (zero-latency) instruction fired at the very moment
           a long one starts on the same qubit — legal, its busy interval
           is empty (seen in CLS on uccsd-n6 with zero-cost Rz gates) *)
        let long =
          { Schedule.inst = Inst.of_gate ~id:0 ~latency:47. (Gate.h 0);
            start = 10.;
            finish = 57. }
        in
        let virt =
          { Schedule.inst = Inst.of_gate ~id:1 ~latency:0. (Gate.rz 0.1 0);
            start = 10.;
            finish = 10. }
        in
        let s = Schedule.make ~n_qubits:1 [ long; virt ] in
        check_bool "no overlap" true (Schedule.conflicts s = []));
    case "back-to-back finish = start does not conflict" (fun () ->
        let mk id st =
          { Schedule.inst = Inst.of_gate ~id ~latency:2. (Gate.h 0);
            start = st;
            finish = st +. 2. }
        in
        let s = Schedule.make ~n_qubits:1 [ mk 0 0.; mk 1 2.; mk 2 4. ] in
        check_bool "meeting endpoints legal" true
          (Schedule.conflicts s = []));
    case "conflicts names the pair, qubit and window" (fun () ->
        let mk id q st fin =
          { Schedule.inst = Inst.of_gate ~id ~latency:(fin -. st) (Gate.h q);
            start = st;
            finish = fin }
        in
        (* qubit 2 double-booked over [3, 5]; qubit 1 untouched *)
        let s =
          Schedule.make ~n_qubits:3
            [ mk 0 2 0. 5.; mk 1 2 3. 8.; mk 2 1 0. 8. ]
        in
        (match Schedule.conflicts s with
         | [ (a, b, q) ] ->
           check_int "earlier" 0 a.Schedule.inst.Inst.id;
           check_int "later" 1 b.Schedule.inst.Inst.id;
           check_int "qubit" 2 q;
           check_float "overlap start" 3. b.Schedule.start;
           check_float "overlap end" 5.
             (Float.min a.Schedule.finish b.Schedule.finish)
         | l -> Alcotest.failf "expected one conflict, got %d" (List.length l))) ]

(* ---- the schedule replay against its GDG ---- *)

(* the schedule covers the GDG exactly and inverts only [reorderable]
   chain pairs *)
let in_order ?(reorderable = fun _ _ -> false) ~original s =
  let r = Schedule.replay ~original s in
  r.Schedule.missing = [] && r.Schedule.foreign = []
  && r.Schedule.repeated = [] && r.Schedule.altered = []
  && List.for_all
       (fun q ->
         List.for_all (fun (a, b) -> reorderable a b) (r.Schedule.inversions q))
       (List.init (Gdg.n_qubits original) Fun.id)

let ids_of pairs =
  List.map (fun ((a : Inst.t), (b : Inst.t)) -> (a.Inst.id, b.Inst.id)) pairs

let at start (i : Inst.t) =
  { Schedule.inst = i; start; finish = start +. i.Inst.latency }

let replay_cases =
  let g () = gdg_of [ Gate.h 0; Gate.x 0; Gate.h 1 ] 2 in
  let replay g entries =
    Schedule.replay ~original:g (Schedule.make ~n_qubits:2 entries)
  in
  let ints = Alcotest.(list int) in
  [ case "replay on an empty gdg is vacuously in order" (fun () ->
        let g = Gdg.of_insts ~n_qubits:2 [] in
        check_bool "vacuously ordered" true
          (in_order ~original:g (Schedule.make ~n_qubits:2 [])));
    case "replay names a missing id" (fun () ->
        let g = g () in
        let r = replay g [ at 0. (Gdg.find g 0); at 0. (Gdg.find g 2) ] in
        Alcotest.check ints "missing" [ 1 ] r.Schedule.missing;
        Alcotest.check ints "foreign" [] r.Schedule.foreign;
        check_int "no inversion" 0 (List.length (r.Schedule.inversions 0)));
    case "replay names a foreign id" (fun () ->
        let g = g () in
        let stray = Inst.of_gate ~id:9 ~latency:1. (Gate.x 1) in
        let r =
          replay g (List.map (at 0.) (Gdg.insts g) @ [ at 5. stray ])
        in
        Alcotest.check ints "foreign" [ 9 ] r.Schedule.foreign;
        Alcotest.check ints "missing" [] r.Schedule.missing);
    case "replay names a repeated id once per extra entry" (fun () ->
        let g = g () in
        let h = Gdg.find g 0 in
        let r =
          replay g
            (at 6. h :: at 9. h :: List.map (at 0.) (Gdg.insts g))
        in
        Alcotest.check ints "repeated" [ 0; 0 ] r.Schedule.repeated;
        (match r.Schedule.first 0 with
         | Some e -> check_float "first entry fixes the position" 0.
                       e.Schedule.start
         | None -> Alcotest.fail "id 0 has no entry");
        Alcotest.check ints "foreign" [] r.Schedule.foreign);
    case "replay names an altered id" (fun () ->
        let g = g () in
        let swapped = Inst.of_gate ~id:1 ~latency:1. (Gate.z 0) in
        let r =
          replay g [ at 0. (Gdg.find g 0); at 1. swapped; at 0. (Gdg.find g 2) ]
        in
        Alcotest.check ints "altered" [ 1 ] r.Schedule.altered;
        Alcotest.check ints "missing" [] r.Schedule.missing);
    case "replay lists inversions later chain element outer" (fun () ->
        let g = gdg_of [ Gate.h 0; Gate.x 0; Gate.t 0 ] 1 in
        let r =
          Schedule.replay ~original:g
            (Schedule.make ~n_qubits:1
               [ at 2. (Gdg.find g 0); at 1. (Gdg.find g 1);
                 at 0. (Gdg.find g 2) ])
        in
        Alcotest.(check (list (pair int int)))
          "pairs" [ (0, 1); (0, 2); (1, 2) ]
          (ids_of (r.Schedule.inversions 0)));
    case "replay inverts a zero-duration tie with a lower-id successor"
      (fun () ->
        let g, s = zero_latency_tie () in
        let r = Schedule.replay ~original:g s in
        Alcotest.(check (list (pair int int)))
          "tie runs the successor first" [ (1, 0) ]
          (ids_of (r.Schedule.inversions 0));
        check_bool "not in order" false (in_order ~original:g s)) ]

let asap_cases =
  [ case "respects dependencies" (fun () ->
        let g = gdg_of [ Gate.h 0; Gate.cnot 0 1; Gate.h 1 ] 2 in
        let s = Asap.schedule g in
        check_float "makespan 3" 3. s.Schedule.makespan;
        check_bool "no overlap" true (Schedule.conflicts s = []);
        check_bool "order kept" true (in_order ~original:g s));
    case "parallelizes independent gates" (fun () ->
        let g = gdg_of [ Gate.h 0; Gate.h 1; Gate.h 2 ] 3 in
        check_float "all at once" 1. (Asap.schedule g).Schedule.makespan) ]

let cls_cases =
  [ case "cls on serial circuit equals asap" (fun () ->
        let g = gdg_of [ Gate.h 0; Gate.x 0; Gate.h 0 ] 1 in
        check_float "serial" 3. (Cls.makespan g));
    case "cls exploits zz commutativity" (fun () ->
        (* 4-ring of ZZ blocks, contracted: CLS fits them in two layers *)
        let gates =
          zz 1. 0 1 @ zz 1. 1 2 @ zz 1. 2 3 @ zz 1. 3 0
        in
        let g = contract (gdg_of gates 4) in
        let asap = Asap.schedule g in
        let cls = Cls.schedule g in
        check_bool "cls at least as good" true
          (cls.Schedule.makespan <= asap.Schedule.makespan +. 1e-9);
        check_float "two layers" 6. cls.Schedule.makespan);
    case "cls without commutativity matches chain order" (fun () ->
        let g = gdg_of [ Gate.cnot 0 1; Gate.cnot 1 2; Gate.cnot 2 3 ] 4 in
        check_float "serial chain" 3. (Cls.makespan g));
    case "cls schedules all instructions exactly once" (fun () ->
        let g = contract (gdg_of (zz 1. 0 1 @ zz 2. 1 2 @ [ Gate.h 0; Gate.rx 0.4 2 ]) 3) in
        let s = Cls.schedule g in
        check_int "count" (Gdg.size g) (List.length s.Schedule.entries);
        check_bool "no overlap" true (Schedule.conflicts s = []));
    case "cls legality via commutation" (fun () ->
        let g = contract (gdg_of (zz 1. 0 1 @ zz 2. 1 2) 3) in
        let groups = Qgdg.Comm_group.build g in
        let s = Cls.schedule g in
        check_bool "order or commuting" true
          (in_order
             ~reorderable:(Qgdg.Comm_group.reorderable groups)
             ~original:g s));
    case "cls preserves semantics on qaoa ring" (fun () ->
        let circuit =
          Qapps.Qaoa.circuit (Qgraph.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ])
        in
        let g =
          Gdg.of_circuit ~latency:unit_latency circuit |> contract
        in
        let s = Cls.schedule g in
        check_bool "unitary preserved" true
          (Circuit.equal_semantics ~eps:1e-8 circuit (Schedule.to_circuit s)));
    case "cls handles wide instructions" (fun () ->
        let wide = Inst.make ~id:0 ~latency:5. [ Gate.cnot 0 1; Gate.cnot 1 2 ] in
        let tail = Inst.of_gate ~id:1 ~latency:1. (Gate.h 1) in
        let g = Gdg.of_insts ~n_qubits:3 [ wide; tail ] in
        let s = Cls.schedule g in
        check_float "serialized" 6. s.Schedule.makespan);
    qcheck ~count:25 "cls never loses to chain asap on random commutative circuits"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let n = 4 + Qgraph.Rand.int rng 3 in
        let gates =
          List.concat
            (List.init 6 (fun _ ->
                 let a = Qgraph.Rand.int rng n in
                 let b = (a + 1 + Qgraph.Rand.int rng (n - 1)) mod n in
                 zz (Qgraph.Rand.float rng 3.) (min a b) (max a b)))
        in
        let g = contract (gdg_of gates n) in
        let cls = Cls.makespan g in
        let asap = (Asap.schedule g).Schedule.makespan in
        cls <= asap +. 1e-6);
    qcheck ~count:25 "cls schedules are always overlap-free"
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Qgraph.Rand.create seed in
        let gates = random_unitary_gates rng 4 15 in
        let g = contract (gdg_of gates 4) in
        let s = Cls.schedule g in
        Schedule.conflicts s = []
        && List.length s.Schedule.entries = Gdg.size g) ]

(* ---- event-driven CLS against the scan-based specification ---- *)

let cls_counters = [ "cls.matching_rounds"; "cls.matched"; "cls.time_advances" ]

(* one schedule with its counters: the entries as id plus exact start and
   finish, in the schedule's order, then the three counters both
   schedulers tick *)
let cls_trace schedule g =
  let m = Qobs.Metrics.create () in
  let s = Qobs.Metrics.with_ambient m (fun () -> schedule g) in
  ( List.map
      (fun (e : Schedule.entry) ->
        Printf.sprintf "%d %h %h" e.Schedule.inst.Inst.id e.Schedule.start
          e.Schedule.finish)
      s.Schedule.entries,
    List.map (Qobs.Metrics.counter_value m) cls_counters )

(* Random instruction streams for CLS: widths 1 to 4 (3+ qubit blocks
   take the greedy wide claim), diagonal gates so commutation groups grow
   past one member and the ready set holds several candidates per qubit,
   and latencies drawn from {0, 1, 2, 3} so zero-latency instructions and
   equal-finish ties are common. *)
let random_cls_gdg rng =
  let n = 3 + Qgraph.Rand.int rng 4 in
  let distinct k =
    let rec go acc =
      if List.length acc = k then acc
      else
        let q = Qgraph.Rand.int rng n in
        go (if List.mem q acc then acc else q :: acc)
    in
    go []
  in
  let theta () = Qgraph.Rand.float rng 3. in
  let pair_gate a b =
    match Qgraph.Rand.int rng 4 with
    | 0 -> Gate.cnot a b
    | 1 -> Gate.cz a b
    | _ -> Gate.rzz (theta ()) a b
  in
  let gates_on = function
    | [ q ] ->
      (match Qgraph.Rand.int rng 4 with
       | 0 -> [ Gate.h q ]
       | 1 -> [ Gate.x q ]
       | _ -> [ Gate.rz (theta ()) q ])
    | [ a; b ] -> [ pair_gate a b ]
    | [ a; b; c ] when Qgraph.Rand.int rng 4 = 0 -> [ Gate.ccx a b c ]
    | qs ->
      let rec chain = function
        | a :: (b :: _ as rest) -> pair_gate a b :: chain rest
        | _ -> []
      in
      chain qs
  in
  let insts =
    List.init
      (10 + Qgraph.Rand.int rng 50)
      (fun id ->
        let width =
          match Qgraph.Rand.int rng 7 with
          | 0 | 1 -> 1
          | 2 | 3 | 4 -> 2
          | 5 -> 3
          | _ -> min 4 n
        in
        Inst.make ~id
          ~latency:(float_of_int (Qgraph.Rand.int rng 4))
          (gates_on (distinct width)))
  in
  Gdg.of_insts ~n_qubits:n insts

(* the suite's CLS inputs: each benchmark's logical GDG (serial costs,
   diagonal blocks contracted, as the [cls] strategy schedules it) and the
   routed GDG the final CLS of [cls], [cls+hand] and [cls+aggregation]
   schedules *)
let suite_cls_gdgs =
  lazy
    (let backend = Qcc.Backend.default in
     List.concat_map
       (fun (b : Qapps.Suite.benchmark) ->
         let circuit = Qapps.Suite.lowered b in
         let logical =
           Gdg.of_circuit ~latency:(Qcc.Backend.serial_cost backend) circuit
         in
         ignore
           (Qgdg.Diagonal.detect_and_contract
              ~latency:(Qcc.Backend.serial_cost backend)
              logical);
         let cache = Qcc.Pipeline.Cache.create () in
         ( b.Qapps.Suite.name ^ " logical", false, logical )
         :: List.map
              (fun strategy ->
                let r = Qcc.Compiler.compile ~cache ~strategy circuit in
                ( b.Qapps.Suite.name ^ " " ^ Qcc.Strategy.to_string strategy,
                  true,
                  r.Qcc.Compiler.gdg ))
              Qcc.Strategy.[ Cls; Cls_hand; Cls_aggregation ])
       Qapps.Suite.all)

(* a cyclic graph, which no merge can produce: qubit 1's chain of
   [cnot 0 1; cnot 1 2; cnot 0 1] is reversed by hand, so node 2 comes
   before node 0 on it while node 0 still comes before node 2 on qubit 0 *)
let cyclic_gdg () =
  let g =
    Gdg.of_circuit ~latency:unit_latency
      (Circuit.make 3 [ Gate.cnot 0 1; Gate.cnot 1 2; Gate.cnot 0 1 ])
  in
  List.iter
    (fun x ->
      let l = g.Gdg.links.(x) in
      let w = Array.length l / 3 in
      for k = 0 to w - 1 do
        if l.(k) = 1 then begin
          let p = l.(w + k) in
          l.(w + k) <- l.((2 * w) + k);
          l.((2 * w) + k) <- p
        end
      done)
    (Gdg.chain_ids g 1);
  let head = g.Gdg.head.(1) in
  g.Gdg.head.(1) <- g.Gdg.last.(1);
  g.Gdg.last.(1) <- head;
  g

let cls_reference_cases =
  [ qcheck ~count:300 "cls matches the scan-based reference"
      QCheck.(int_range 0 100000)
      (fun seed ->
        let g = random_cls_gdg (Qgraph.Rand.create seed) in
        cls_trace Cls.schedule g = cls_trace Qref.cls_reference g);
    slow_case "cls matches the reference on every suite CLS graph" (fun () ->
        List.iter
          (fun (name, _, g) ->
            let entries, counters = cls_trace Cls.schedule g in
            let ref_entries, ref_counters = cls_trace Qref.cls_reference g in
            Alcotest.(check (list string)) (name ^ " entries") ref_entries
              entries;
            Alcotest.(check (list int)) (name ^ " counters") ref_counters
              counters)
          (Lazy.force suite_cls_gdgs));
    slow_case "cls ready visits stay linear on every routed suite graph"
      (fun () ->
        (* a per-round rescan of the unscheduled instructions examines
           up to 2,737 times the graph size here (sqrt-n5), the ready set
           at most 2.8 times (maxcut-cluster) *)
        List.iter
          (fun (name, routed, g) ->
            if routed then begin
              let m = Qobs.Metrics.create () in
              ignore (Qobs.Metrics.with_ambient m (fun () -> Cls.schedule g));
              let visits = Qobs.Metrics.counter_value m "cls.ready_visits" in
              if visits > 4 * Gdg.size g then
                Alcotest.failf "%s: %d ready visits for %d instructions" name
                  visits (Gdg.size g)
            end)
          (Lazy.force suite_cls_gdgs));
    case "cls and the reference fail alike on a cyclic graph" (fun () ->
        let failure schedule =
          match schedule (cyclic_gdg ()) with
          | _ -> None
          | exception Failure msg -> Some msg
        in
        let reference = failure Qref.cls_reference in
        check_bool "reference fails" true (reference <> None);
        Alcotest.(check (option string)) "same failure" reference
          (failure Cls.schedule)) ]

let suites =
  [ ("qsched.schedule", schedule_cases);
    ("qsched.replay", replay_cases);
    ("qsched.asap", asap_cases);
    ("qsched.cls", cls_cases);
    ("qsched.cls_reference", cls_reference_cases) ]
