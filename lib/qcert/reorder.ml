module Gate = Qgate.Gate
module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module D = Qlint.Diagnostic

let gates_equal = List.equal Gate.equal

let err ~stage ?insts ?qubits code msg =
  D.make ~stage ?insts ?qubits ~code ~severity:D.Error msg

let warn ~stage ?insts ?qubits code msg =
  D.make ~stage ?insts ?qubits ~code ~severity:D.Warning msg

(* ---- word equivalence under the dependence relation ----

   Projection lemma: over the independence relation "disjoint supports",
   two words are congruent iff their gate multisets agree and, for every
   qubit, the subword of gates acting on that qubit is identical. Both
   sides are pure syntax — no commutation checks — yet congruence implies
   the unitaries are equal outright (adjacent independent gates commute
   exactly). *)
let dependence ~stage ~src ~dst =
  if gates_equal src dst then Certificate.outcome ~method_:"identical" 1
  else begin
    let diags = ref [] in
    let sorted w = List.sort Gate.compare w in
    if not (gates_equal (sorted src) (sorted dst)) then
      diags :=
        [ err ~stage "QC011"
            (Printf.sprintf
               "gate multiset changed across the boundary (%d -> %d gates)"
               (List.length src) (List.length dst)) ]
    else begin
      let qubits = Domain.support src in
      List.iter
        (fun q ->
          let proj w = List.filter (fun g -> Gate.acts_on g q) w in
          if not (gates_equal (proj src) (proj dst)) then
            diags :=
              err ~stage ~qubits:[ q ] "QC012"
                (Printf.sprintf
                   "gate order on qubit %d changed without a commutation \
                    certificate" q)
              :: !diags)
        qubits
    end;
    Certificate.outcome ~method_:"dependence"
      (1 + List.length (Domain.support src))
      ~diags:(List.rev !diags)
  end

(* ---- pairwise commutation with memoization ---- *)

type commute_cache = (int * int, Domain.verdict * string) Hashtbl.t

let commute_memo (cache : commute_cache) (a : Inst.t) (b : Inst.t) =
  let key = (min a.Inst.id b.Inst.id, max a.Inst.id b.Inst.id) in
  match Hashtbl.find_opt cache key with
  | Some v -> v
  | None ->
    let v = Domain.blocks_commute a.Inst.gates b.Inst.gates in
    Hashtbl.add cache key v;
    v

(* ---- realized-order justification by block exchanges ----

   The realized word need not be reachable from the input order by
   exchanges of *individual* instructions: iterated merges hoist whole
   intermediate aggregates past earlier instructions, and an aggregate
   can commute as a block while no member does individually (e.g. a
   swap-symmetric run of gates crossing a routing SWAP). Greedy
   certification: walk the realized order; whenever the next needed
   instruction sits deeper in the current word, exchange the displaced
   prefix B1 with the following run B2 whose members are all realized
   before B1, certifying the exchange at the finest granularity that
   proves it (member-pairwise, member-vs-block, block-vs-block) and
   falling back to a singleton B2 when the maximal run overshoots. Each
   certified exchange strictly reduces the inversion count against the
   realized order, so the walk terminates. *)
let certify_block_exchanges ~stage ~code ~cache ~rank ~inst_of ~n ~checks
    ~skipped ~diags () =
  if n > 8_000 then begin
    skipped := !skipped + 1;
    diags :=
      warn ~stage "QC001"
        (Printf.sprintf
           "word too long (%d instructions) to certify the realized order" n)
      :: !diags
  end
  else begin
    let c = Array.init n (fun i -> i) in
    (* target.(k) = the input index realized at position k *)
    let target = Array.make (max 1 n) 0 in
    for i = 0 to n - 1 do
      target.(rank i) <- i
    done;
    let fuel = ref 2_000_000 in
    let concat_gates arr =
      List.concat_map (fun idx -> (inst_of idx).Inst.gates) (Array.to_list arr)
    in
    let pair_verdict x y = commute_memo cache (inst_of x) (inst_of y) in
    (* x crosses the whole of [b2]: pairwise against every member, else as
       one block — a merged aggregate may commute only as a whole *)
    let crosses x b2 b2_gates =
      decr fuel;
      Array.for_all (fun y -> fst (pair_verdict x y) = Domain.Proved) b2
      || Array.length b2 > 1
         && fst (Domain.blocks_commute (inst_of x).Inst.gates
                   (Lazy.force b2_gates))
            = Domain.Proved
    in
    let exchange_proved b1 b2 =
      let b2_gates = lazy (concat_gates b2) in
      Array.for_all (fun x -> crosses x b2 b2_gates) b1
      || Array.length b1 > 1
         && fst (Domain.blocks_commute (concat_gates b1)
                   (Lazy.force b2_gates))
            = Domain.Proved
    in
    (* sharpest failing pair, for the diagnostic *)
    let failing_pair b1 b2 =
      let best = ref None in
      Array.iter
        (fun x ->
          Array.iter
            (fun y ->
              match pair_verdict x y with
              | Domain.Proved, _ -> ()
              | verdict, meth -> (
                match (!best, verdict) with
                | None, _ | Some (_, _, Domain.Unknown, _), Domain.Refuted ->
                  best := Some (x, y, verdict, meth)
                | _ -> ()))
            b2)
        b1;
      !best
    in
    let refuted = ref false in
    let k = ref 0 in
    while !k < n && (not !refuted) && !fuel > 0 do
      let t = target.(!k) in
      if c.(!k) = t then incr k
      else begin
        let p = ref !k in
        while c.(!p) <> t do
          incr p
        done;
        let p = !p in
        let min_b1 = ref max_int in
        for j = !k to p - 1 do
          min_b1 := min !min_b1 (rank c.(j))
        done;
        let q = ref p in
        while !q + 1 < n && rank c.(!q + 1) < !min_b1 do
          incr q
        done;
        let b1 = Array.sub c !k (p - !k) in
        let b2_max = Array.sub c p (!q - p + 1) in
        let b2_min = [| t |] in
        let b2 =
          if exchange_proved b1 b2_max then Some b2_max
          else if Array.length b2_max > 1 && exchange_proved b1 b2_min then
            Some b2_min
          else None
        in
        match b2 with
        | Some b2 ->
          incr checks;
          Array.blit b2 0 c !k (Array.length b2);
          Array.blit b1 0 c (!k + Array.length b2) (Array.length b1);
          incr k
        | None -> (
          match failing_pair b1 b2_min with
          | Some (x, y, Domain.Refuted, meth) ->
            refuted := true;
            let ix = inst_of x and iy = inst_of y in
            diags :=
              err ~stage ~insts:[ ix.Inst.id; iy.Inst.id ]
                ~qubits:(Inst.common_qubits ix iy) code
                (Printf.sprintf
                   "instructions %d and %d reordered but their commutation \
                    is refuted (%s), and no enclosing block exchange \
                    justifies the move"
                   ix.Inst.id iy.Inst.id meth)
              :: !diags
          | _ ->
            (* only Unknown verdicts: the move is unproven, not wrong —
               rotate anyway so later exchanges still get examined *)
            skipped := !skipped + 1;
            diags :=
              warn ~stage ~insts:[ (inst_of t).Inst.id ] "QC001"
                (Printf.sprintf
                   "could not prove the exchange moving instruction %d \
                    forward; remaining order checks are conditional"
                   (inst_of t).Inst.id)
              :: !diags;
            Array.blit b2_min 0 c !k 1;
            Array.blit b1 0 c (!k + 1) (Array.length b1);
            incr k)
      end
    done;
    if !fuel <= 0 && !k < n then begin
      skipped := !skipped + 1;
      diags :=
        warn ~stage "QC001"
          (Printf.sprintf
             "commutation budget exhausted after %d of %d realized positions"
             !k n)
        :: !diags
    end
  end

(* ---- schedule replay ≡ a GDG topological order ---- *)

let schedule ~stage ~original sched =
  let module S = Qsched.Schedule in
  let r = S.replay ~original sched in
  let n_entries = List.length sched.S.entries in
  if r.S.missing <> [] || r.S.foreign <> [] || r.S.repeated <> [] then
    Certificate.outcome ~method_:"replay" 0
      ~diags:
        [ err ~stage "QC031"
            (Printf.sprintf
               "schedule and GDG carry different instruction sets (%d vs %d \
                instructions)"
               n_entries (Gdg.size original)) ]
  else begin
    (* the schedule must execute the GDG's own blocks, not altered ones *)
    let checks = ref (1 + n_entries - List.length r.S.altered)
    and skipped = ref 0 in
    let diags =
      ref
        (List.rev_map
           (fun id ->
             err ~stage ~insts:[ id ] "QC031"
               (Printf.sprintf "instruction %d's members differ between \
                                schedule and GDG" id))
           r.S.altered)
    in
    (* every pair a qubit sees in inverted order must commute *)
    let cache : commute_cache = Hashtbl.create 64 in
    for q = 0 to Gdg.n_qubits original - 1 do
      let m = List.length (Gdg.chain_ids original q) in
      if m * m > 4_000_000 then begin
        incr skipped;
        diags :=
          warn ~stage ~qubits:[ q ] "QC001"
            (Printf.sprintf
               "qubit %d: chain too long (%d) to enumerate inversions" q m)
          :: !diags
      end
      else
        List.iter
          (fun ((a : Inst.t), (b : Inst.t)) ->
            match commute_memo cache a b with
            | Domain.Proved, _ -> incr checks
            | verdict, meth ->
              diags :=
                err ~stage ~insts:[ a.Inst.id; b.Inst.id ] ~qubits:[ q ]
                  "QC030"
                  (Printf.sprintf
                     "instructions %d and %d reordered on qubit %d but their \
                      commutation is %s (%s)"
                     a.Inst.id b.Inst.id q
                     (Domain.verdict_to_string verdict)
                     meth)
                :: !diags)
          (r.S.inversions q)
    done;
    Certificate.outcome ~method_:"replay" !checks ~skipped:!skipped
      ~diags:(List.rev !diags)
  end

(* ---- regrouping (contraction / aggregation) ---- *)

(* parse [gates] as a concatenation of pool entries; pools map a member
   gate list to the queue of before-instruction indices carrying it, in
   program order (FIFO keeps identical blocks in their original relative
   order). Backtracking handles keys that are prefixes of one another. *)
let parse_concat ~pools ~by_first gates =
  let arr = Array.of_list gates in
  let n = Array.length arr in
  let fuel = ref 200_000 in
  let rec go pos =
    if !fuel <= 0 then None
    else begin
      decr fuel;
      if pos = n then Some []
      else
        match Hashtbl.find_opt by_first arr.(pos) with
        | None -> None
        | Some keys ->
          let try_key acc key =
            match acc with
            | Some _ -> acc
            | None ->
              let len = List.length key in
              let matches =
                pos + len <= n
                && List.for_all2 Gate.equal key
                     (Array.to_list (Array.sub arr pos len))
              in
              if not matches then None
              else
                match Hashtbl.find_opt pools key with
                | None | Some { contents = [] } -> None
                | Some q ->
                  let idx = List.hd !q in
                  q := List.tl !q;
                  (match go (pos + len) with
                   | Some rest -> Some (idx :: rest)
                   | None ->
                     q := idx :: !q;
                     None)
          in
          (* longest candidate first: the common case is an exact match *)
          let keys =
            List.sort
              (fun a b -> compare (List.length b) (List.length a))
              !keys
          in
          List.fold_left try_key None keys
    end
  in
  go 0

let regroup ~stage ~code_parse ~code_reorder ?width_limit ~before ~after () =
  let before_arr = Array.of_list before in
  let pools = Hashtbl.create 64 and by_first = Hashtbl.create 64 in
  Array.iteri
    (fun idx (i : Inst.t) ->
      let key = i.Inst.gates in
      (match Hashtbl.find_opt pools key with
       | Some q -> q := !q @ [ idx ]
       | None ->
         Hashtbl.add pools key (ref [ idx ]);
         let first = List.hd key in
         (match Hashtbl.find_opt by_first first with
          | Some ks -> if not (List.mem key !ks) then ks := key :: !ks
          | None -> Hashtbl.add by_first first (ref [ key ]))))
    before_arr;
  let checks = ref 0 and skipped = ref 0 and diags = ref [] in
  (* 1. every after-instruction is a concatenation of before-instructions *)
  let parses =
    List.map
      (fun (i : Inst.t) ->
        match parse_concat ~pools ~by_first i.Inst.gates with
        | Some constituents ->
          incr checks;
          (i, constituents)
        | None ->
          diags :=
            err ~stage ~insts:[ i.Inst.id ] code_parse
              (Printf.sprintf
                 "instruction %d's members are not a regrouping of the \
                  boundary's input instructions" i.Inst.id)
            :: !diags;
          (i, []))
      after
  in
  let leftovers =
    Hashtbl.fold (fun _ q acc -> acc + List.length !q) pools 0
  in
  if leftovers > 0 && !diags = [] then
    diags :=
      err ~stage code_parse
        (Printf.sprintf "%d input instructions vanished across the boundary"
           leftovers)
      :: !diags;
  if !diags <> [] then
    Certificate.outcome ~method_:"regroup" !checks ~diags:(List.rev !diags)
  else begin
    (* 2. width policy *)
    (match width_limit with
     | None -> ()
     | Some limit ->
       List.iter
         (fun (i : Inst.t) ->
           if Inst.width i > limit then
             diags :=
               err ~stage ~insts:[ i.Inst.id ] ~qubits:i.Inst.qubits "QC051"
                 (Printf.sprintf "instruction %d spans %d qubits (limit %d)"
                    i.Inst.id (Inst.width i) limit)
               :: !diags
           else incr checks)
         after);
    (* 3. the realized constituent order must be reachable from the input
       order by certified block exchanges *)
    let rank = Array.make (Array.length before_arr) 0 in
    let next = ref 0 in
    List.iter
      (fun (_, constituents) ->
        List.iter
          (fun idx ->
            rank.(idx) <- !next;
            incr next)
          constituents)
      parses;
    let cache : commute_cache = Hashtbl.create 64 in
    certify_block_exchanges ~stage ~code:code_reorder ~cache
      ~rank:(fun idx -> rank.(idx))
      ~inst_of:(fun idx -> before_arr.(idx))
      ~n:(Array.length before_arr) ~checks ~skipped ~diags ();
    Certificate.outcome ~method_:"regroup" !checks ~skipped:!skipped
      ~diags:(List.rev !diags)
  end
