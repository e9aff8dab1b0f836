module Cache = struct
  module Monitor = Qobs.Domain_safe.Monitor

  type entry = E : 'a Ir.stage * 'a -> entry

  (* a slot is either a landed artifact or an in-flight claim: the
     first prober to miss a key marks it [Pending] and computes; later
     probers park on the monitor instead of duplicating the work, so
     each distinct artifact is computed exactly once no matter how many
     domains race on the same key *)
  type slot =
    | Ready of entry
    | Pending

  type state = {
    tbl : (string, slot) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  (* Monitor-guarded (mutex + condition) rather than per-domain: a
     cache exists to SHARE artifacts across compiles, including compiles
     running on different domains. The lock is held only around table
     lookups/inserts and counter bumps — or parked in [Monitor.wait],
     which releases it — never while a pass runs. *)
  type t = state Qobs.Domain_safe.Monitor.t

  let create () =
    Monitor.make { tbl = Hashtbl.create 64; hits = 0; misses = 0 }

  let hits t = Monitor.with_ t (fun s -> s.hits)
  let misses t = Monitor.with_ t (fun s -> s.misses)

  let length t =
    Monitor.with_ t (fun s ->
        Hashtbl.fold
          (fun _ slot acc ->
            match slot with Ready _ -> acc + 1 | Pending -> acc)
          s.tbl 0)

  (* not safe against compiles in flight on other domains: a parked
     waiter is woken (and will recompute), but a claim fulfilled after
     the reset re-lands its artifact. For tests and between runs. *)
  let clear t =
    Monitor.with_ t (fun s ->
        Hashtbl.reset s.tbl;
        s.hits <- 0;
        s.misses <- 0);
    Monitor.broadcast t

  (* The one atomic probe: the lookup and the matching counter bump
     happen in a single critical section, so [hits + misses] always
     equals the number of probes — the separate find/note_hit/note_miss
     trio this replaces was a check-then-act race that let the counters
     drift from the lookups they were supposed to describe under
     domains. [None] means the caller now HOLDS the [Pending] claim for
     [k] and must either {!fulfil} or {!cancel} it; [Some e] after a
     park still counts as one hit (the artifact was shared, just not
     yet landed when we probed). *)
  let find_or_note t k =
    Monitor.with_ t (fun s ->
        let rec go () =
          match Hashtbl.find_opt s.tbl k with
          | Some (Ready e) ->
            s.hits <- s.hits + 1;
            Some e
          | Some Pending ->
            Monitor.wait t;
            go ()
          | None ->
            s.misses <- s.misses + 1;
            Hashtbl.replace s.tbl k Pending;
            None
        in
        go ())

  let fulfil t k e =
    Monitor.with_ t (fun s -> Hashtbl.replace s.tbl k (Ready e));
    Monitor.broadcast t

  (* release a claim whose compute raised, waking parked waiters so one
     of them re-probes, misses and becomes the new computer *)
  let cancel t k =
    Monitor.with_ t (fun s ->
        match Hashtbl.find_opt s.tbl k with
        | Some Pending -> Hashtbl.remove s.tbl k
        | Some (Ready _) | None -> ());
    Monitor.broadcast t
end

(* Keys chain provenance: the root digests the backend and the source
   circuit (both plain data), and each pass extends the chain with its
   fingerprint. Two strategies that share a prefix of passes therefore
   share exactly that prefix of keys — and nothing past the first
   divergence.

   The source bytes must be canonical. Marshal is sharing-sensitive:
   two structurally equal circuits built by different code paths (one
   sharing a gate value, one rebuilding it) marshal to different bytes,
   silently splitting the cache — and the bytes are not stable across
   runs. Digest the canonical QASM serialization instead: it depends
   only on circuit structure. *)
let root_key backend source =
  Digest.string
    (Backend.fingerprint backend ^ "\x00" ^ Qgate.Qasm.to_string source)

let chain key fingerprint = Digest.string (key ^ "\x00" ^ fingerprint)

(* One pass: cache lookup / span / run, then the hooks in seed order
   (note inside the span, lint checkpoint, certification). Hooks always
   run — a cache hit skips only the work, so diagnostics, certificates
   and span structure are identical with and without sharing. *)
let exec :
    type a b. Pass.ctx -> Cache.t option -> string option -> (a, b) Pass.t ->
    a -> b =
 fun ctx cache key p a ->
  let compute () : b =
    (* never mutate a cache-resident artifact: in-place passes get a
       private copy of the graph when sharing is on *)
    let a : a =
      match p.Pass.mutates with
      | Pass.In_place when cache <> None -> Ir.clone p.Pass.out a
      | Pass.In_place | Pass.Pure -> a
    in
    Qobs.Trace.with_span ctx.Pass.obs p.Pass.name (fun () ->
        let b = p.Pass.run ctx a in
        (match p.Pass.note with Some f -> f ctx a b | None -> ());
        b)
  in
  let hit (b : b) : b =
    Qobs.Metrics.incr ctx.Pass.metrics "pipeline.cache.hit";
    Qobs.Trace.with_span ctx.Pass.obs p.Pass.name (fun () ->
        Qobs.Trace.attr_str ctx.Pass.obs "cache" "hit";
        (match p.Pass.note with Some f -> f ctx a b | None -> ());
        b)
  in
  let produce () =
    match (cache, key) with
    | None, _ | _, None -> compute ()
    | Some c, Some k ->
      (match Cache.find_or_note c k with
       | Some (Cache.E (st, v)) ->
         (match Ir.equal_stage st p.Pass.out with
          | Some Ir.Eq -> hit v
          | None ->
            (* a wrong-stage artifact under a provenance-chained key is
               impossible short of a fingerprint collision; recompute
               and land the corrected entry (counted as the hit the
               probe recorded) *)
            Qobs.Metrics.incr ctx.Pass.metrics "pipeline.cache.hit";
            let b = compute () in
            Cache.fulfil c k (Cache.E (p.Pass.out, b));
            b)
       | None ->
         (* we hold the Pending claim: fulfil on success, cancel on
            failure so parked waiters never deadlock *)
         Qobs.Metrics.incr ctx.Pass.metrics "pipeline.cache.miss";
         (match compute () with
          | b ->
            Cache.fulfil c k (Cache.E (p.Pass.out, b));
            b
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Cache.cancel c k;
            Printexc.raise_with_backtrace e bt))
  in
  let hooked b =
    (match (p.Pass.check, ctx.Pass.lint) with
     | Some f, Some acc ->
       let diags = f ctx a b in
       acc := List.rev_append diags !acc;
       if List.exists Qlint.Diagnostic.is_error diags then
         raise
           (Qlint.Report.Check_failed (Qlint.Report.of_list (List.rev !acc)))
     | _ -> ());
    b
  in
  match (p.Pass.certify, ctx.Pass.cert) with
  | Some (Pass.Cert_pre (snap, post)), Some c ->
    let s = snap a in
    let b = hooked (produce ()) in
    post ctx c s b;
    b
  | Some (Pass.Cert f), Some c ->
    let b = hooked (produce ()) in
    f ctx c a b;
    b
  | _ -> hooked (produce ())

(* the sequence's type proves each pass consumes its predecessor's
   artifact; the key chain follows the passes one by one *)
let rec exec_seq :
    type a b. Pass.ctx -> Cache.t option -> string option -> (a, b) Pass.seq ->
    a -> b =
 fun ctx cache key passes a ->
  match passes with
  | [] -> a
  | p :: rest ->
    let key = Option.map (fun k -> chain k p.Pass.fingerprint) key in
    exec_seq ctx cache key rest (exec ctx cache key p a)

let run ~ctx ?cache passes source =
  let key0 =
    match cache with
    | Some _ -> Some (root_key ctx.Pass.backend source)
    | None -> None
  in
  let (s : Ir.scheduled) = exec_seq ctx cache key0 passes source in
  let route =
    match s.route with
    | Some r -> r
    | None -> invalid_arg "Pipeline.run: final schedule is not routed"
  in
  { Ir.l = s.l;
    gdg = s.gdg;
    schedule = s.schedule;
    latency = s.schedule.Qsched.Schedule.makespan;
    merges = s.merges;
    route }
