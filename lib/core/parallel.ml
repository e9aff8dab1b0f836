(* A fixed-size Domain-pool executor: [map ~jobs f arr] runs [f] over
   the array on [min jobs (Array.length arr) - 1] spawned domains plus the
   caller, all pulling job indices from one atomic counter, and slots
   each result by its job index — so the output (and anything else
   merged in index order, like per-job metrics shards) is byte-identical
   at any [~jobs]. The pool of one is zero spawns and the same worker
   loop on the caller.

   No Domainslib: the pool lives and dies inside one [map] call, so
   there is no module-toplevel state here for domlint to classify, and
   the only cross-domain writes are the atomic counters, the per-index
   result slots (distinct indices — race-free under the OCaml memory
   model) and whatever [f] itself shares behind locks. *)

(* the first failure wins, lowest job index first, so the caller sees a
   deterministic exception when several workers fail in one run;
   [init] failures are recorded as index -1 and outrank any job *)
let note_failure failure i e bt =
  let rec cas () =
    let cur = Atomic.get failure in
    let better =
      match cur with None -> true | Some (j, _, _) -> i < j
    in
    if better && not (Atomic.compare_and_set failure cur (Some (i, e, bt)))
    then cas ()
  in
  cas ()

let map ?(jobs = 1) ?(init = fun () -> ()) f arr =
  let n = Array.length arr in
  let workers = max 1 (min jobs n) in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let worker () =
    match init () with
    | exception e -> note_failure failure (-1) e (Printexc.get_raw_backtrace ())
    | () ->
      let rec loop () =
        (* stop pulling new jobs once any worker has failed: the run's
           result is already decided, finish draining cheaply *)
        if Atomic.get failure = None then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f i arr.(i) with
             | b -> results.(i) <- Some b
             | exception e ->
               note_failure failure i e (Printexc.get_raw_backtrace ()));
            loop ()
          end
        end
      in
      loop ()
  in
  let domains = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  (* join everything before deciding the outcome: on failure no worker
     is left orphaned, and on success the joins are the happens-before
     edges that make every spawned worker's result slots visible to the
     caller *)
  Array.iter Domain.join domains;
  match Atomic.get failure with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    Array.map
      (function Some b -> b | None -> assert false (* all slots filled *))
      results
