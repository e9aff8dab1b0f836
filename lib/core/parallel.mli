(** Fixed-size domain-pool executor for the parallel compile drivers.

    The determinism contract: results are slotted by job index, so
    [map ~jobs:n f arr] returns byte-for-byte what [map ~jobs:1 f arr]
    returns, for any [n] — provided [f] is deterministic per job and
    any state it shares across jobs is merge-order-independent (the
    compute-once {!Pipeline.Cache}, index-order-merged
    {!Qobs.Metrics} shards, the mutex-guarded {!Qobs.Ledger}). Only
    scheduling — which worker runs which job, and when — varies with
    the pool size. *)

val map :
  ?jobs:int -> ?init:(unit -> unit) -> (int -> 'a -> 'b) -> 'a array ->
  'b array
(** [map ~jobs ~init f arr] computes [|f 0 arr.(0); f 1 arr.(1); ...|]
    on a pool of [min jobs (Array.length arr) - 1] spawned domains plus
    the caller, all pulling job indices from a shared atomic counter.

    Every [jobs >= 1] runs one code path: [jobs <= 1] (the default) is
    zero spawns and the same worker loop on the calling domain, so it is
    the sequential reference the pooled runs are byte-identical to.

    [init] (default: nothing) runs once on the caller and once on each
    spawned domain, before that worker's first job — the drivers pass
    [Compiler.reset_all_memos] so every worker starts from the same cold
    per-domain memo state. The caller's [init] runs at the start of
    every [map], even on an empty array. Afterwards the caller's memos
    are warm from whichever jobs it ran; decisions never depend on memo
    warmth, so later sequential calls on the caller return the same
    bytes as cold ones.

    If [f] (or [init]) raises on any worker, the caller included, every
    spawned domain is still joined — no orphans — and then the recorded
    exception with the {e lowest} job index ([init] failures first) is
    re-raised on the calling domain with its original backtrace. Workers
    stop pulling new jobs once a failure is recorded, but jobs already in
    flight run to completion. *)
