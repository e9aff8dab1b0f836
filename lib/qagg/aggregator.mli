(** Iterative monotonic-action instruction aggregation (paper §4.3).

    The search keeps parallelism intact by only executing {e monotonic}
    actions: merges that cannot lengthen the critical path even under a
    pessimistic (serial, unoptimized) latency for the new block. Each
    round performs the globally best action (largest predicted pulse-time
    gain), updates the GDG, and repeats; when no action remains, every
    aggregate is re-costed by the cost model (the optimal control query),
    which shortens blocks and may unlock further monotonic actions — the
    outer loop iterates to convergence.

    Slack-based monotonicity: with ASAP starts and ALAP deadlines computed
    once per round, the merged block (placed at the earlier member's
    start, delayed by the later member's other-qubit predecessors) must
    still meet every successor's latest start and the overall makespan.
    [pessimism] selects the duration used in that check: [`Serial] (the
    paper's rule) assumes the unoptimized serial sum of the two members;
    [`Model] (the default) trusts the cost model's predicted merged time —
    affordable here because the "optimal control query" is an O(1)
    analytic model rather than hours of GRAPE, and necessary for the
    paper's reported serial-application gains, which stall under serial
    pessimism when zero-slack side gates veto growth (see DESIGN.md). *)

type stats = {
  merges : int;
  rounds : int;  (** outer re-costing iterations *)
  initial_makespan : float;
  final_makespan : float;
}

val run :
  ?width_limit:int ->
  ?pessimism:[ `Serial | `Model ] ->
  cost:(Qgate.Gate.t list -> float) ->
  Qgdg.Gdg.t ->
  stats
(** Aggregates in place, in at most 8 outer rounds. [width_limit]
    defaults to 10 (the optimal-control scalability bound, §2.5). [cost]
    maps a member-gate block to its optimized pulse time. Raises
    [Invalid_argument] when [cost] answers a nan, infinite or negative
    latency for any block; the input graph's latencies are finite and
    non-negative by construction ({!Qgdg.Gdg.of_insts}).

    The search is incremental. Chain neighbours are read from the
    {!Qgdg.Gdg} links and precedence from the graph's maintained
    topological order. ASAP starts and makespan-free deadlines (each
    node's tail; a successor's latest start is the makespan minus its
    tail) are one {!Qgdg.Timing} table: every merge goes through
    {!Qgdg.Timing.merge}, which re-times the splice's dependents in that
    order, and the table is rebuilt only when a round re-costs the
    blocks. The nodes it re-times are ticked as [agg.slack_visits] once
    per run. Commutation goes
    through one {!Qgdg.Comm_group.oracle_commute}, one summary per block
    id, under an id-pair decision cache. The commutation groups are
    regrouped in the window around the splice ({!Qgdg.Comm_group.refresh},
    handed [a]'s and [b]'s links as read before the merge); the chain
    elements it examines are ticked as [agg.regroup_visits] once per run.

    Each inner sweep enumerates the action space afresh: per qubit, the
    chain's consecutive pairs and each commutation group's ordered pairs,
    kept when they are schedulable and within [width_limit], deduplicated
    across qubits. A schedulable pair is chain-adjacent or same-group on
    every qubit it shares, so it is found on any of them, and the
    enumeration equals the all-pairs action space of the specification;
    its size is ticked as [agg.attempted]. Scored candidates are applied
    in (gain descending, pair) order, a total order, so the order of
    enumeration cannot change a decision. The test suite pins the
    accepted-merge sequence, the round count, the attempted count and the
    final graph against a full-recompute specification of the same
    search.

    With a metrics registry installed, [run] times its phases and records
    one [agg.phase.<phase>.ms] sample each per run:
    - [enumerate]: building each sweep's candidate list;
    - [score]: pricing, the monotonicity test and the sort, plus each
      candidate's recheck against the live tables before it is applied;
    - [retime]: {!Qgdg.Timing}, the initial table, every
      {!Qgdg.Timing.merge} (the {!Qgdg.Gdg.merge} inside it included) and
      each rebuild after a re-cost;
    - [regroup]: {!Qgdg.Comm_group}, the initial build and every
      {!Qgdg.Comm_group.refresh}, with the commutation probes they make;
    - [recost]: the per-round re-costing of every block.

    [agg.phase.unattributed.ms] is what is left of the run's wall time:
    setting up the caches, the sweep loop's own control and the final
    counter ticks. The six add up to the [aggregate] pass span less the
    pass wrapper's own microseconds. With metrics off, each phase
    boundary costs one branch. *)
