(** Mixed-integer linear programming by branch-and-bound on {!Simplex}.

    Designed for the verification workload: feasibility queries over
    big-M ReLU encodings where the integer variables are the binary
    phase indicators.  Also solves general small MILPs.

    There is one node loop: a depth-first search of a subtree on a
    local stack.  With [options.workers = 1] it runs once over the whole
    tree on the calling domain; with more workers it runs as batched
    subtree tasks on a work-stealing {!Pool} that shares one incumbent. *)

type result =
  | Optimal of { objective : float; solution : float array }
      (** Best integer-feasible point, with an optimality proof: the
          branch-and-bound tree was exhausted (or pruned) in full. *)
  | Feasible of { objective : float; solution : float array }
      (** An integer-feasible incumbent {e without} an optimality
          proof: the search was truncated by the node cap, the
          wall-clock deadline, a [find_first] early exit, or an
          unbounded relaxation on some open branch.  The solution is a
          genuine feasible point and may serve as a witness, but the
          objective is only a bound on the true optimum. *)
  | Infeasible
  | Unbounded
      (** The {e root} LP relaxation is unbounded (the MILP may be
          too).  Only the root can make this claim: below a bounded
          root every child's feasible set is contained in the root's,
          so a child relaxation reported unbounded is a numerical
          artifact — the solvers treat it as truncation (the subtree is
          dropped, siblings are still explored) and the run degrades to
          {!Feasible} or {!Node_limit} honesty instead. *)
  | Node_limit
      (** Search stopped without a conclusive answer and without an
          incumbent: the [max_nodes] cap was hit, or a non-root
          unbounded relaxation forced a subtree to be dropped. *)
  | Timeout
      (** Search stopped at the wall-clock deadline without a
          conclusive answer.  Queries should degrade to "unknown"
          rather than spin to the node cap. *)

type stats = {
  nodes_explored : int;
  lp_solved : int;
  incumbent_updates : int;
  lp_time_s : float;            (** wall time spent inside {!Simplex} *)
  per_worker_nodes : int array; (** node count by worker; [[|n|]] when
                                    solved sequentially *)
  steals : int;                 (** work-stealing events (0 sequential) *)
  max_queue_depth : int;        (** deepest any subproblem queue got,
                                    counting the seeded root — so it is
                                    at least 1 whenever a node was
                                    explored, sequentially or not *)
  pivots : int;                 (** simplex iterations across all node
                                    LPs, bound flips included *)
  warm_starts : int;            (** node LPs re-solved from a parent's
                                    factorized basis (dual simplex) *)
  cold_starts : int;            (** node LPs solved from scratch: the
                                    root, the first node each parallel
                                    worker touches, and any solve after
                                    a numerical-trouble fallback *)
  fallbacks : int;              (** node LPs rescued by the dense
                                    reference solver after the revised
                                    engine hit numerical trouble *)
  absint_phase_fixes : int;     (** binary phase variables fixed by the
                                    abstract-interpretation guide
                                    without branching *)
  absint_prunes : int;          (** nodes discharged by the guide before
                                    their LP was ever solved (they do
                                    not count toward [nodes_explored]) *)
  absint_incr_hits : int;       (** guide consults that resumed from at
                                    least one cached layer state instead
                                    of propagating from scratch *)
  absint_layers_propagated : int;
                                (** DeepPoly layer transfers the guide
                                    actually ran across all consults *)
  absint_layers_saved : int;    (** layer transfers skipped by reusing
                                    cached prefix states (scratch-mode
                                    propagation would have run
                                    [layers_propagated + layers_saved]) *)
  absint_cache_evictions : int; (** layer states dropped from the
                                    guide's prefix cache for the memory
                                    budget (counted once per guide
                                    instance per evicted layer) *)
}

val empty_stats : stats
(** All-zero statistics; the baseline for non-MILP code paths that must
    still report a [stats] record. *)

val add_stats : stats -> stats -> stats
(** Componentwise sum (concatenating [per_worker_nodes], maxing
    [max_queue_depth]) — used when one verification query is answered
    by several MILP solves, e.g. under input bisection. *)

type branch_rule =
  | Most_fractional  (** classic most-fractional branching (default) *)
  | Bound_width
      (** among fractional binaries, branch on the one whose
          pre-activation interval (as scored by the [absint] guide) is
          widest; falls back to [Most_fractional] when no guide is
          armed or it scored no candidate *)
  | Guide_order
      (** branch on the {e deepest} guide-scored fractional binary.
          The [absint] guide lists crossing binaries in network layer
          order, so this fixes ReLU phases output-end-first down each
          DFS path: consecutive nodes then differ only in the deepest
          layers, which is exactly the access pattern the incremental
          guide's prefix cache resumes cheapest.  Falls back to
          [Most_fractional] when no guide is armed or it scored no
          candidate *)

type guidance = {
  prune : bool;
      (** the node's region provably misses the query: discard it
          without solving its LP *)
  fix : (Lp.var * float) list;
      (** binaries whose phase is implied by the node's bounds; the
          solver fixes each variable to the given 0/1 value before the
          LP solve *)
  widths : (Lp.var * float) list;
      (** pre-activation interval width per still-free binary, the
          score used by {!Bound_width} branching *)
}

type guide = Lp.t -> guidance
(** An abstract-interpretation oracle consulted once per node, before
    the node's LP is solved.  Must be sound: [prune] only when no point
    of the node's feasible region satisfies the query, [fix] only
    phases implied (up to feasibility-preserving tie-breaks at 0) by
    the node's bounds.  Built over DeepPoly by [Dpv_core.Absguide];
    this module only sees the closure, so [lib/linprog] stays free of
    any dependency on the abstract domains. *)

type guide_stats = {
  incr_hits : int;
  layers_propagated : int;
  layers_saved : int;
  cache_evictions : int;
}
(** Incremental-propagation work done by a stateful guide; see the
    matching [absint_*] fields of {!stats}.  All zero for stateless
    guides. *)

val empty_guide_stats : guide_stats

type guide_factory = {
  new_guide : unit -> guide;
      (** a fresh guide instance.  Instances may carry mutable
          propagation caches, so each is confined to the solver thread
          that requested it: a solve makes one per worker domain. *)
  guide_stats : unit -> guide_stats;
      (** counters aggregated over every instance this factory created.
          Solvers snapshot before and after a search and record the
          delta, so factories may be reused across solves. *)
}
(** How solvers obtain guides.  The factory itself must be safe to call
    from the domain that owns the solve; instance creation happens on
    the worker domains but is serialized per instance. *)

val stateless_guide : guide -> guide_factory
(** Wrap a stateless per-node closure as a factory (every instance is
    the same closure; stats stay zero).  The natural constructor for
    tests and ad-hoc heuristics. *)

type options = {
  max_nodes : int;      (** branch-and-bound node budget *)
  int_tol : float;      (** integrality tolerance *)
  find_first : bool;    (** stop at the first integer-feasible solution;
                            the natural mode for feasibility queries.
                            Incumbents are reported as {!Feasible}
                            (never {!Optimal}) in this mode *)
  workers : int;        (** search domains; must be at least 1 ({!solve}
                            raises [Invalid_argument] otherwise).  [1]
                            searches on the calling domain with no pool
                            at all *)
  task_batch : int;     (** with [workers > 1], the node LPs one pool
                            task explores depth-first before handing
                            leftover subtrees back to the pool (default
                            32; values < 1 clamp to 1, which restores
                            one-node tasks).  Batching amortizes
                            per-task pool overhead and keeps
                            consecutive node LPs on the same worker
                            handle's warm basis.  Unused at
                            [workers = 1], where the whole tree is one
                            unbroken batch *)
  time_limit_s : float option;
      (** wall-clock budget; [None] never expires.  Measured on a
          monotonic wall clock, not CPU time, so it stays meaningful
          under multi-domain search. *)
  lp_dense : bool;
      (** solve every node LP with {!Simplex.solve_dense} instead of
          the warm-started revised engine.  Slow but stateless between
          nodes; the retry ladder switches this on after an escaped
          [Numerical_trouble]. *)
  absint : guide_factory option;
      (** abstract-interpretation guide factory; each search
          instantiates its own guide(s) and consults one per node
          ([None], the default, leaves the search bit-for-bit identical
          to the unguided solver) *)
  branch_rule : branch_rule;  (** branch-variable selection rule *)
}

val default_options : options
(** [{ max_nodes = 200_000; int_tol = 1e-6; find_first = false;
      workers = 1; task_batch = 32; time_limit_s = None; lp_dense = false;
      absint = None; branch_rule = Most_fractional }] *)

val find_branch_var : tol:float -> Lp.t -> float array -> Lp.var option
(** Most fractional integer variable, ties broken toward the lowest
    variable index (deterministically, so sequential and parallel runs
    branch identically on identical relaxations). *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count () - 1], floored at 1: leave one
    core for the rest of the process, never go below sequential. *)

val solve : ?options:options -> Lp.t -> result
val solve_with_stats : ?options:options -> Lp.t -> result * stats
(** Branch-and-bound over [options.workers] domains.

    Every worker runs the same depth-first node loop, preferred child
    first (the branch nearer the relaxation's fractional value).  With
    [workers = 1] that loop is called once on the root: one warm simplex
    handle, one guide instance, no {!Pool}, and a deterministic
    traversal — the mode the pinned counters in the tests rely on.
    [max_queue_depth] is then the high-water mark of the DFS stack,
    counting the root as 1.

    With [workers > 1] the loop runs as pool tasks that each dive for
    up to [options.task_batch] node LPs, spilling their shallowest open
    subtrees back to the pool for thieves and re-enqueueing the rest
    when the budget runs out.  Workers share a single incumbent: any
    worker that finds a better integer-feasible point publishes it,
    and every worker prunes against it.  Exploration order differs from
    the one-worker run, but the answer does not: optimality and
    infeasibility proofs exhaust the same tree, so objective values and
    Infeasible/Timeout classifications agree (witness solutions may
    differ between equally-optimal points).  [max_queue_depth] is the
    deepest pool deque.

    Node budgets ([max_nodes]) and wall-clock deadlines
    ([time_limit_s]) are enforced globally across workers.  Each
    finished solve folds its [stats] into the global {!Dpv_obs.Metrics}
    registry ([milp.*], [simplex.*] and [absint.*] counters, the
    [milp.max_queue_depth] gauge) and every node LP's wall time into the
    [milp.lp_solve_ns] histogram.

    @raise Invalid_argument if [options.workers < 1]. *)
