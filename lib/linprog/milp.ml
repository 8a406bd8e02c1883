type result =
  | Optimal of { objective : float; solution : float array }
  | Feasible of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Node_limit
  | Timeout

type stats = {
  nodes_explored : int;
  lp_solved : int;
  incumbent_updates : int;
  lp_time_s : float;
  per_worker_nodes : int array;
  steals : int;
  max_queue_depth : int;
  pivots : int;
  warm_starts : int;
  cold_starts : int;
  fallbacks : int;
  absint_phase_fixes : int;
  absint_prunes : int;
  absint_incr_hits : int;
  absint_layers_propagated : int;
  absint_layers_saved : int;
  absint_cache_evictions : int;
}

let empty_stats =
  {
    nodes_explored = 0;
    lp_solved = 0;
    incumbent_updates = 0;
    lp_time_s = 0.0;
    per_worker_nodes = [||];
    steals = 0;
    max_queue_depth = 0;
    pivots = 0;
    warm_starts = 0;
    cold_starts = 0;
    fallbacks = 0;
    absint_phase_fixes = 0;
    absint_prunes = 0;
    absint_incr_hits = 0;
    absint_layers_propagated = 0;
    absint_layers_saved = 0;
    absint_cache_evictions = 0;
  }

let add_stats a b =
  {
    nodes_explored = a.nodes_explored + b.nodes_explored;
    lp_solved = a.lp_solved + b.lp_solved;
    incumbent_updates = a.incumbent_updates + b.incumbent_updates;
    lp_time_s = a.lp_time_s +. b.lp_time_s;
    per_worker_nodes = Array.append a.per_worker_nodes b.per_worker_nodes;
    steals = a.steals + b.steals;
    max_queue_depth = max a.max_queue_depth b.max_queue_depth;
    pivots = a.pivots + b.pivots;
    warm_starts = a.warm_starts + b.warm_starts;
    cold_starts = a.cold_starts + b.cold_starts;
    fallbacks = a.fallbacks + b.fallbacks;
    absint_phase_fixes = a.absint_phase_fixes + b.absint_phase_fixes;
    absint_prunes = a.absint_prunes + b.absint_prunes;
    absint_incr_hits = a.absint_incr_hits + b.absint_incr_hits;
    absint_layers_propagated =
      a.absint_layers_propagated + b.absint_layers_propagated;
    absint_layers_saved = a.absint_layers_saved + b.absint_layers_saved;
    absint_cache_evictions = a.absint_cache_evictions + b.absint_cache_evictions;
  }

type branch_rule = Most_fractional | Bound_width | Guide_order

(* What an abstract-interpretation guide learned about one node.  The
   solver stays ignorant of how the bounds were propagated: [prune]
   means the node's feasible region provably misses the query, [fix]
   lists binary variables whose phase is implied by the node's current
   bounds, and [widths] scores still-free binaries by the width of the
   pre-activation interval they control (for [Bound_width] branching). *)
type guidance = {
  prune : bool;
  fix : (Lp.var * float) list;
  widths : (Lp.var * float) list;
}

type guide = Lp.t -> guidance

(* What a stateful guide did across one solve: cache hits (consults
   that reused at least one cached layer state), layer transfers run
   and skipped, and layer states dropped for the memory budget.  All
   zero for stateless guides. *)
type guide_stats = {
  incr_hits : int;
  layers_propagated : int;
  layers_saved : int;
  cache_evictions : int;
}

let empty_guide_stats =
  {
    incr_hits = 0;
    layers_propagated = 0;
    layers_saved = 0;
    cache_evictions = 0;
  }

let sub_guide_stats a b =
  {
    incr_hits = a.incr_hits - b.incr_hits;
    layers_propagated = a.layers_propagated - b.layers_propagated;
    layers_saved = a.layers_saved - b.layers_saved;
    cache_evictions = a.cache_evictions - b.cache_evictions;
  }

(* Guides carry per-solver state (cached propagation prefixes), so the
   solver asks the factory for a fresh instance per search worker
   instead of sharing a closure across domains.  [guide_stats] aggregates over
   every instance the factory ever made; solvers read it as a
   start/end delta so factories may outlive a solve. *)
type guide_factory = {
  new_guide : unit -> guide;
  guide_stats : unit -> guide_stats;
}

(* Wrap a stateless per-node closure (tests, custom heuristics) as a
   factory: every "instance" is the same closure and the stats stay
   zero. *)
let stateless_guide g =
  { new_guide = (fun () -> g); guide_stats = (fun () -> empty_guide_stats) }

type options = {
  max_nodes : int;
  int_tol : float;
  find_first : bool;
  workers : int;
  task_batch : int;
  time_limit_s : float option;
  lp_dense : bool;
  absint : guide_factory option;
  branch_rule : branch_rule;
}

(* Global metrics, folded from the finished [stats] record at the end of
   each solve rather than incremented per pivot: the campaign-level
   counter totals then equal the sum of the per-query stats exactly, and
   the search hot loop gains no atomic traffic.  The per-LP latency histogram reuses the two
   clock reads the [lp_time_s] accounting already makes. *)
module Metrics = Dpv_obs.Metrics

let m_solves = Metrics.counter "milp.solves"
let m_nodes = Metrics.counter "milp.nodes"
let m_lps = Metrics.counter "milp.lps"
let m_incumbents = Metrics.counter "milp.incumbent_updates"
let m_lp_time = Metrics.counter "milp.lp_time_ns"
let m_steals = Metrics.counter "milp.steals"
let m_queue_depth = Metrics.gauge "milp.max_queue_depth"
let m_pivots = Metrics.counter "simplex.pivots"
let m_warm = Metrics.counter "simplex.warm_starts"
let m_cold = Metrics.counter "simplex.cold_starts"
let m_fallbacks = Metrics.counter "simplex.fallbacks"
let m_absint_fixes = Metrics.counter "absint.phase_fixes"
let m_absint_prunes = Metrics.counter "absint.prunes"
let m_absint_hits = Metrics.counter "absint.incr_hits"
let m_absint_propagated = Metrics.counter "absint.layers_propagated"
let m_absint_saved = Metrics.counter "absint.layers_saved"
let m_absint_evictions = Metrics.counter "absint.cache_evictions"
let lp_solve_hist = Metrics.histogram "milp.lp_solve_ns"

let record_metrics (s : stats) =
  Metrics.incr m_solves 1;
  Metrics.incr m_nodes s.nodes_explored;
  Metrics.incr m_lps s.lp_solved;
  Metrics.incr m_incumbents s.incumbent_updates;
  Metrics.incr m_lp_time (int_of_float (s.lp_time_s *. 1e9));
  Metrics.incr m_steals s.steals;
  Metrics.set_max m_queue_depth s.max_queue_depth;
  Metrics.incr m_pivots s.pivots;
  Metrics.incr m_warm s.warm_starts;
  Metrics.incr m_cold s.cold_starts;
  Metrics.incr m_fallbacks s.fallbacks;
  Metrics.incr m_absint_fixes s.absint_phase_fixes;
  Metrics.incr m_absint_prunes s.absint_prunes;
  Metrics.incr m_absint_hits s.absint_incr_hits;
  Metrics.incr m_absint_propagated s.absint_layers_propagated;
  Metrics.incr m_absint_saved s.absint_layers_saved;
  Metrics.incr m_absint_evictions s.absint_cache_evictions

let observe_lp_s seconds =
  Metrics.observe lp_solve_hist (int_of_float (seconds *. 1e9))

let default_options =
  {
    max_nodes = 200_000;
    int_tol = 1e-6;
    find_first = false;
    workers = 1;
    task_batch = 32;
    time_limit_s = None;
    lp_dense = false;
    absint = None;
    branch_rule = Most_fractional;
  }

let is_integral ~tol x = Float.abs (x -. Float.round x) <= tol

(* Most fractional integer variable, if any.  Ties (within an epsilon
   well below any meaningful fractionality difference) go to the lowest
   variable index: [Lp.integer_vars] is ascending and a candidate must
   beat the best strictly, so parallel and sequential runs branch on the
   same variable and report stable witnesses. *)
let find_branch_var ~tol model solution =
  let best = ref None in
  List.iter
    (fun v ->
      let x = solution.(v) in
      if not (is_integral ~tol x) then begin
        let frac = Float.abs (x -. Float.round x) in
        match !best with
        | Some (_, f) when frac <= f +. 1e-12 -> ()
        | _ -> best := Some (v, frac)
      end)
    (Lp.integer_vars model);
  Option.map fst !best

(* Widest-interval fractional variable under [Bound_width]: among the
   fractional integer variables that the guide scored, take the one
   whose pre-activation interval is widest (ties go to the lowest index,
   like [find_branch_var], for run-to-run stability).  Falls back to
   most-fractional when the guide scored none of the candidates. *)
let find_branch_var_widest ~tol model solution widths =
  let best = ref None in
  List.iter
    (fun v ->
      let x = solution.(v) in
      if not (is_integral ~tol x) then
        match List.assoc_opt v widths with
        | None -> ()
        | Some w -> (
            match !best with
            | Some (_, bw) when w <= bw -> ()
            | _ -> best := Some (v, w)))
    (Lp.integer_vars model);
  match !best with
  | Some (v, _) -> Some v
  | None -> find_branch_var ~tol model solution

(* Deepest-scored fractional variable under [Guide_order]: the guide
   emits widths in network layer order (per layer, ascending neuron
   index), so the last fractional entry is the deepest crossing
   binary.  Branching deepest-first means consecutive DFS nodes differ
   only in the final layers, so the incremental guide's prefix cache
   rolls back as little as possible; shallow invalidations only happen
   at the (geometrically rarer) backtracks above a exhausted deep
   subtree.  Falls back to most-fractional when the guide scored no
   fractional candidate. *)
let find_branch_var_ordered ~tol model solution widths =
  let best = ref None in
  List.iter
    (fun (v, _) -> if not (is_integral ~tol solution.(v)) then best := Some v)
    widths;
  match !best with
  | Some v -> Some v
  | None -> find_branch_var ~tol model solution

let round_integral ~tol model solution =
  let out = Array.copy solution in
  List.iter
    (fun v -> if is_integral ~tol out.(v) then out.(v) <- Float.round out.(v))
    (Lp.integer_vars model);
  out

(* Child order for DFS: explore the branch nearer the fractional value
   first — it finds integer-feasible points faster in practice. *)
let branch_children node v x =
  let lo, up = Lp.var_bounds node v in
  let floor_v = Float.floor x and ceil_v = Float.ceil x in
  let down = Lp.set_var_bounds node v ~lo ~up:(Some floor_v) in
  let up_node = Lp.set_var_bounds node v ~lo:(Some ceil_v) ~up in
  if x -. floor_v <= ceil_v -. x then (down, up_node) else (up_node, down)

let default_workers () =
  Stdlib.max 1 (Domain.recommended_domain_count () - 1)

(* One shared search state, read and written by every worker.  The
   incumbent needs a compound compare-and-publish, so it lives behind a
   mutex; everything touched once per node at most rides on atomics.
   Contention is negligible: each critical section is a few loads
   against an LP solve per node, and with one worker there is none. *)
type shared = {
  incumbent : (float * float array) option ref;
  incumbent_lock : Mutex.t;
  nodes : int Atomic.t;
  lps : int Atomic.t;
  updates : int Atomic.t;
  found : bool Atomic.t;          (* an incumbent exists (find_first exit) *)
  hit_limit : bool Atomic.t;
  hit_deadline : bool Atomic.t;
  relaxation_unbounded : bool Atomic.t;  (* root LP unbounded: halt *)
  unbounded_truncated : bool Atomic.t;   (* non-root artifact: go on *)
  absint_fixes : int Atomic.t;
  absint_prunes : int Atomic.t;
}

(* Subtrees a batched task keeps on its local stack before spilling the
   shallowest ones back to the pool for thieves. *)
let max_local_stack = 8

let rec split_at n l =
  if n = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split_at (n - 1) rest in
        (x :: a, b)

let solve_with_stats ?(options = default_options) model =
  if options.workers < 1 then
    invalid_arg "Milp.solve_with_stats: workers must be >= 1";
  let trace_t0 = Dpv_obs.Trace.begin_ns () in
  let sense, _ = Lp.objective model in
  (* Internally we always minimize; [better a b] says [a] improves on [b]. *)
  let better a b =
    match sense with Lp.Minimize -> a < b -. 1e-12 | Lp.Maximize -> a > b +. 1e-12
  in
  let deadline = Clock.deadline_after options.time_limit_s in
  let workers = options.workers in
  let s =
    {
      incumbent = ref None;
      incumbent_lock = Mutex.create ();
      nodes = Atomic.make 0;
      lps = Atomic.make 0;
      updates = Atomic.make 0;
      found = Atomic.make false;
      hit_limit = Atomic.make false;
      hit_deadline = Atomic.make false;
      relaxation_unbounded = Atomic.make false;
      unbounded_truncated = Atomic.make false;
      absint_fixes = Atomic.make 0;
      absint_prunes = Atomic.make 0;
    }
  in
  let per_worker_nodes = Array.make workers 0 in
  let lp_time = Array.make workers 0.0 in
  (* Deepest local DFS stack each worker reached, counting the task's
     root as depth 1. *)
  let stack_high_water = Array.make workers 0 in
  (* One persistent solver per worker, created lazily on the worker's
     own domain.  Nodes differ from each other only in integer-variable
     bounds, so syncing those bounds and re-solving warm-starts dual
     simplex from whatever basis the handle last held — a stolen node
     included.  A cold start happens only on each worker's first node. *)
  let handles = Array.make workers None in
  (* Likewise one stateful guide instance per worker: the factory's
     instances carry the incremental DeepPoly prefix cache, which is
     mutable and must stay confined to one domain.  Consecutive nodes
     of a subtree share long fixing prefixes, so the warm state
     survives within a task; a stolen subtree simply diverges at a
     shallow layer and the instance re-propagates from there.  Guide
     counters are read as a delta so a factory reused across solves
     still reports exactly this solve's work. *)
  let guides = Array.make workers None in
  let guide_for id =
    match options.absint with
    | None -> None
    | Some f -> (
        match guides.(id) with
        | Some _ as g -> g
        | None ->
            let g = f.new_guide () in
            guides.(id) <- Some g;
            Some g)
  in
  let guide_stats_before =
    match options.absint with
    | None -> empty_guide_stats
    | Some f -> f.guide_stats ()
  in
  let int_vars = Lp.integer_vars model in
  (* [lp_dense] is the last rung of the retry ladder: every node LP is
     solved with the dense reference implementation, trading speed for
     a path with no incremental basis state to corrupt. *)
  let solve_node id node =
    if options.lp_dense then Simplex.solve_dense node
    else begin
      let handle =
        match handles.(id) with
        | Some h -> h
        | None ->
            let h = Simplex.create model in
            handles.(id) <- Some h;
            h
      in
      List.iter
        (fun v ->
          let lo, up = Lp.var_bounds node v in
          Simplex.set_var_bounds handle v ~lo ~up)
        int_vars;
      Simplex.resolve handle
    end
  in
  let stop () =
    (options.find_first && Atomic.get s.found)
    || Atomic.get s.hit_limit || Atomic.get s.hit_deadline
    || Atomic.get s.relaxation_unbounded
  in
  let try_publish objective sol =
    Mutex.protect s.incumbent_lock (fun () ->
        match !(s.incumbent) with
        | Some (obj, _) when not (better objective obj) -> ()
        | _ ->
            s.incumbent := Some (objective, sol);
            Atomic.incr s.updates;
            Atomic.set s.found true)
  in
  let pruned_by_incumbent objective =
    Mutex.protect s.incumbent_lock (fun () ->
        match !(s.incumbent) with
        | Some (obj, _) -> not (better objective obj)
        | None -> false)
  in
  (* The one node loop: a depth-first search of the subtree under
     [root] on a local stack, for up to [batch] node LPs.  [depth]
     tracks the stack length incrementally (a branch pops one node and
     pushes two, everything else pops one), so the high-water mark costs
     O(1) per node.  With one worker the whole tree is a single call
     with no budget and no spilling.  As a pool task, subtrees beyond
     [spill_past] — the *shallowest* stack entries, the largest open
     subtrees — spill back to the pool where idle workers steal them,
     and whatever the batch budget did not reach is returned for
     re-enqueueing: per-task pool overhead amortizes over the batch and
     consecutive node LPs stay on this worker's warm basis. *)
  let search ~batch ~spill_past id root =
    let stack = ref [ root ] and depth = ref 1 in
    let spilled = ref [] in (* shallowest-first across spill rounds *)
    let processed = ref 0 in
    let truncated = ref false in
    if stack_high_water.(id) < 1 then stack_high_water.(id) <- 1;
    while !stack <> [] && not !truncated do
      if !processed >= batch || stop () then truncated := true
      else if Atomic.get s.nodes >= options.max_nodes then begin
        Atomic.set s.hit_limit true;
        truncated := true
      end
      else if Clock.expired deadline then begin
        Atomic.set s.hit_deadline true;
        truncated := true
      end
      else begin
        let node = List.hd !stack in
        stack := List.tl !stack;
        decr depth;
        (* Physical equality identifies the root: [branch_children]
           always allocates fresh child records, so only the original
           seeded model can ever be [==] to itself here. *)
        let is_root = node == model in
        (* The abstract-interpretation guide, when armed, runs before
           the LP: a pruned node costs no simplex work at all, and
           phase fixes shrink the subtree the relaxation must cover. *)
        let guidance =
          match guide_for id with None -> None | Some g -> Some (g node)
        in
        match guidance with
        | Some g when g.prune -> Atomic.incr s.absint_prunes
        | _ -> (
            let node =
              match guidance with
              | Some { fix = _ :: _ as fix; _ } ->
                  ignore (Atomic.fetch_and_add s.absint_fixes (List.length fix));
                  List.fold_left
                    (fun m (v, x) ->
                      Lp.set_var_bounds m v ~lo:(Some x) ~up:(Some x))
                    node fix
              | _ -> node
            in
            incr processed;
            Atomic.incr s.nodes;
            per_worker_nodes.(id) <- per_worker_nodes.(id) + 1;
            Atomic.incr s.lps;
            let lp_started = Clock.now_s () in
            let status = solve_node id node in
            let status =
              if Faults.fire Faults.Lp_unbounded then Simplex.Unbounded
              else status
            in
            let lp_s = Clock.now_s () -. lp_started in
            lp_time.(id) <- lp_time.(id) +. lp_s;
            observe_lp_s lp_s;
            match status with
            | Simplex.Infeasible -> ()
            | Simplex.Unbounded ->
                if is_root then begin
                  (* At the root this is an honest report: without a
                     finite relaxation bound the MILP itself may be
                     unbounded.  Abandon the search and report. *)
                  Atomic.set s.relaxation_unbounded true;
                  truncated := true
                end
                else
                  (* A child's feasible set is contained in the root's,
                     so below a bounded root an unbounded relaxation is
                     a numerical artifact, not a proof.  Drop the
                     subtree, keep exploring siblings; the flag
                     downgrades any optimality claim below. *)
                  Atomic.set s.unbounded_truncated true
            | Simplex.Optimal { objective; solution } -> (
                if pruned_by_incumbent objective then ()
                else
                  let branch_var =
                    match (options.branch_rule, guidance) with
                    | Bound_width, Some { widths = _ :: _ as widths; _ } ->
                        find_branch_var_widest ~tol:options.int_tol node
                          solution widths
                    | Guide_order, Some { widths = _ :: _ as widths; _ } ->
                        find_branch_var_ordered ~tol:options.int_tol node
                          solution widths
                    | _ -> find_branch_var ~tol:options.int_tol node solution
                  in
                  match branch_var with
                  | None ->
                      try_publish objective
                        (round_integral ~tol:options.int_tol node solution)
                  | Some v ->
                      let first, second = branch_children node v solution.(v) in
                      (* Head of the list is the stack top: the preferred
                         branch is explored first. *)
                      stack := first :: second :: !stack;
                      depth := !depth + 2;
                      if !depth > spill_past then begin
                        let keep, spill = split_at spill_past !stack in
                        stack := keep;
                        depth := spill_past;
                        (* [spill] is deepest-first (stack order); reverse
                           so earlier = shallower within this round, and
                           append so earlier rounds stay ahead — thieves
                           pop the front of the deque, so they always
                           grab the largest spilled subtree first. *)
                        spilled := !spilled @ List.rev spill
                      end;
                      if !depth > stack_high_water.(id) then
                        stack_high_water.(id) <- !depth))
      end
    done;
    (* The pool pushes children in list order to this worker's deque:
       thieves take the front (the spilled subtrees), this worker pops
       the back next — the reversed local stack puts its top last, so
       the dive resumes exactly where the batch budget cut it off.  On
       a truncating exit the re-enqueued nodes are dropped unprocessed
       by the pool's stop check, which is sound: every truncation path
       set its shared flag first, so the result is already classified
       as inconclusive. *)
    !spilled @ List.rev !stack
  in
  let steals, max_queue_depth =
    if workers = 1 then begin
      (* Sequential solving is the pool-free case: one task, the whole
         tree.  Whatever it returns was cut off by a truncation flag. *)
      ignore (search ~batch:max_int ~spill_past:max_int 0 model);
      (0, stack_high_water.(0))
    end
    else begin
      let batch = Stdlib.max 1 options.task_batch in
      let pool_stats =
        Pool.run ~workers ~initial:[ model ]
          ~process:(search ~batch ~spill_past:max_local_stack)
          ~stop
      in
      (* The pool contains task exceptions instead of letting them kill
         a domain, but for branch-and-bound a lost subtree voids the
         pruning proof: a search that dropped nodes must not report
         Infeasible or Optimal.  Re-raise here so the query-level retry
         ladder (or the campaign's crash isolation) decides what to do
         with the query. *)
      (match pool_stats.Pool.first_exn with Some e -> raise e | None -> ());
      (pool_stats.Pool.steals, pool_stats.Pool.max_queue_depth)
    end
  in
  (* Guide counters: the factory aggregates over every instance it
     made, so the workers' per-instance work is read as a single
     start/end delta after the pool joins (happens-before via
     [Pool.run]'s domain joins — no atomics in the hot path). *)
  let gd =
    match options.absint with
    | None -> empty_guide_stats
    | Some f -> sub_guide_stats (f.guide_stats ()) guide_stats_before
  in
  let pivots = ref 0 and warm = ref 0 and cold = ref 0 in
  let fallbacks = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some h ->
          let c = Simplex.counters h in
          pivots := !pivots + c.Simplex.pivots;
          warm := !warm + c.Simplex.warm_starts;
          cold := !cold + c.Simplex.cold_starts;
          fallbacks := !fallbacks + c.Simplex.fallbacks)
    handles;
  let stats =
    {
      nodes_explored = Atomic.get s.nodes;
      lp_solved = Atomic.get s.lps;
      incumbent_updates = Atomic.get s.updates;
      lp_time_s = Array.fold_left ( +. ) 0.0 lp_time;
      per_worker_nodes;
      steals;
      max_queue_depth;
      pivots = !pivots;
      warm_starts = !warm;
      cold_starts = !cold;
      fallbacks = !fallbacks;
      absint_phase_fixes = Atomic.get s.absint_fixes;
      absint_prunes = Atomic.get s.absint_prunes;
      absint_incr_hits = gd.incr_hits;
      absint_layers_propagated = gd.layers_propagated;
      absint_layers_saved = gd.layers_saved;
      absint_cache_evictions = gd.cache_evictions;
    }
  in
  let result =
    match !(s.incumbent) with
    | Some (objective, solution) ->
        (* [Optimal] is an optimality *proof*: the whole tree was pruned
           or exhausted.  Any truncation — node cap, deadline, find_first
           early exit, or an unbounded relaxation somewhere — leaves the
           incumbent a witness only. *)
        let proven =
          (not options.find_first)
          && (not (Atomic.get s.hit_limit))
          && (not (Atomic.get s.hit_deadline))
          && (not (Atomic.get s.relaxation_unbounded))
          && not (Atomic.get s.unbounded_truncated)
        in
        if proven then Optimal { objective; solution }
        else Feasible { objective; solution }
    | None ->
        if Atomic.get s.relaxation_unbounded then Unbounded
        else if Atomic.get s.hit_deadline then Timeout
        else if Atomic.get s.hit_limit || Atomic.get s.unbounded_truncated then
          Node_limit
        else Infeasible
  in
  record_metrics stats;
  if trace_t0 <> 0 then
    Dpv_obs.Trace.complete
      ~args:
        [
          ("workers", string_of_int workers);
          ("nodes", string_of_int stats.nodes_explored);
          ("lps", string_of_int stats.lp_solved);
          ("pivots", string_of_int stats.pivots);
          ("steals", string_of_int stats.steals);
        ]
      ~name:"milp.solve" trace_t0;
  (result, stats)

let solve ?options model = fst (solve_with_stats ?options model)
