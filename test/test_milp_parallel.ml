(* One-worker/multi-worker branch-and-bound agreement, deadline
   handling, deterministic branching, and the one-worker search pinned
   to recorded counters. *)

module Lp = Dpv_linprog.Lp
module Milp = Dpv_linprog.Milp
module Clock = Dpv_linprog.Clock
module Pool = Dpv_linprog.Pool
module Rng = Dpv_tensor.Rng

let check_float = Alcotest.(check (float 1e-6))

let seq_options = { Milp.default_options with workers = 1 }
let par_options = { Milp.default_options with workers = 4 }

(* Random bounded MILP with a mix of integer and continuous variables.
   rhs >= 0 keeps the origin feasible, so every instance has an optimum. *)
let random_milp rng =
  let nv = 2 + Rng.int rng 4 in
  let nc = 1 + Rng.int rng 4 in
  let m = ref (Lp.create ()) in
  let vars =
    Array.init nv (fun i ->
        let kind = if i mod 2 = 0 then Lp.Integer else Lp.Continuous in
        let model, v = Lp.add_var ~lo:0.0 ~up:6.0 ~kind !m in
        m := model;
        v)
  in
  for _ = 1 to nc do
    let terms =
      Array.to_list
        (Array.map (fun v -> (Rng.uniform rng ~lo:(-2.0) ~hi:3.0, v)) vars)
    in
    m := Lp.add_constraint !m terms Lp.Le (Rng.uniform rng ~lo:0.0 ~hi:15.0)
  done;
  let obj =
    Array.to_list
      (Array.map (fun v -> (Rng.uniform rng ~lo:(-1.0) ~hi:1.0, v)) vars)
  in
  m := Lp.set_objective !m Lp.Maximize obj;
  !m

let classification = function
  | Milp.Optimal _ -> "optimal"
  | Milp.Feasible _ -> "feasible"
  | Milp.Infeasible -> "infeasible"
  | Milp.Unbounded -> "unbounded"
  | Milp.Node_limit -> "node-limit"
  | Milp.Timeout -> "timeout"

(* An instance whose tree is astronomically large: binary subset-sum of
   even weights against an odd target.  Every LP relaxation deep into
   the tree stays feasible (fractional), yet no integer point exists, so
   the solver must either exhaust ~2^n nodes or hit a limit. *)
let hard_infeasible_model n =
  let m = ref (Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Lp.add_var ~kind:Lp.Binary !m in
        m := model;
        v)
  in
  let terms = Array.to_list (Array.map (fun v -> (2.0, v)) vars) in
  (* n even makes n + 1 odd, while the left side is always even. *)
  m := Lp.add_constraint !m terms Lp.Eq (float_of_int (n + 1));
  !m

let hard_model () = hard_infeasible_model 30 (* 2*sum = 31: no solution *)

let test_parallel_agrees_on_random_milps () =
  let rng = Rng.create 20260807 in
  for _ = 1 to 40 do
    let model = random_milp rng in
    let seq, _ = Milp.solve_with_stats ~options:seq_options model in
    let par, _ = Milp.solve_with_stats ~options:par_options model in
    Alcotest.(check string)
      "classification agrees" (classification seq) (classification par);
    match (seq, par) with
    | Milp.Optimal { objective = o1; _ }, Milp.Optimal { objective = o2; solution } ->
        check_float "objective agrees" o1 o2;
        Alcotest.(check bool)
          "parallel witness is feasible" true
          (Lp.check_feasible ~tol:1e-5 model solution)
    | _ -> ()
  done

let test_task_batch_sizes_agree () =
  (* The subtree batch size is a scheduling knob, never an answer knob:
     single-node tasks (1), mid-size batches (4) and batches larger
     than any of these trees (128) must classify every instance the
     same and agree on the optimum. *)
  let rng = Rng.create 4242 in
  for _ = 1 to 25 do
    let model = random_milp rng in
    let seq, _ = Milp.solve_with_stats ~options:seq_options model in
    List.iter
      (fun task_batch ->
        let options = { par_options with Milp.task_batch } in
        let par, stats = Milp.solve_with_stats ~options model in
        let label = Printf.sprintf "task_batch=%d" task_batch in
        Alcotest.(check string)
          (label ^ ": classification agrees")
          (classification seq) (classification par);
        Alcotest.(check int)
          (label ^ ": per-worker nodes sum to total")
          stats.Milp.nodes_explored
          (Array.fold_left ( + ) 0 stats.Milp.per_worker_nodes);
        match (seq, par) with
        | ( Milp.Optimal { objective = o1; _ },
            Milp.Optimal { objective = o2; solution } ) ->
            check_float (label ^ ": objective agrees") o1 o2;
            Alcotest.(check bool)
              (label ^ ": witness is feasible")
              true
              (Lp.check_feasible ~tol:1e-5 model solution)
        | _ -> ())
      [ 1; 4; 128 ]
  done

let test_task_batch_infeasible_proof () =
  (* An exhaustive infeasibility proof must visit the same tree no
     matter how nodes are grouped into batches. *)
  let model = hard_infeasible_model 10 in
  let _, seq_stats = Milp.solve_with_stats ~options:seq_options model in
  List.iter
    (fun task_batch ->
      let options = { par_options with Milp.task_batch } in
      let result, stats = Milp.solve_with_stats ~options model in
      Alcotest.(check string) "proved infeasible" "infeasible"
        (classification result);
      Alcotest.(check int)
        (Printf.sprintf "task_batch=%d explores the full tree" task_batch)
        seq_stats.Milp.nodes_explored stats.Milp.nodes_explored)
    [ 1; 4; 128 ]

let test_parallel_find_first_agrees () =
  let rng = Rng.create 777 in
  let options_seq = { seq_options with Milp.find_first = true } in
  let options_par = { par_options with Milp.find_first = true } in
  for _ = 1 to 25 do
    let model = random_milp rng in
    let seq = Milp.solve ~options:options_seq model in
    let par = Milp.solve ~options:options_par model in
    Alcotest.(check string)
      "feasibility classification agrees"
      (classification seq) (classification par)
  done

let test_parallel_infeasible () =
  (* 2x = 1 with x binary: both solvers must prove infeasibility. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~kind:Lp.Binary m in
  let m = Lp.add_constraint m [ (2.0, x) ] Lp.Eq 1.0 in
  (match Milp.solve ~options:par_options m with
  | Milp.Infeasible -> ()
  | r -> Alcotest.failf "expected infeasible, got %s" (classification r))

let test_workers_below_one_rejected () =
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~up:10.0 ~kind:Lp.Integer m in
  let m = Lp.set_objective m Lp.Maximize [ (1.0, x) ] in
  List.iter
    (fun workers ->
      match Milp.solve ~options:{ Milp.default_options with workers } m with
      | exception Invalid_argument _ -> ()
      | r ->
          Alcotest.failf "workers=%d: expected Invalid_argument, got %s"
            workers (classification r))
    [ 0; -1 ]

let test_parallel_stats_accounting () =
  let model = hard_infeasible_model 12 in (* finishes: 2^12 tree is fine *)
  let result, stats = Milp.solve_with_stats ~options:par_options model in
  Alcotest.(check string) "still infeasible" "infeasible"
    (classification result);
  Alcotest.(check int) "4 worker slots" 4
    (Array.length stats.Milp.per_worker_nodes);
  Alcotest.(check int) "per-worker node counts sum to the total"
    stats.Milp.nodes_explored
    (Array.fold_left ( + ) 0 stats.Milp.per_worker_nodes);
  Alcotest.(check bool) "lp wall time measured" true
    (stats.Milp.lp_time_s > 0.0);
  Alcotest.(check bool) "queues were used" true (stats.Milp.max_queue_depth >= 1)

let test_deadline_returns_timeout_sequential () =
  let options =
    { seq_options with Milp.max_nodes = max_int; time_limit_s = Some 0.25 }
  in
  let started = Clock.now_s () in
  match Milp.solve ~options (hard_model ()) with
  | Milp.Timeout ->
      let elapsed = Clock.now_s () -. started in
      Alcotest.(check bool) "stopped near the deadline" true (elapsed < 5.0)
  | r -> Alcotest.failf "expected timeout, got %s" (classification r)

let test_deadline_returns_timeout_parallel () =
  let options =
    { par_options with Milp.max_nodes = max_int; time_limit_s = Some 0.25 }
  in
  let started = Clock.now_s () in
  match Milp.solve ~options (hard_model ()) with
  | Milp.Timeout ->
      let elapsed = Clock.now_s () -. started in
      Alcotest.(check bool) "stopped near the deadline" true (elapsed < 5.0)
  | r -> Alcotest.failf "expected timeout, got %s" (classification r)

let test_node_limit_still_reported () =
  let options = { par_options with Milp.max_nodes = 50 } in
  match Milp.solve ~options (hard_model ()) with
  | Milp.Node_limit -> ()
  | r -> Alcotest.failf "expected node-limit, got %s" (classification r)

(* Easy to find an incumbent, astronomically hard to prove optimality:
   maximize sum x_i over n binaries subject to sum 2 x_i <= n - 1.  The
   LP relaxation is 11.5 (for n = 24) at essentially every node while
   the integer optimum is 11, so bound pruning never fires and the full
   proof tree has ~2^n nodes.  A depth-first dive reaches an integral
   relaxation of value 11 after fixing 13 variables to zero (~14 nodes),
   so any truncated run holds an incumbent it cannot have proven. *)
let hard_incumbent_model n =
  let m = ref (Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Lp.add_var ~kind:Lp.Binary !m in
        m := model;
        v)
  in
  let terms = Array.to_list (Array.map (fun v -> (2.0, v)) vars) in
  m := Lp.add_constraint !m terms Lp.Le (float_of_int (n - 1));
  m :=
    Lp.set_objective !m Lp.Maximize
      (Array.to_list (Array.map (fun v -> (1.0, v)) vars));
  !m

let expect_feasible_11 ~label model result =
  match result with
  | Milp.Feasible { objective; solution } ->
      check_float (label ^ ": incumbent objective") 11.0 objective;
      Alcotest.(check bool)
        (label ^ ": incumbent satisfies the model") true
        (Lp.check_feasible ~tol:1e-6 model solution)
  | Milp.Optimal _ ->
      Alcotest.failf "%s: truncated search must not claim Optimal" label
  | r -> Alcotest.failf "%s: expected feasible, got %s" label (classification r)

let test_truncated_incumbent_feasible_sequential () =
  let model = hard_incumbent_model 24 in
  let options = { seq_options with Milp.max_nodes = 200 } in
  expect_feasible_11 ~label:"seq node limit" model (Milp.solve ~options model)

let test_truncated_incumbent_feasible_parallel () =
  let model = hard_incumbent_model 24 in
  let options = { par_options with Milp.max_nodes = 400 } in
  expect_feasible_11 ~label:"par node limit" model
    (Milp.solve ~options model)

let test_deadline_incumbent_feasible () =
  let model = hard_incumbent_model 24 in
  let options =
    { seq_options with Milp.max_nodes = max_int; time_limit_s = Some 0.3 }
  in
  let started = Clock.now_s () in
  expect_feasible_11 ~label:"seq deadline" model (Milp.solve ~options model);
  Alcotest.(check bool) "stopped near the deadline" true
    (Clock.now_s () -. started < 5.0)

let test_sequential_queue_depth_tracked () =
  (* The DFS stack on the subset-sum tree must reach depth >= 2 and the
     high-water mark is tracked incrementally (not recomputed per node). *)
  let model = hard_infeasible_model 8 in
  let result, stats = Milp.solve_with_stats ~options:seq_options model in
  Alcotest.(check string) "proved infeasible" "infeasible"
    (classification result);
  Alcotest.(check bool) "stack depth tracked" true
    (stats.Milp.max_queue_depth >= 2);
  Alcotest.(check bool) "depth bounded by nodes" true
    (stats.Milp.max_queue_depth <= stats.Milp.nodes_explored + 1)

let test_branch_var_lowest_index_tie () =
  (* Two integer variables equally fractional at 0.5: branching must
     pick the lower index deterministically. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~up:1.0 ~kind:Lp.Integer m in
  let m, y = Lp.add_var ~lo:0.0 ~up:1.0 ~kind:Lp.Integer m in
  (match Milp.find_branch_var ~tol:1e-6 m [| 0.5; 0.5 |] with
  | Some v -> Alcotest.(check int) "lowest index wins" x v
  | None -> Alcotest.fail "expected a fractional branch variable");
  (* And strictly-more-fractional still beats index order. *)
  match Milp.find_branch_var ~tol:1e-6 m [| 0.9; 0.5 |] with
  | Some v -> Alcotest.(check int) "most fractional wins" y v
  | None -> Alcotest.fail "expected a fractional branch variable"

let test_pool_processes_whole_tree () =
  (* Sanity check of the pool itself: expand a binary tree of depth 10
     and count the leaves across 4 workers. *)
  let leaves = Atomic.make 0 in
  let process _id depth =
    if depth = 0 then begin
      Atomic.incr leaves;
      []
    end
    else [ depth - 1; depth - 1 ]
  in
  let stats =
    Pool.run ~workers:4 ~initial:[ 10 ] ~process ~stop:(fun () -> false)
  in
  Alcotest.(check int) "all leaves visited" 1024 (Atomic.get leaves);
  Alcotest.(check int) "work accounted" 2047
    (Array.fold_left ( + ) 0 stats.Pool.per_worker_tasks)

(* The one-worker search is deterministic, so its counters are pinned
   to values recorded from the sequential solver before the two node
   loops were merged: a change to traversal order, child order,
   pruning, guide protocol or warm-start behaviour shows up here as an
   exact mismatch.  Fields: nodes, LPs, pivots, max_queue_depth. *)
let check_counters label (n, l, p, d) (s : Milp.stats) =
  Alcotest.(check (list int))
    (label ^ ": nodes/lps/pivots/max_queue_depth")
    [ n; l; p; d ]
    [ s.Milp.nodes_explored; s.Milp.lp_solved; s.Milp.pivots;
      s.Milp.max_queue_depth ];
  Alcotest.(check (array int)) (label ^ ": one worker slot holds every node")
    [| s.Milp.nodes_explored |] s.Milp.per_worker_nodes;
  Alcotest.(check int) (label ^ ": no steals") 0 s.Milp.steals

let test_one_worker_recorded_counters () =
  let result, stats =
    Milp.solve_with_stats ~options:seq_options (hard_infeasible_model 10)
  in
  Alcotest.(check string) "subset-sum 10: infeasible" "infeasible"
    (classification result);
  check_counters "subset-sum 10" (923, 923, 535, 6) stats;
  let model = hard_incumbent_model 24 in
  let result, stats =
    Milp.solve_with_stats
      ~options:{ seq_options with Milp.max_nodes = 200 }
      model
  in
  check_counters "incumbent 24" (200, 200, 211, 14) stats;
  (match result with
  | Milp.Feasible { objective; solution } ->
      check_float "incumbent 24: objective" 11.0 objective;
      (* The dive sets the first 11 binaries and zeroes the rest. *)
      Alcotest.(check (array (float 0.0)))
        "incumbent 24: witness"
        (Array.init 24 (fun i -> if i < 11 then 1.0 else 0.0))
        solution
  | r -> Alcotest.failf "incumbent 24: expected feasible, got %s"
           (classification r));
  List.iter
    (fun (label, branch_rule, counters) ->
      let r = Test_absint_guided.guided_verify ~branch_rule () in
      Alcotest.(check string) (label ^ ": verdict") "safe"
        (Test_absint_guided.verdict_word r.Dpv_core.Verify.verdict);
      check_counters label counters r.Dpv_core.Verify.milp_stats)
    [
      ("guided most-fractional", Milp.Most_fractional, (12, 12, 59, 4));
      ("guided bound-width", Milp.Bound_width, (3, 3, 33, 2));
      ("guided guide-order", Milp.Guide_order, (17, 17, 73, 4));
    ]

let tests =
  [
    Alcotest.test_case "pool processes whole tree" `Quick
      test_pool_processes_whole_tree;
    Alcotest.test_case "parallel agrees on random MILPs" `Quick
      test_parallel_agrees_on_random_milps;
    Alcotest.test_case "parallel find-first agrees" `Quick
      test_parallel_find_first_agrees;
    Alcotest.test_case "task-batch sizes agree" `Quick
      test_task_batch_sizes_agree;
    Alcotest.test_case "task-batch infeasible proof is exhaustive" `Quick
      test_task_batch_infeasible_proof;
    Alcotest.test_case "parallel proves infeasibility" `Quick
      test_parallel_infeasible;
    Alcotest.test_case "workers=1 matches recorded counters" `Quick
      test_one_worker_recorded_counters;
    Alcotest.test_case "workers < 1 is rejected" `Quick
      test_workers_below_one_rejected;
    Alcotest.test_case "parallel stats accounting" `Quick
      test_parallel_stats_accounting;
    Alcotest.test_case "deadline -> Timeout (sequential)" `Quick
      test_deadline_returns_timeout_sequential;
    Alcotest.test_case "deadline -> Timeout (parallel)" `Quick
      test_deadline_returns_timeout_parallel;
    Alcotest.test_case "node limit still reported" `Quick
      test_node_limit_still_reported;
    Alcotest.test_case "truncated incumbent -> Feasible (sequential)" `Quick
      test_truncated_incumbent_feasible_sequential;
    Alcotest.test_case "truncated incumbent -> Feasible (parallel)" `Quick
      test_truncated_incumbent_feasible_parallel;
    Alcotest.test_case "deadline incumbent -> Feasible" `Quick
      test_deadline_incumbent_feasible;
    Alcotest.test_case "sequential queue depth tracked" `Quick
      test_sequential_queue_depth_tracked;
    Alcotest.test_case "branch-var tie-break by lowest index" `Quick
      test_branch_var_lowest_index_tie;
  ]
