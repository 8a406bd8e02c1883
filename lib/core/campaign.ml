module Milp = Dpv_linprog.Milp
module Pool = Dpv_linprog.Pool
module Clock = Dpv_linprog.Clock
module Faults = Dpv_linprog.Faults
module Network = Dpv_nn.Network
module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace

let m_queries = Metrics.counter "campaign.queries"
let m_cache_hits = Metrics.counter "campaign.cache_hits"
let m_cache_misses = Metrics.counter "campaign.cache_misses"
let m_crashed = Metrics.counter "campaign.crashed"
let m_skipped = Metrics.counter "campaign.skipped"
let m_retried = Metrics.counter "campaign.retried"
let m_resumed = Metrics.counter "campaign.resumed"
let m_journal_failures = Metrics.counter "journal.write_failures"

type query = {
  label : string;
  characterizer : Characterizer.t;
  psi : Dpv_spec.Risk.t;
  bounds : Verify.bounds_spec;
  characterizer_margin : float;
}

let query ?(characterizer_margin = 0.0) ~label ~characterizer ~psi ~bounds () =
  { label; characterizer; psi; bounds; characterizer_margin }

(* Queries are pure data (labels, weights, risk inequalities, bounds
   specs), so a digest of the marshalled value is a stable content key:
   structurally equal queries collide, anything else does not.  The
   journal records this key, which is what makes resume robust to the
   query list being reordered or extended between runs. *)
let query_key (q : query) = Digest.to_hex (Digest.string (Marshal.to_string q []))

(* Deterministic shard partition over the content digest: the first
   eight hex digits as an integer, mod the shard count.  Every process
   holding the same spec computes the same partition regardless of
   query order, host or OCaml version — which is the whole coordination
   protocol of [dpv campaign --shard i/n]. *)
let shard_index ~shards key =
  if shards < 1 then invalid_arg "Campaign.shard_index: shards must be >= 1";
  int_of_string ("0x" ^ String.sub key 0 8) mod shards

(* How the campaign spends its domain budget, as (pool runners, inner
   MILP workers).  [runners] is the total parallelism granted: with at
   least as many unsolved queries as runners, the outer pool takes them
   all and each solve stays sequential (nesting a domain pool per query
   would oversubscribe); with fewer queries than runners — the sharded
   regime, or one huge query — the leftover domains move *inside* the
   queries, splitting each MILP into subtree tasks so a campaign of one
   query still uses the whole budget.  [runners = 1] defers entirely to
   the caller's [milp_workers]. *)
let plan_workers ~runners ~milp_workers ~pending =
  if runners < 1 then invalid_arg "Campaign.plan_workers: runners must be >= 1";
  if runners = 1 then (1, milp_workers)
  else if pending = 0 then (1, 1)
  else if pending >= runners then (runners, 1)
  else (pending, Stdlib.max 1 (runners / pending))

type outcome = Journal.outcome =
  | Done of Verify.result
  | Crashed of string
  | Skipped of string

type query_report = {
  query : query;
  outcome : outcome;
  from_cache : bool;
  from_journal : bool;
  attempts : int;
  dense_retry : bool;
  deadline_retry : bool;
}

type cache_stats = { entries : int; hits : int; misses : int }

(* A shared-encoding cache that outlives one [run]: the resident server
   hands every job the same cache, so a (cut, bounds) prefix built for
   one client is served warm to every later client.  The lock guards
   the build-or-lookup window; phase 1 of a run is sequential, but two
   holders of the same cache may prepare concurrently. *)
type cache = {
  c_tbl : (int * Verify.bounds_spec, Encode.shared) Hashtbl.t;
  c_lock : Mutex.t;
}

let create_cache () = { c_tbl = Hashtbl.create 16; c_lock = Mutex.create () }
let cache_size c = Mutex.protect c.c_lock (fun () -> Hashtbl.length c.c_tbl)

type report = {
  query_reports : query_report list;
  cache : cache_stats;
  runners : int;
  shard : (int * int) option;
  budget_s : float option;
  total_wall_s : float;
  degraded : bool;
  crashed : int;
  skipped : int;
  retried : int;
  resumed : int;
  journal_write_failures : int;
  metrics : Metrics.snapshot;
      (** what this campaign did to the global registry: counters and
          histograms as deltas over the run, gauges as end values *)
}

let skip_reason = "budget exhausted"

(* One prepared query on its way through phase 2: an unbisected query
   (or one whose bisection planning raised) is a single unit over the
   whole shared encoding ([plan = None]); a bisected one has a unit per
   surviving sub-box and [plan = Some (discharged, total_subboxes)].
   Each unit fills its own slot, then decrements [left]; whichever unit
   brings it to zero finishes the query. *)
type job = {
  index : int;
  key : string;
  q : query;
  shared : Encode.shared;
  from_cache : bool;
  plan : (int * int) option;
  slots : (outcome * Retry.telemetry) option array;
  left : int Atomic.t;
}

let report_of_entry q ~from_cache ~from_journal (e : Journal.entry) =
  {
    query = q;
    outcome = e.Journal.outcome;
    from_cache;
    from_journal;
    attempts = e.Journal.attempts;
    dense_retry = e.Journal.dense_retry;
    deadline_retry = e.Journal.deadline_retry;
  }

(* Fold a bisected query's unit slots, in sub-box order, into its
   outcome.  Fault isolation is per sub-box: one crashed unit leaves its
   siblings' verdicts standing, and the merged outcome degrades to
   [Crashed] only when no UNSAFE witness was found elsewhere.  Failed
   and unreached slots carry [Retry.clean], so the telemetry fold is
   the solved units' own. *)
let merge_units q ~discharged ~total_subboxes slots =
  let dones =
    List.filter_map (function Done r, _ -> Some r | _ -> None) slots
  in
  let crashes =
    List.filter_map (function Crashed s, _ -> Some s | _ -> None) slots
  in
  let skips =
    List.length (List.filter (function Skipped _, _ -> true | _ -> false) slots)
  in
  let t =
    List.fold_left
      (fun (acc : Retry.telemetry) (_, (u : Retry.telemetry)) ->
        {
          Retry.attempts = Stdlib.max acc.Retry.attempts u.Retry.attempts;
          dense_retry = acc.Retry.dense_retry || u.Retry.dense_retry;
          deadline_retry = acc.Retry.deadline_retry || u.Retry.deadline_retry;
        })
      Retry.clean slots
  in
  let merge ~unsolved =
    Verify.merge_bisected
      ~conditional:(Verify.is_conditional q.bounds)
      ~discharged ~total_subboxes
      ~wall_time_s:
        (List.fold_left
           (fun acc (r : Verify.result) -> acc +. r.Verify.wall_time_s)
           0.0 dones)
      ~unsolved dones
  in
  let unsafe_found =
    List.exists
      (fun (r : Verify.result) ->
        match r.Verify.verdict with Verify.Unsafe _ -> true | _ -> false)
      dones
  in
  let outcome =
    (* A validated UNSAFE witness decides the query no matter what
       happened to the other sub-boxes; below that the worst
       infrastructure outcome wins so degradation is never hidden
       behind a partial Safe. *)
    if unsafe_found then
      Done (merge ~unsolved:(List.length crashes + skips))
    else
      match crashes with
      | reason :: _ -> Crashed (Printf.sprintf "sub-box crashed: %s" reason)
      | [] -> if skips > 0 then Skipped skip_reason else Done (merge ~unsolved:0)
  in
  (outcome, t)

let run ?(milp_options = Verify.default_milp_options) ?(runners = 1) ?shard
    ?budget_s ?journal ?resume ?(absint = false) ?bisect ?cache ?on_settled
    ?(trace = "") ~perception queries =
  if runners < 1 then invalid_arg "Campaign.run: runners must be >= 1";
  (match shard with
  | Some (i, n) when n < 1 || i < 0 || i >= n ->
      invalid_arg "Campaign.run: shard must be (i, n) with 0 <= i < n"
  | _ -> ());
  (* The whole-run span is what makes the coverage guarantee trivial:
     every other campaign span nests inside it. *)
  Trace.with_span
    ~args:
      [
        ("queries", string_of_int (List.length queries));
        ( "shard",
          match shard with
          | None -> "-"
          | Some (i, n) -> Printf.sprintf "%d/%d" i n );
      ]
    "campaign.run"
  @@ fun () ->
  let metrics_before = Metrics.snapshot () in
  let started = Clock.now_s () in
  let deadline = Clock.deadline_after budget_s in
  (* Sharding: every shard sees the full spec and runs its
     deterministic slice of the key space.  Filtering happens on keys,
     before any solving, so shards never overlap and their union is
     exactly the spec. *)
  let keep =
    match shard with
    | None -> fun _key -> true
    | Some (i, shards) -> fun key -> shard_index ~shards key = i
  in
  let keyed =
    List.map (fun q -> (query_key q, q)) queries
    |> List.filter (fun (key, _) -> keep key)
    |> Array.of_list
  in
  let n = Array.length keyed in
  (* Resume: only [Done] entries replay — a crashed or skipped query is
     exactly what a resumed campaign is there to retry. *)
  let resume_tbl : (string, Journal.entry) Hashtbl.t = Hashtbl.create 16 in
  (match resume with
  | None -> ()
  | Some entries ->
      List.iter
        (fun (e : Journal.entry) ->
          match e.Journal.outcome with
          | Done _ -> Hashtbl.replace resume_tbl e.Journal.key e
          | Crashed _ | Skipped _ -> ())
        entries);
  (* The settle hook is observability, not control flow: a raising
     subscriber (a vanished network client, say) must never take the
     solve down with it. *)
  let settled qr =
    match on_settled with
    | None -> ()
    | Some f -> ( try f qr with _ -> ())
  in
  let reports : query_report option array = Array.make n None in
  Array.iteri
    (fun i (key, q) ->
      match Hashtbl.find_opt resume_tbl key with
      | None -> ()
      | Some e ->
          let qr = report_of_entry q ~from_cache:false ~from_journal:true e in
          settled qr;
          reports.(i) <- Some qr)
    keyed;
  (* Seed the journal writer with the replayed entries (in input order)
     so the file on disk always describes the whole campaign. *)
  let seed =
    Array.to_list keyed
    |> List.filter_map (fun (key, _) -> Hashtbl.find_opt resume_tbl key)
  in
  let writer = Option.map (fun path -> Journal.create ~path seed) journal in
  let journal_write_failures = Atomic.make 0 in
  let journal_append entry =
    match writer with
    | None -> ()
    | Some w -> (
        try Journal.append w entry
        with Sys_error _ ->
          (* The entry is retained in memory; the next successful append
             rewrites the complete journal.  A campaign must not die on
             a full disk when it still has verdicts to produce. *)
          Atomic.incr journal_write_failures;
          Metrics.incr m_journal_failures 1)
  in
  (* Phase 1 — resolve each distinct (cut, bounds) region once, for the
     queries that actually need solving.  Keys compare structurally, so
     two queries quoting equal visited-point sets (or the same array)
     share one suffix encoding.  This phase is sequential: it mutates
     the cache, and its cost is exactly what the cache is amortizing,
     paid once per distinct key. *)
  let cache = match cache with Some c -> c | None -> create_cache () in
  let hits = ref 0 and misses = ref 0 in
  (* A failed build is this query's failure, not the campaign's: the
     error finishes that query as a [Crashed] outcome during planning.
     Failures are deliberately not cached — a later query on the same
     key retries the build (transient numerical trouble in the octagon
     pruning LPs should not condemn every query of the key).  A caller
     can pass its own [?cache] and keep it across runs — how the serve
     daemon amortizes one client's encodings for every later client. *)
  let shared_for q =
    let cut = q.characterizer.Characterizer.cut in
    let key = (cut, q.bounds) in
    match Mutex.protect cache.c_lock (fun () -> Hashtbl.find_opt cache.c_tbl key) with
    | Some shared ->
        incr hits;
        Metrics.incr m_cache_hits 1;
        Ok (shared, true)
    | None -> (
        match
          Trace.with_span
            ~args:[ ("label", q.label) ]
            "campaign.shared-encode"
            (fun () ->
              let suffix = Network.suffix perception ~cut in
              let feature_box, extra_faces =
                Verify.resolve_bounds ~perception ~cut q.bounds
              in
              Encode.build_shared ~suffix ~feature_box ~extra_faces ())
        with
        | shared ->
            incr misses;
            Metrics.incr m_cache_misses 1;
            Mutex.protect cache.c_lock (fun () ->
                Hashtbl.replace cache.c_tbl key shared);
            Ok (shared, false)
        | exception e ->
            Error (Printf.sprintf "encoding failed: %s" (Printexc.to_string e)))
  in
  (* Query [i] is finished: the one place that builds its journal entry
     and its report.  A [Skipped] query never ran a solve, so it reports
     0 attempts whatever telemetry it is handed. *)
  let finish i key q ~from_cache (t : Retry.telemetry) outcome =
    let entry =
      {
        Journal.key;
        label = q.label;
        outcome;
        attempts = (match outcome with Skipped _ -> 0 | _ -> t.Retry.attempts);
        dense_retry = t.Retry.dense_retry;
        deadline_retry = t.Retry.deadline_retry;
      }
    in
    journal_append entry;
    let qr = report_of_entry q ~from_cache ~from_journal:false entry in
    settled qr;
    reports.(i) <- Some qr
  in
  (* Phase 2a — sequential planning: every prepared query becomes a
     list of schedulable units.  Without bisection (or when propagation
     dies during planning, bisection being only an optimization) the
     query is one unit over its whole shared encoding.  With bisection
     each surviving sub-box is a unit, which is what lets
     [plan_workers] see the real pending width: a campaign of one hard
     query still fans out across the domain budget.  A failed encoding
     or a fully discharged plan finishes its query right here. *)
  let job i key q shared from_cache plan n =
    {
      index = i;
      key;
      q;
      shared;
      from_cache;
      plan;
      slots = Array.make n None;
      left = Atomic.make n;
    }
  in
  let units =
    Array.to_list keyed
    |> List.mapi (fun i (key, q) -> (i, key, q))
    |> List.filter (fun (i, _, _) -> reports.(i) = None)
    |> List.map (fun (i, key, q) -> (i, key, q, shared_for q))
    |> List.concat_map (fun (i, key, q, shared_res) ->
           match shared_res with
           | Error reason ->
               finish i key q ~from_cache:false Retry.clean (Crashed reason);
               []
           | Ok (shared, from_cache) -> (
               let whole () =
                 [ (job i key q shared from_cache None 1, 0, None) ]
               in
               match bisect with
               | None -> whole ()
               | Some b -> (
                   let t0 = Clock.now_s () in
                   match
                     Verify.bisect_plan ~max_depth:b.Verify.max_depth
                       ~suffix:(Encode.suffix_of_shared shared)
                       ~head:q.characterizer.Characterizer.head ~psi:q.psi
                       ~characterizer_margin:q.characterizer_margin
                       (Encode.feature_box_of_shared shared)
                   with
                   | exception _ -> whole ()
                   | { Verify.survivors = []; _ } as plan ->
                       (* Every sub-box discharged by propagation alone. *)
                       finish i key q ~from_cache Retry.clean
                         (Done
                            (Verify.merge_bisected
                               ~conditional:(Verify.is_conditional q.bounds)
                               ~discharged:plan.Verify.discharged
                               ~total_subboxes:(Verify.plan_total plan)
                               ~wall_time_s:(Clock.now_s () -. t0)
                               ~unsolved:0 []));
                       []
                   | plan ->
                       let j =
                         job i key q shared from_cache
                           (Some (plan.Verify.discharged, Verify.plan_total plan))
                           (List.length plan.Verify.survivors)
                       in
                       List.mapi
                         (fun si sub -> (j, si, Some sub))
                         plan.Verify.survivors)))
  in
  let finish_job j =
    let slots =
      Array.to_list j.slots
      |> List.map
           (Option.value ~default:(Crashed "worker abandoned task", Retry.clean))
    in
    let outcome, t =
      match j.plan with
      | None -> List.hd slots (* the whole query is its one unit *)
      | Some (discharged, total_subboxes) ->
          merge_units j.q ~discharged ~total_subboxes slots
    in
    finish j.index j.key j.q ~from_cache:j.from_cache t outcome
  in
  (* Phase 2b — the units fan out on the work-stealing pool over the
     now read-only cache.  [plan_workers] splits the domain budget:
     enough units and the pool takes one coarse task per unit with
     sequential inner solves; fewer units than runners (a thin shard,
     or one huge query) and the spare domains move inside the MILPs as
     subtree-search workers instead of idling. *)
  let outer_runners, inner_workers =
    plan_workers ~runners ~milp_workers:milp_options.Milp.workers
      ~pending:(List.length units)
  in
  let subbox_time_limit_s =
    Option.bind bisect (fun b -> b.Verify.subbox_time_limit_s)
  in
  let run_unit (j, si, sub) =
    let q = j.q in
    let result =
      (* Per-unit fault isolation: an exception (an injected crash, an
         escaped solver failure) becomes this unit's [Crashed] slot and
         leaves every other unit untouched. *)
      try
        if Clock.expired deadline then
          (* Recorded, not dropped: the report (and journal) say exactly
             which queries the budget never reached. *)
          (Skipped skip_reason, Retry.clean)
        else begin
          if Faults.fire Faults.Task_crash then failwith "injected task crash";
          (* Carved at task start, so early units cannot spend the whole
             campaign budget before later ones get their slice checked. *)
          let carved = Clock.carve deadline milp_options.Milp.time_limit_s in
          let span, args, shared, time_limit_s, absint_seed =
            match sub with
            | None -> ("campaign.query", [], j.shared, carved, None)
            | Some (box, seed) ->
                ( "campaign.subbox",
                  [ ("subbox", string_of_int si) ],
                  Encode.restrict_shared j.shared ~feature_box:box,
                  (match (carved, subbox_time_limit_s) with
                  | None, t | t, None -> t
                  | Some a, Some c -> Some (Stdlib.min a c)),
                  Some seed )
          in
          let options =
            { milp_options with Milp.workers = inner_workers; time_limit_s }
          in
          let result, t =
            Trace.with_span
              ~args:(("label", q.label) :: args)
              span
              (fun () ->
                Retry.solve ~options ~deadline (fun opts ->
                    Verify.run_query ~milp_options:opts ~absint ?absint_seed
                      ~characterizer_margin:q.characterizer_margin ~shared
                      ~head:q.characterizer.Characterizer.head ~psi:q.psi
                      ~conditional:(Verify.is_conditional q.bounds) ()))
          in
          (Done result, t)
        end
      with e -> (Crashed (Printexc.to_string e), Retry.clean)
    in
    j.slots.(si) <- Some result;
    (* Finish from inside the task: a campaign killed right after this
       query's last unit still has its verdict on disk. *)
    if Atomic.fetch_and_add j.left (-1) = 1 then finish_job j
  in
  let (_ : (unit, exn) result option array) =
    Pool.map_list ~workers:outer_runners run_unit units
  in
  (* A unit the pool never started leaves its query unfinished; its
     empty slot reads as "worker abandoned task". *)
  List.iter
    (fun (j, _, _) -> if reports.(j.index) = None then finish_job j)
    units;
  let query_reports =
    Array.to_list reports
    |> List.map (function
         | Some r -> r
         | None -> assert false (* every index is resumed or prepared *))
  in
  let count p = List.length (List.filter p query_reports) in
  let crashed = count (fun r -> match r.outcome with Crashed _ -> true | _ -> false) in
  let skipped = count (fun r -> match r.outcome with Skipped _ -> true | _ -> false) in
  let retried = count (fun r -> r.attempts > 1) in
  let resumed = count (fun r -> r.from_journal) in
  Metrics.incr m_queries (List.length query_reports);
  Metrics.incr m_crashed crashed;
  Metrics.incr m_skipped skipped;
  Metrics.incr m_retried retried;
  Metrics.incr m_resumed resumed;
  let total_wall_s = Clock.now_s () -. started in
  (* The delta is taken *before* the meta append below, so a shard's
     recorded snapshot excludes the bookkeeping of writing it — which
     is what lets [merge_reports] sum shard snapshots into exact
     campaign totals. *)
  let metrics = Metrics.since ~before:metrics_before (Metrics.snapshot ()) in
  (* Shard trailers are mandatory for merge; unsharded journals only
     grow one when there is a trace id worth correlating (served jobs),
     so plain batch journals stay one-line-per-query. *)
  let meta_of i shards =
    { Journal.shard = i; shard_count = shards; runners; total_wall_s; trace;
      metrics }
  in
  (match (shard, writer) with
  | Some (i, shards), Some w -> (
      try Journal.append_meta w (meta_of i shards)
      with Sys_error _ ->
        Atomic.incr journal_write_failures;
        Metrics.incr m_journal_failures 1)
  | None, Some w when trace <> "" -> (
      try Journal.append_meta w (meta_of 0 1)
      with Sys_error _ ->
        Atomic.incr journal_write_failures;
        Metrics.incr m_journal_failures 1)
  | _ -> ());
  {
    query_reports;
    (* Entries built *by this run* — with a caller-held persistent
       cache the table also carries prior runs' keys, which belong to
       their own reports. *)
    cache = { entries = !misses; hits = !hits; misses = !misses };
    runners;
    shard;
    budget_s;
    total_wall_s;
    degraded = crashed > 0 || skipped > 0;
    crashed;
    skipped;
    retried;
    resumed;
    journal_write_failures = Atomic.get journal_write_failures;
    metrics;
  }

let verdict_word = function
  | Verify.Safe _ -> "safe"
  | Verify.Unsafe _ -> "unsafe"
  | Verify.Unknown _ -> "unknown"

let outcome_word = function
  | Done _ -> "done"
  | Crashed _ -> "crashed"
  | Skipped _ -> "skipped"

let verdict_detail = function
  | Verify.Safe { conditional } ->
      if conditional then "conditional (monitor S~ at runtime)"
      else "unconditional"
  | Verify.Unsafe { logit; _ } -> Printf.sprintf "witness logit %.6g" logit
  | Verify.Unknown reason -> reason

(* One query record of the dpv-campaign/2 "queries" array — shared
   between {!to_json} (which has full query_reports) and
   {!merged_to_json} (which reconstructs records from journal entries,
   where every query is by definition [from_journal]). *)
let buf_query_record b ~last ~label ~(outcome : outcome) ~from_cache
    ~from_journal ~attempts ~dense_retry ~deadline_retry =
  Printf.bprintf b "    {\n";
  Printf.bprintf b "      \"label\": %s,\n" (Json.quote label);
  Printf.bprintf b "      \"outcome\": \"%s\",\n" (outcome_word outcome);
  (match outcome with
  | Done r ->
      Printf.bprintf b "      \"verdict\": \"%s\",\n"
        (verdict_word r.Verify.verdict);
      Printf.bprintf b "      \"detail\": %s,\n"
        (Json.quote (verdict_detail r.Verify.verdict))
  | Crashed reason | Skipped reason ->
      Printf.bprintf b "      \"verdict\": null,\n";
      Printf.bprintf b "      \"detail\": %s,\n" (Json.quote reason));
  Printf.bprintf b "      \"from_cache\": %b,\n" from_cache;
  Printf.bprintf b "      \"from_journal\": %b,\n" from_journal;
  Printf.bprintf b "      \"attempts\": %d,\n" attempts;
  Printf.bprintf b "      \"dense_retry\": %b,\n" dense_retry;
  Printf.bprintf b "      \"deadline_retry\": %b" deadline_retry;
  (match outcome with
  | Done r ->
      let s = r.Verify.milp_stats in
      Printf.bprintf b ",\n      \"wall_s\": %.4f,\n" r.Verify.wall_time_s;
      Printf.bprintf b "      \"encoding\": %s,\n" (Json.quote r.Verify.encoding);
      Printf.bprintf b "      \"num_binaries\": %d,\n" r.Verify.num_binaries;
      Printf.bprintf b
        "      \"milp\": { \"nodes\": %d, \"lps\": %d, \
         \"incumbent_updates\": %d, \"steals\": %d, \
         \"max_queue_depth\": %d, \"lp_time_s\": %.4f, \
         \"pivots\": %d, \"warm_starts\": %d, \"cold_starts\": %d, \
         \"fallbacks\": %d, \"absint_phase_fixes\": %d, \
         \"absint_prunes\": %d, \"absint_incr_hits\": %d, \
         \"absint_layers_propagated\": %d, \"absint_layers_saved\": %d, \
         \"absint_cache_evictions\": %d }\n"
        s.Milp.nodes_explored s.Milp.lp_solved s.Milp.incumbent_updates
        s.Milp.steals s.Milp.max_queue_depth s.Milp.lp_time_s s.Milp.pivots
        s.Milp.warm_starts s.Milp.cold_starts s.Milp.fallbacks
        s.Milp.absint_phase_fixes s.Milp.absint_prunes s.Milp.absint_incr_hits
        s.Milp.absint_layers_propagated s.Milp.absint_layers_saved
        s.Milp.absint_cache_evictions
  | Crashed _ | Skipped _ -> Buffer.add_string b "\n");
  Printf.bprintf b "    }%s\n" (if last then "" else ",")

(* BENCH_milp.json style: hand-rolled, schema-tagged, machine-readable.
   Free-text strings (labels, reasons) go through [Json.quote].  The
   header is [report]'s totals; [buf_record] lays out each of [records]
   in the "queries" array. *)
let campaign_json report records buf_record =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"schema\": \"dpv-campaign/2\",\n";
  Printf.bprintf b "  \"runners\": %d,\n" report.runners;
  (match report.shard with
  | None -> Printf.bprintf b "  \"shard\": null,\n"
  | Some (i, n) ->
      Printf.bprintf b "  \"shard\": { \"index\": %d, \"count\": %d },\n" i n);
  (match report.budget_s with
  | None -> Printf.bprintf b "  \"budget_s\": null,\n"
  | Some s -> Printf.bprintf b "  \"budget_s\": %.3f,\n" s);
  Printf.bprintf b "  \"total_wall_s\": %.4f,\n" report.total_wall_s;
  Printf.bprintf b "  \"degraded\": %b,\n" report.degraded;
  Printf.bprintf b "  \"crashed\": %d,\n" report.crashed;
  Printf.bprintf b "  \"skipped\": %d,\n" report.skipped;
  Printf.bprintf b "  \"retried\": %d,\n" report.retried;
  Printf.bprintf b "  \"resumed\": %d,\n" report.resumed;
  Printf.bprintf b "  \"journal_write_failures\": %d,\n"
    report.journal_write_failures;
  Printf.bprintf b
    "  \"cache\": { \"entries\": %d, \"hits\": %d, \"misses\": %d },\n"
    report.cache.entries report.cache.hits report.cache.misses;
  Buffer.add_string b "  \"metrics\": ";
  Metrics.buf_snapshot ~indent:"  " b report.metrics;
  Buffer.add_string b ",\n";
  Printf.bprintf b "  \"queries\": [\n";
  let n = List.length records in
  List.iteri (fun i r -> buf_record b ~last:(i = n - 1) r) records;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let to_json report =
  campaign_json report report.query_reports (fun b ~last qr ->
      buf_query_record b ~last ~label:qr.query.label ~outcome:qr.outcome
        ~from_cache:qr.from_cache ~from_journal:qr.from_journal
        ~attempts:qr.attempts ~dense_retry:qr.dense_retry
        ~deadline_retry:qr.deadline_retry)

let save_json report ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json report))

(* ---- Shard merging ------------------------------------------------ *)

(* Combine the in-process reports of a disjoint shard partition into
   the report the unsharded campaign would have produced (up to
   ordering and wall clock): query lists concatenate in key order so
   the result is independent of which shard ran first, counts add,
   metric snapshots add exactly ({!Metrics.merge}), wall clock is the
   slowest shard (they run concurrently), and the merged report is no
   longer any one shard. *)
let merge_reports reports =
  match reports with
  | [] -> invalid_arg "Campaign.merge_reports: empty report list"
  | first :: _ ->
      let query_reports =
        List.concat_map (fun r -> r.query_reports) reports
        |> List.map (fun qr -> (query_key qr.query, qr))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
      let fmax f =
        List.fold_left (fun acc r -> Stdlib.max acc (f r)) (f first) reports
      in
      {
        query_reports;
        cache =
          {
            entries = sum (fun r -> r.cache.entries);
            hits = sum (fun r -> r.cache.hits);
            misses = sum (fun r -> r.cache.misses);
          };
        runners = fmax (fun r -> r.runners);
        shard = None;
        budget_s = first.budget_s;
        total_wall_s =
          List.fold_left
            (fun acc r -> Stdlib.max acc r.total_wall_s)
            0.0 reports;
        degraded = List.exists (fun r -> r.degraded) reports;
        crashed = sum (fun r -> r.crashed);
        skipped = sum (fun r -> r.skipped);
        retried = sum (fun r -> r.retried);
        resumed = sum (fun r -> r.resumed);
        journal_write_failures = sum (fun r -> r.journal_write_failures);
        metrics =
          List.fold_left
            (fun acc r -> Metrics.merge acc r.metrics)
            Metrics.empty_snapshot reports;
      }

(* Merge shard journals (as loaded by {!Journal.load_with_meta}) into
   one entry list plus the collected meta trailers.  Entries dedup by
   content key — shards of one partition never overlap, but operators
   re-run shards, and a re-run's journal may carry both a [Crashed]
   attempt and a later [Done]: the most conclusive outcome wins
   ([Done] > [Crashed] > [Skipped]), first occurrence on ties.  Order
   is first-seen, so merging is deterministic in the argument order. *)
let merge_journals shards =
  let rank (e : Journal.entry) =
    match e.Journal.outcome with Done _ -> 2 | Crashed _ -> 1 | Skipped _ -> 0
  in
  let tbl : (string, Journal.entry) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (entries, _metas) ->
      List.iter
        (fun (e : Journal.entry) ->
          match Hashtbl.find_opt tbl e.Journal.key with
          | None ->
              Hashtbl.add tbl e.Journal.key e;
              order := e.Journal.key :: !order
          | Some prev ->
              if rank e > rank prev then Hashtbl.replace tbl e.Journal.key e)
        entries)
    shards;
  let entries = List.rev_map (fun key -> Hashtbl.find tbl key) !order in
  let metas = List.concat_map snd shards in
  (entries, metas)

(* Exit-code severity, one ladder for merged journals and live
   reports alike: unsafe (1) dominates — a safety counterexample must
   never be masked by infrastructure trouble — then degraded (4: crashed
   or skipped queries), then unknown (2), then clean (0). *)
let exit_code_of = function
  | Done { Verify.verdict = Verify.Unsafe _; _ } -> 1
  | Done { Verify.verdict = Verify.Unknown _; _ } -> 2
  | Done { Verify.verdict = Verify.Safe _; _ } -> 0
  | Crashed _ | Skipped _ -> 4

let worst_code codes =
  let severity = function 1 -> 3 | 4 -> 2 | 2 -> 1 | _ -> 0 in
  List.fold_left
    (fun worst c -> if severity c > severity worst then c else worst)
    0 codes

let worst_exit_code entries =
  worst_code
    (List.map (fun (e : Journal.entry) -> exit_code_of e.Journal.outcome) entries)

(* The single definition the CLI campaign command and the serve daemon
   both answer with, so a streamed job and its batch twin can never
   disagree on the code. *)
let report_exit_code report =
  worst_code
    ((if report.degraded then [ 4 ] else [])
    @ List.map (fun qr -> exit_code_of qr.outcome) report.query_reports)

(* The dpv-campaign/2 report of a merged partition, rebuilt from what
   the shard journals persist.  Whole-campaign totals come from the
   summed meta metrics ({!Metrics.merge} over the trailers): cache
   hits/misses, journal write failures.  Every query is
   [from_journal] — the merge never re-solves anything. *)
let merged_to_json ~entries ~metas =
  let metrics =
    List.fold_left
      (fun acc (m : Journal.meta) -> Metrics.merge acc m.Journal.metrics)
      Metrics.empty_snapshot metas
  in
  let counter name = Option.value ~default:0 (Metrics.counter_in metrics name) in
  let count p = List.length (List.filter p entries) in
  let crashed =
    count (fun (e : Journal.entry) ->
        match e.Journal.outcome with Crashed _ -> true | _ -> false)
  in
  let skipped =
    count (fun (e : Journal.entry) ->
        match e.Journal.outcome with Skipped _ -> true | _ -> false)
  in
  let retried = count (fun (e : Journal.entry) -> e.Journal.attempts > 1) in
  let runners =
    List.fold_left (fun acc (m : Journal.meta) -> Stdlib.max acc m.Journal.runners) 1 metas
  in
  let total_wall_s =
    List.fold_left
      (fun acc (m : Journal.meta) -> Stdlib.max acc m.Journal.total_wall_s)
      0.0 metas
  in
  let misses = counter "campaign.cache_misses" in
  (* The header is the report the journals describe; its per-query
     records come from the entries instead. *)
  let header =
    {
      query_reports = [];
      cache = { entries = misses; hits = counter "campaign.cache_hits"; misses };
      runners;
      shard = None;
      budget_s = None;
      total_wall_s;
      degraded = crashed > 0 || skipped > 0;
      crashed;
      skipped;
      retried;
      resumed = List.length entries;
      journal_write_failures = counter "journal.write_failures";
      metrics;
    }
  in
  campaign_json header entries (fun b ~last (e : Journal.entry) ->
      buf_query_record b ~last ~label:e.Journal.label ~outcome:e.Journal.outcome
        ~from_cache:false ~from_journal:true ~attempts:e.Journal.attempts
        ~dense_retry:e.Journal.dense_retry
        ~deadline_retry:e.Journal.deadline_retry)
