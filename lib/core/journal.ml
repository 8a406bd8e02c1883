module Milp = Dpv_linprog.Milp
module Faults = Dpv_linprog.Faults

type outcome =
  | Done of Verify.result
  | Crashed of string
  | Skipped of string

type entry = {
  key : string;
  label : string;
  outcome : outcome;
  attempts : int;
  dense_retry : bool;
  deadline_retry : bool;
}

(* Shard trailer: one meta line at the end of a sharded campaign's
   journal carries what the merge step needs beyond the per-query
   entries — which slice of the partition this file covers and the
   shard's metrics snapshot, so [dpv merge-journals] can report exact
   whole-campaign totals without re-running anything. *)
type meta = {
  shard : int;
  shard_count : int;
  runners : int;
  total_wall_s : float;
  trace : string;  (* correlating trace id; "" when the run had none *)
  metrics : Dpv_obs.Metrics.snapshot;
}

(* ---------------- serialization ---------------- *)

(* Json.encode prints numbers with %.17g, which round-trips every
   finite double, so a replayed verdict carries bit-identical
   witnesses and timings. *)
let int n = Json.Num (float_of_int n)
let floats a = Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) a))
let ints a = Json.Arr (Array.to_list (Array.map int a))

let result_to_json (r : Verify.result) =
  let verdict =
    match r.Verify.verdict with
    | Verify.Safe { conditional } ->
        [ ("verdict", Json.Str "safe"); ("conditional", Json.Bool conditional) ]
    | Verify.Unsafe { features; output; logit } ->
        [
          ("verdict", Json.Str "unsafe");
          ("features", floats features);
          ("output", floats output);
          ("logit", Json.Num logit);
        ]
    | Verify.Unknown reason ->
        [ ("verdict", Json.Str "unknown"); ("reason", Json.Str reason) ]
  in
  let s = r.Verify.milp_stats in
  Json.Obj
    (verdict
    @ [
        ("encoding", Json.Str r.Verify.encoding);
        ("num_binaries", int r.Verify.num_binaries);
        ("wall_time_s", Json.Num r.Verify.wall_time_s);
        ( "milp",
          Json.Obj
            [
              ("nodes_explored", int s.Milp.nodes_explored);
              ("lp_solved", int s.Milp.lp_solved);
              ("incumbent_updates", int s.Milp.incumbent_updates);
              ("lp_time_s", Json.Num s.Milp.lp_time_s);
              ("per_worker_nodes", ints s.Milp.per_worker_nodes);
              ("steals", int s.Milp.steals);
              ("max_queue_depth", int s.Milp.max_queue_depth);
              ("pivots", int s.Milp.pivots);
              ("warm_starts", int s.Milp.warm_starts);
              ("cold_starts", int s.Milp.cold_starts);
              ("fallbacks", int s.Milp.fallbacks);
              ("absint_phase_fixes", int s.Milp.absint_phase_fixes);
              ("absint_prunes", int s.Milp.absint_prunes);
              ("absint_incr_hits", int s.Milp.absint_incr_hits);
              ("absint_layers_propagated", int s.Milp.absint_layers_propagated);
              ("absint_layers_saved", int s.Milp.absint_layers_saved);
              ("absint_cache_evictions", int s.Milp.absint_cache_evictions);
            ] );
      ])

let entry_to_json e =
  let outcome, reason, result =
    match e.outcome with
    | Done r -> ("done", [], [ ("result", result_to_json r) ])
    | Crashed m -> ("crashed", [ ("reason", Json.Str m) ], [])
    | Skipped m -> ("skipped", [ ("reason", Json.Str m) ], [])
  in
  Json.Obj
    ([
       ("key", Json.Str e.key);
       ("label", Json.Str e.label);
       ("outcome", Json.Str outcome);
     ]
    @ reason
    @ [
        ("attempts", int e.attempts);
        ("dense_retry", Json.Bool e.dense_retry);
        ("deadline_retry", Json.Bool e.deadline_retry);
      ]
    @ result)

let metrics_to_json (s : Dpv_obs.Metrics.snapshot) =
  let ints l = Json.Obj (List.map (fun (name, v) -> (name, int v)) l) in
  let hist (name, (h : Dpv_obs.Metrics.hist_snapshot)) =
    ( name,
      Json.Obj
        [
          ("count", int h.Dpv_obs.Metrics.count);
          ("sum_ns", int h.Dpv_obs.Metrics.sum);
          ( "buckets",
            Json.Arr
              (List.map
                 (fun (up, n) -> Json.Arr [ int up; int n ])
                 h.Dpv_obs.Metrics.buckets) );
        ] )
  in
  Json.Obj
    [
      ("schema", Json.Str "dpv-metrics/1");
      ("counters", ints s.Dpv_obs.Metrics.snap_counters);
      ("gauges", ints s.Dpv_obs.Metrics.snap_gauges);
      ("rates", ints s.Dpv_obs.Metrics.snap_rates);
      ( "histograms",
        Json.Obj (List.map hist s.Dpv_obs.Metrics.snap_histograms) );
    ]

let meta_to_json m =
  Json.Obj
    ([
       ("journal_meta", int 1);
       ("shard", int m.shard);
       ("shard_count", int m.shard_count);
       ("runners", int m.runners);
       ("total_wall_s", Json.Num m.total_wall_s);
     ]
    @ (if m.trace <> "" then [ ("trace", Json.Str m.trace) ] else [])
    @ [ ("metrics", metrics_to_json m.metrics) ])

(* ---------------- writer ---------------- *)

module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace

let m_appends = Metrics.counter "journal.appends"
let m_rewrites = Metrics.counter "journal.rewrites"
let append_hist = Metrics.histogram "journal.append_ns"

type writer = {
  path : string;
  lock : Mutex.t;
  mutable entries_rev : entry list;
  mutable meta : meta option;
      (* shard trailer, retained so a recovery rewrite reproduces it *)
  mutable pending_rewrite : bool;
      (* the next write must replace the whole file: set at creation
         (the target may hold stale or resumed-from content) and after
         any failed write *)
}

let create ~path existing =
  {
    path;
    lock = Mutex.create ();
    entries_rev = List.rev existing;
    meta = None;
    pending_rewrite = true;
  }

(* One durable write, called with the lock held.  The first write
   (which doubles as resume compaction: the seeded entries reach disk
   in one pass) and any write after a failure replace the whole file;
   steady-state writes append the one new line.  The fault fires
   before anything reaches the target, so, like a real failure, it
   leaves the journal at its previous complete state on disk. *)
let persist w line =
  try
    if Faults.fire Faults.Journal_crash then
      raise (Sys_error "injected journal write failure");
    if w.pending_rewrite then begin
      Jsonl.replace ~path:w.path
        (List.rev_map entry_to_json w.entries_rev
        @ Option.to_list (Option.map meta_to_json w.meta));
      w.pending_rewrite <- false;
      Metrics.incr m_rewrites 1
    end
    else Jsonl.append ~path:w.path [ line ];
    Metrics.incr m_appends 1
  with ex ->
    (* An append may have left a partial line: replace it next time. *)
    w.pending_rewrite <- true;
    raise ex

let append w e =
  Mutex.protect w.lock (fun () ->
      (* Entry first: if the write fails, the next successful write
         replaces the file with the full list and nothing recorded is
         lost. *)
      w.entries_rev <- e :: w.entries_rev;
      let t0 = Dpv_obs.Mclock.now_ns () in
      let trace_t0 = Trace.begin_ns () in
      match persist w (entry_to_json e) with
      | () ->
          Metrics.observe append_hist (Dpv_obs.Mclock.now_ns () - t0);
          Trace.complete ~name:"journal.append" trace_t0
      | exception ex ->
          Trace.complete
            ~args:[ ("exn", Printexc.to_string ex) ]
            ~name:"journal.append" trace_t0;
          raise ex)

let append_meta w m =
  Mutex.protect w.lock (fun () ->
      w.meta <- Some m;
      persist w (meta_to_json m))

let entries w = Mutex.protect w.lock (fun () -> List.rev w.entries_rev)

let save ~path entries = Jsonl.replace ~path (List.map entry_to_json entries)

(* ---------------- reader ---------------- *)

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None ->
      Error (Printf.sprintf "missing or ill-typed field %S" name)

let float_array name j =
  let* l = field name Json.to_list j in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | x :: rest -> (
        match Json.to_float x with
        | Some f -> go (f :: acc) rest
        | None -> Error (Printf.sprintf "non-number in array %S" name))
  in
  go [] l

let int_array name j =
  let* fa = float_array name j in
  Ok (Array.map int_of_float fa)

let parse_milp j =
  let* nodes_explored = field "nodes_explored" Json.to_int j in
  let* lp_solved = field "lp_solved" Json.to_int j in
  let* incumbent_updates = field "incumbent_updates" Json.to_int j in
  let* lp_time_s = field "lp_time_s" Json.to_float j in
  let* per_worker_nodes = int_array "per_worker_nodes" j in
  let* steals = field "steals" Json.to_int j in
  let* max_queue_depth = field "max_queue_depth" Json.to_int j in
  let* pivots = field "pivots" Json.to_int j in
  let* warm_starts = field "warm_starts" Json.to_int j in
  let* cold_starts = field "cold_starts" Json.to_int j in
  let* fallbacks = field "fallbacks" Json.to_int j in
  (* Absint counters default to 0 so journals written before the
     abstraction-guided search remain resumable. *)
  let opt_int name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some v -> v
    | None -> 0
  in
  let absint_phase_fixes = opt_int "absint_phase_fixes" in
  let absint_prunes = opt_int "absint_prunes" in
  let absint_incr_hits = opt_int "absint_incr_hits" in
  let absint_layers_propagated = opt_int "absint_layers_propagated" in
  let absint_layers_saved = opt_int "absint_layers_saved" in
  let absint_cache_evictions = opt_int "absint_cache_evictions" in
  Ok
    {
      Milp.nodes_explored;
      lp_solved;
      incumbent_updates;
      lp_time_s;
      per_worker_nodes;
      steals;
      max_queue_depth;
      pivots;
      warm_starts;
      cold_starts;
      fallbacks;
      absint_phase_fixes;
      absint_prunes;
      absint_incr_hits;
      absint_layers_propagated;
      absint_layers_saved;
      absint_cache_evictions;
    }

let parse_result j =
  let* verdict_word = field "verdict" Json.to_string j in
  let* verdict =
    match verdict_word with
    | "safe" ->
        let* conditional =
          field "conditional"
            (function Json.Bool b -> Some b | _ -> None)
            j
        in
        Ok (Verify.Safe { conditional })
    | "unsafe" ->
        let* features = float_array "features" j in
        let* output = float_array "output" j in
        let* logit = field "logit" Json.to_float j in
        Ok (Verify.Unsafe { features; output; logit })
    | "unknown" ->
        let* reason = field "reason" Json.to_string j in
        Ok (Verify.Unknown reason)
    | other -> Error (Printf.sprintf "unknown verdict %S" other)
  in
  let* encoding = field "encoding" Json.to_string j in
  let* num_binaries = field "num_binaries" Json.to_int j in
  let* wall_time_s = field "wall_time_s" Json.to_float j in
  let* milp_json = field "milp" Option.some j in
  let* milp_stats = parse_milp milp_json in
  Ok { Verify.verdict; milp_stats; encoding; num_binaries; wall_time_s }

let parse_entry j =
  let* key = field "key" Json.to_string j in
  let* label = field "label" Json.to_string j in
  let* word = field "outcome" Json.to_string j in
  let* attempts = field "attempts" Json.to_int j in
  let* dense_retry =
    field "dense_retry" (function Json.Bool b -> Some b | _ -> None) j
  in
  let* deadline_retry =
    field "deadline_retry"
      (function Json.Bool b -> Some b | _ -> None)
      j
  in
  let* outcome =
    match word with
    | "done" ->
        let* rj = field "result" Option.some j in
        let* r = parse_result rj in
        Ok (Done r)
    | "crashed" ->
        let* reason = field "reason" Json.to_string j in
        Ok (Crashed reason)
    | "skipped" ->
        let* reason = field "reason" Json.to_string j in
        Ok (Skipped reason)
    | other -> Error (Printf.sprintf "unknown outcome %S" other)
  in
  Ok { key; label; outcome; attempts; dense_retry; deadline_retry }

let parse_metrics j =
  let fields name =
    match Json.member name j with
    | Some (Json.Obj fs) -> Ok fs
    | _ -> Error (Printf.sprintf "metrics missing object %S" name)
  in
  let ints fs =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, v) :: rest -> (
          match Json.to_int v with
          | Some n -> go ((name, n) :: acc) rest
          | None -> Error (Printf.sprintf "metric %S is not an integer" name))
    in
    go [] fs
  in
  let* counters = Result.bind (fields "counters") ints in
  let* gauges = Result.bind (fields "gauges") ints in
  (* "rates" arrived with dpv-obs/2; snapshots written before it simply
     have none. *)
  let* rates =
    match Json.member "rates" j with
    | Some (Json.Obj fs) -> ints fs
    | _ -> Ok []
  in
  let* hist_fields = fields "histograms" in
  let parse_hist (name, v) =
    let* count = field "count" Json.to_int v in
    let* sum = field "sum_ns" Json.to_int v in
    let* bucket_list = field "buckets" Json.to_list v in
    let rec buckets acc = function
      | [] -> Ok (List.rev acc)
      | b :: rest -> (
          match Option.map (List.filter_map Json.to_int) (Json.to_list b) with
          | Some [ up; n ] -> buckets ((up, n) :: acc) rest
          | _ -> Error (Printf.sprintf "bad bucket in histogram %S" name))
    in
    let* buckets = buckets [] bucket_list in
    Ok (name, { Dpv_obs.Metrics.count; sum; buckets })
  in
  let rec hists acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest ->
        let* h = parse_hist f in
        hists (h :: acc) rest
  in
  let* histograms = hists [] hist_fields in
  (* Snapshots carry a name-sorted invariant ([Metrics.merge] relies on
     it); re-sort on input rather than trusting the file. *)
  let sorted l = List.sort (fun (a, _) (b, _) -> compare (a : string) b) l in
  Ok
    {
      Dpv_obs.Metrics.snap_counters = sorted counters;
      snap_gauges = sorted gauges;
      snap_rates = sorted rates;
      snap_histograms = sorted histograms;
    }

let parse_meta j =
  let* shard = field "shard" Json.to_int j in
  let* shard_count = field "shard_count" Json.to_int j in
  let* runners = field "runners" Json.to_int j in
  let* total_wall_s = field "total_wall_s" Json.to_float j in
  let trace =
    Option.value ~default:""
      (Option.bind (Json.member "trace" j) Json.to_string)
  in
  let* metrics_json = field "metrics" Option.some j in
  let* metrics = parse_metrics metrics_json in
  Ok { shard; shard_count; runners; total_wall_s; trace; metrics }

let load_with_meta ~path =
  Jsonl.load ~path (fun j ->
      (* A meta trailer self-identifies; anything else must be a query
         entry. *)
      match Json.member "journal_meta" j with
      | Some _ -> Result.map Either.right (parse_meta j)
      | None -> Result.map Either.left (parse_entry j))
  |> Result.map (List.partition_map Fun.id)

(* Resume only needs the entries; sharded journals' meta trailers are
   skipped transparently, so a merged or sharded journal is a valid
   [--resume] input unchanged. *)
let load ~path = Result.map fst (load_with_meta ~path)

let result_of_entry e =
  match e.outcome with Done r -> Some r | Crashed _ | Skipped _ -> None
