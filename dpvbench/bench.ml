(* dpvbench: the end-to-end and per-layer benchmark of dpv.

   Two workloads against the default 10-layer perception network
   (seed 7); NOTES.md says why each exists and what it leaves out.

     guided-campaign  one Campaign.run of 72 queries with 2 runners,
                      journal, DeepPoly guide and bisection depth 2
     serve-loop       an in-process Server on a Unix socket, 2
                      closed-loop client threads, 2-query jobs

   Every layer is measured from outside: by timing this file's own
   calls into public functions, or by reading the counters the program
   already exports (Milp.stats, Dpv_obs.Metrics).  Usage:

     bench.exe --workload W --seed N --seconds S --trace 0|1 \
       --work-dir DIR --reference FILE
     bench.exe --record FILE --work-dir DIR

   The last stdout line is the result object; lines before it are the
   exact-count record and notes. *)

open Dpv_core
open Common
module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace
module Server = Dpv_serve.Server
module Client = Dpv_serve.Client

let property = Dpv_scenario.Oracle.bends_right
let setup = Workflow.default_setup

(* Set-up is repeated and its median reported, so one slow repetition
   does not move [setup_s]. *)
let setup_repeats = 3

type config = {
  seed : int;
  seconds : float;
  work_dir : string;
  reference : (string, expected) Hashtbl.t;
}

let cache_dir cfg = Filename.concat cfg.work_dir "cache"
let load cfg = Workflow.prepare_cached ~cache_dir:(cache_dir cfg) setup

(* The first run in a checkout trains the network (about 10 s) into
   the work directory; that is build work, done before any timing. *)
let ensure_network cfg =
  let dir = cache_dir cfg in
  let cached =
    Sys.file_exists dir
    && Array.exists
         (fun f -> Filename.check_suffix f ".net")
         (Sys.readdir dir)
  in
  if not cached then begin
    mkdir_p cfg.work_dir;
    ignore (load cfg)
  end

let get = function Ok v -> v | Error e -> failwith e

let train_characterizer prepared cut =
  let c, _, _ = Workflow.train_characterizer ~cut prepared ~property in
  c

(* ---- queries ---- *)

type query = {
  qid : string;
  cut : int;
  strategy_name : string;
  psi_name : string;
  strategy : Workflow.strategy;
  psi : Dpv_spec.Risk.t;
}

let query cut strategy_name psi_name =
  {
    qid = Printf.sprintf "c%d/%s/%s" cut strategy_name psi_name;
    cut;
    strategy_name;
    psi_name;
    strategy = get (Specfile.parse_strategy strategy_name);
    psi = get (Specfile.parse_psi psi_name);
  }

let guided_psis =
  [ "far-left:1"; "far-left:2.5"; "far-left:4"; "far-left:6";
    "far-right:1"; "far-right:2.5"; "far-right:4"; "far-right:6" ]

let guided_series =
  List.concat_map
    (fun cut ->
      let strategies =
        [ "static-box"; "static-zonotope"; "static-deeppoly"; "data-box" ]
        @ if cut = 9 then [ "data-octagon" ] else []
      in
      List.concat_map
        (fun s -> List.map (query cut s) guided_psis)
        strategies)
    [ 9; 6 ]

(* The distinct (cut, strategy) regions of a series, in series order. *)
let regions series =
  List.fold_left
    (fun acc q ->
      if List.mem (q.cut, q.strategy) acc then acc else acc @ [ (q.cut, q.strategy) ])
    [] series

(* The benchmark's own calls into the region layers: resolve every
   region of the series once, then build its shared encoding.  Returns
   (resolve ms, encode ms) summed over the regions. *)
let region_costs prepared series =
  List.fold_left
    (fun (r_ms, e_ms) (cut, strategy) ->
      let perception = prepared.Workflow.perception in
      let bounds = Workflow.bounds_spec_of prepared ~cut strategy in
      let (box, faces), r =
        time (fun () -> Verify.resolve_bounds ~perception ~cut bounds)
      in
      let suffix = Dpv_nn.Network.suffix perception ~cut in
      let _, e =
        time (fun () ->
            Encode.build_shared ~suffix ~feature_box:box ~extra_faces:faces ())
      in
      (r_ms +. (r *. 1e3), e_ms +. (e *. 1e3)))
    (0.0, 0.0) (regions series)

(* ---- set-up ---- *)

type setup_times = { total_s : float list; load_s : float list; train_s : float list }

(* Run [f] [setup_repeats] times, tearing down all but the last; [f]
   returns its value with its own load and training times. *)
let repeated_setup ?(teardown = ignore) f =
  let rec go i times =
    let (v, load_s, train_s), total = time f in
    let times =
      {
        total_s = total :: times.total_s;
        load_s = load_s :: times.load_s;
        train_s = train_s :: times.train_s;
      }
    in
    if i >= setup_repeats then begin
      Printf.printf "setup: median %.3f s (load %.3f s, training %.3f s) over %d\n"
        (median times.total_s) (median times.load_s) (median times.train_s) i;
      (v, times)
    end
    else begin
      teardown v;
      go (i + 1) times
    end
  in
  go 1 { total_s = []; load_s = []; train_s = [] }

(* ---- measured windows ---- *)

type window = {
  ops : int;  (** queries (guided-campaign) or jobs (serve-loop) *)
  verdicts : int;
  passes : float;
      (** repetitions of the fixed unit: the 72-query campaign or one
          fresh serve job *)
  wall_s : float;
  busy_s : float;  (** summed service time of the ops *)
  delta : Metrics.snapshot;
  minor_words : float;
  majors : int;
}

let measured f =
  let before = Metrics.snapshot () in
  let gc0 = Gc.quick_stat () in
  let v, wall_s = time f in
  let gc1 = Gc.quick_stat () in
  let delta = Metrics.since ~before (Metrics.snapshot ()) in
  ( v,
    wall_s,
    delta,
    gc1.Gc.minor_words -. gc0.Gc.minor_words,
    gc1.Gc.major_collections - gc0.Gc.major_collections )

(* Run [window] traced: Dpv_obs.Trace armed in memory, the trace
   written to the work directory at the end, self time per span name
   returned. *)
let traced cfg ~workload window =
  Trace.configure ();
  let v =
    Fun.protect ~finally:Trace.disable (fun () -> window ~traced:true)
  in
  let text = Trace.to_json () in
  Trace.clear ();
  let path = Filename.concat cfg.work_dir ("trace-" ^ workload ^ ".json") in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
  match Json.of_string ~max_bytes:(String.length text + 1) text with
  | Ok doc -> (v, self_ms doc)
  | Error e -> failwith ("trace: " ^ e)

(* ---- metric catalogue ---- *)

(* Spans whose self time is reported: the program's own, then the
   benchmark's.  serve.conn and pool.worker live as long as their
   connection or worker, so their self time is mostly idle wait. *)
let span_names =
  [
    "campaign.query"; "campaign.run"; "campaign.shared-encode"; "campaign.subbox";
    "journal.append"; "milp.solve"; "pool.worker"; "retry.attempt"; "serve.conn";
    "serve.job"; "simplex.refactorize"; "simplex.resolve"; "tighten.feature-box";
    "verify.query"; "verify.resolve-bounds";
    "bench.campaign"; "bench.job"; "bench.ping";
  ]

let end_to_end_units =
  [
    ("setup_s", "s"); ("queries_per_s", "1/s"); ("jobs_per_s", "1/s");
    ("job_p50_ms", "ms"); ("job_p99_ms", "ms");
  ]

let per_layer_units =
  [
    ("simplex.lp_ms", "ms"); ("simplex.lp_share", "ratio");
    ("simplex.us_per_pivot", "us"); ("simplex.pivots_per_lp", "count");
    ("simplex.lp_p50_us", "us"); ("simplex.lp_p99_us", "us");
    ("simplex.warm_start_ratio", "ratio"); ("simplex.fallbacks", "count");
    ("simplex.pivots", "count");
    ("milp.nodes", "count"); ("milp.lps", "count"); ("milp.nodes_per_s", "1/s");
    ("milp.non_lp_ms", "ms");
    ("absguide.prune_ratio", "ratio"); ("absguide.layers_saved_ratio", "ratio");
    ("absguide.phase_fixes", "count");
    ("bisect.subboxes", "count"); ("bisect.discharge_ratio", "ratio");
    ("verify.resolve_ms", "ms"); ("encode.build_ms", "ms");
    ("campaign.cache_hit_ratio", "ratio");
    ("pool.tasks", "count"); ("pool.steals", "count");
    ("journal.appends", "count"); ("journal.append_p50_us", "us");
    ("journal.append_p99_us", "us"); ("journal.replays", "count");
    ("serve.accept_p50_ms", "ms"); ("serve.first_verdict_p50_ms", "ms");
    ("serve.exec_p50_ms", "ms"); ("serve.ping_p50_us", "us");
    ("serve.rejected_busy", "count");
    ("workflow.load_s", "s"); ("characterizer.train_s", "s");
    ("gc.minor_words_per_query", "count"); ("gc.major_collections", "count");
    ("failed_frac", "ratio"); ("counts.mismatched", "count"); ("job_samples", "count");
    ("trace.overhead_frac", "ratio");
  ]
  @ List.map (fun s -> ("trace.self_ms." ^ s, "ms")) span_names

let counter d name =
  float_of_int (Option.value ~default:0 (Metrics.counter_in d name))

let hist_quantile_ns d name q =
  match Metrics.histogram_in d name with
  | Some h when h.Metrics.count > 0 -> Metrics.quantile_of_hist h ~q
  | _ -> 0.0

(* The per-layer values every workload derives from its untraced
   window.  Time per op and counts per pass, so they compare across
   runs of different lengths. *)
let window_layers w =
  let d = w.delta in
  let c = counter d in
  let ops = float_of_int w.ops and passes = w.passes in
  let lp_s = c "milp.lp_time_ns" /. 1e9 in
  let nodes = c "milp.nodes" and prunes = c "absint.prunes" in
  [
    ("simplex.lp_ms", ratio (lp_s *. 1e3) ops);
    ("simplex.lp_share", ratio lp_s w.wall_s);
    ("simplex.us_per_pivot", ratio (lp_s *. 1e6) (c "simplex.pivots"));
    ("simplex.pivots_per_lp", ratio (c "simplex.pivots") (c "milp.lps"));
    ("simplex.lp_p50_us", hist_quantile_ns d "milp.lp_solve_ns" 0.5 /. 1e3);
    ("simplex.lp_p99_us", hist_quantile_ns d "milp.lp_solve_ns" 0.99 /. 1e3);
    ( "simplex.warm_start_ratio",
      ratio (c "simplex.warm_starts") (c "simplex.warm_starts" +. c "simplex.cold_starts") );
    ("simplex.fallbacks", ratio (c "simplex.fallbacks") passes);
    ("simplex.pivots", ratio (c "simplex.pivots") passes);
    ("milp.nodes", ratio nodes passes);
    ("milp.lps", ratio (c "milp.lps") passes);
    ("milp.nodes_per_s", ratio nodes w.wall_s);
    ("milp.non_lp_ms", ratio ((w.busy_s -. lp_s) *. 1e3) ops);
    ("absguide.prune_ratio", ratio prunes (nodes +. prunes));
    ( "absguide.layers_saved_ratio",
      ratio (c "absint.layers_saved")
        (c "absint.layers_saved" +. c "absint.layers_propagated") );
    ("absguide.phase_fixes", ratio (c "absint.phase_fixes") passes);
    ("bisect.subboxes", ratio (c "bisect.subboxes") passes);
    ("bisect.discharge_ratio", ratio (c "bisect.discharged") (c "bisect.subboxes"));
    ( "campaign.cache_hit_ratio",
      ratio (c "campaign.cache_hits") (c "campaign.cache_hits" +. c "campaign.cache_misses") );
    ("pool.tasks", ratio (c "pool.tasks") passes);
    ("pool.steals", ratio (c "pool.steals") passes);
    ("journal.appends", ratio (c "journal.appends") ops);
    ("journal.append_p50_us", hist_quantile_ns d "journal.append_ns" 0.5 /. 1e3);
    ("journal.append_p99_us", hist_quantile_ns d "journal.append_ns" 0.99 /. 1e3);
    ("journal.replays", ratio (c "campaign.resumed") ops);
    ("serve.exec_p50_ms", hist_quantile_ns d "serve.job_ns" 0.5 /. 1e6);
    ("serve.rejected_busy", c "serve.rejected_busy");
    ("gc.minor_words_per_query", ratio w.minor_words (float_of_int w.verdicts));
    ("gc.major_collections", ratio (float_of_int w.majors) passes);
  ]

let setup_layers times =
  [
    ("workflow.load_s", median times.load_s);
    ("characterizer.train_s", median times.train_s);
  ]

let trace_layers ~ops ~overhead selfs =
  ("trace.overhead_frac", overhead)
  :: List.map
       (fun s ->
         ( "trace.self_ms." ^ s,
           ratio (Option.value ~default:0.0 (Hashtbl.find_opt selfs s)) ops ))
       span_names

(* Print [values] in catalogue order; a layer the workload does not
   exercise reads 0. *)
let emit ~tally catalogue values =
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0.0 (List.assoc_opt name values), unit))
      catalogue
  in
  print_endline (result_line ~tally metrics)

let failed_frac tally = iratio tally.failed tally.attempted

(* Quantile summaries always state their sample count. *)
let note_latency what samples_ms =
  Printf.printf "%s: p50 %.3f ms, p99 %.3f ms over %d samples\n" what
    (quantile samples_ms 0.5) (quantile samples_ms 0.99) (List.length samples_ms)

let print_counts workload rows =
  let total = List.map (fun n -> (n, 0)) count_names in
  let total =
    List.fold_left
      (fun acc (qid, counts) ->
        Printf.printf "count %s %s %s\n" workload qid (show_counts counts);
        List.map (fun (k, v) -> (k, v + List.assoc k counts)) acc)
      total rows
  in
  Printf.printf "count %s total %s\n" workload (show_counts total)

(* ================= guided-campaign ================= *)

(* Spelled out rather than taken from the default, so a change of the
   default does not silently change the workload. *)
let guided_bisect = { Verify.default_bisect_options with Verify.max_depth = 2 }

let guided_setup cfg =
  repeated_setup (fun () ->
      let prepared, load_s = time (fun () -> load cfg) in
      let chars, train_s =
        time (fun () ->
            List.map (fun cut -> (cut, train_characterizer prepared cut)) [ 9; 6 ])
      in
      let queries =
        List.map
          (fun q ->
            Campaign.query ~label:q.qid ~characterizer:(List.assoc q.cut chars)
              ~psi:q.psi
              ~bounds:(Workflow.bounds_spec_of prepared ~cut:q.cut q.strategy)
              ())
          guided_series
      in
      ((prepared, queries), load_s, train_s))

type campaign_run = {
  c_wall : float;
  service_ms : float list;
      (** per query: its solve time, summed over its sub-boxes *)
  c_counts : (string * (string * int) list) list;
}

(* Whole campaigns, back to back, until [seconds] have passed (at
   least one).  Each run starts with an empty encoding cache and a
   fresh journal, so every run resolves and encodes its 9 regions.
   Bisected queries settle together when the campaign merges, so a
   query's latency is its own solve time, not its settle time. *)
let guided_window cfg tally (prepared, queries) ~seconds ~traced =
  let journal = Filename.concat cfg.work_dir "guided-journal.jsonl" in
  let one i =
    rm_rf journal;
    let run () =
      Campaign.run ~milp_options:Verify.default_milp_options ~runners:2 ~journal
        ~absint:true ~bisect:guided_bisect
        ~perception:prepared.Workflow.perception queries
    in
    let report, c_wall =
      if traced then
        Trace.with_context (Printf.sprintf "campaign#%d" i) (fun () ->
            Trace.with_span "bench.campaign" (fun () -> time run))
      else time run
    in
    let settled =
      List.map
        (fun (qr : Campaign.query_report) ->
          let label = qr.Campaign.query.Campaign.label in
          let key = "guided-campaign/" ^ label in
          match qr.Campaign.outcome with
          | Campaign.Done r ->
              let verdict = Campaign.verdict_word r.Verify.verdict in
              account tally (verdict_problem cfg.reference ~key ~verdict);
              ((label, counts_of r.Verify.milp_stats), r.Verify.wall_time_s *. 1e3)
          | Campaign.Crashed why | Campaign.Skipped why ->
              account tally
                (Some
                   (Printf.sprintf "%s: %s (%s)" key
                      (Campaign.outcome_word qr.Campaign.outcome)
                      why));
              ((label, []), 0.0))
        report.Campaign.query_reports
    in
    { c_wall; service_ms = List.map snd settled; c_counts = List.map fst settled }
  in
  let t0 = now_s () in
  let rec loop i acc =
    let acc = one i :: acc in
    if now_s () -. t0 >= seconds then List.rev acc else loop (i + 1) acc
  in
  let runs, wall_s, delta, minor_words, majors = measured (fun () -> loop 0 []) in
  let n = List.length runs * List.length queries in
  let w =
    {
      ops = n;
      verdicts = n;
      passes = float_of_int (List.length runs);
      wall_s;
      busy_s =
        List.fold_left
          (fun a r -> a +. (List.fold_left ( +. ) 0.0 r.service_ms /. 1e3))
          0.0 runs;
      delta;
      minor_words;
      majors;
    }
  in
  (runs, w)

let guided cfg ~trace tally =
  let (prepared, queries), times = guided_setup cfg in
  let queries = shuffle (Random.State.make [| cfg.seed |]) queries in
  let state = (prepared, queries) in
  let seconds = if trace then cfg.seconds /. 2.0 else cfg.seconds in
  let runs, w = guided_window cfg tally state ~seconds ~traced:false in
  let first = List.hd runs in
  let rows =
    List.map (fun q -> (q.qid, List.assoc q.qid first.c_counts)) guided_series
  in
  print_counts "guided-campaign" rows;
  let repeat =
    List.for_all
      (fun r -> List.for_all (fun (l, c) -> List.assoc l rows = c) r.c_counts)
      runs
  in
  Printf.printf "counts repeat across campaigns: %b (%d campaigns)\n" repeat
    (List.length runs);
  let mismatched = count_mismatches cfg.reference "guided-campaign" rows in
  let walls = List.map (fun r -> r.c_wall) runs in
  (* One latency per query, its median over the window's campaigns:
     single solve times of small queries are too noisy. *)
  let settle =
    let cols = List.map (fun r -> Array.of_list r.service_ms) runs in
    List.mapi
      (fun i _ -> median (List.map (fun c -> c.(i)) cols))
      first.service_ms
  in
  note_latency "guided-campaign per-query solve time (median per query)" settle;
  let qps = ratio (float_of_int (List.length queries)) (median walls) in
  if not trace then
    emit ~tally end_to_end_units
      [
        ("setup_s", median times.total_s);
        ("queries_per_s", qps);
        ("jobs_per_s", qps);
        ("job_p50_ms", quantile settle 0.5);
        ("job_p99_ms", quantile settle 0.99);
      ]
  else begin
    let (truns, _), selfs =
      traced cfg ~workload:"guided-campaign" (fun ~traced ->
          guided_window cfg tally state ~seconds ~traced)
    in
    let traced_wall = median (List.map (fun r -> r.c_wall) truns) in
    let r_ms, e_ms = region_costs prepared guided_series in
    emit ~tally per_layer_units
      (window_layers w @ setup_layers times
      @ [
          ("verify.resolve_ms", r_ms);
          ("encode.build_ms", e_ms);
          ("failed_frac", failed_frac tally);
          ("counts.mismatched", float_of_int mismatched);
          ("job_samples", float_of_int (List.length settle));
        ]
      @ trace_layers
          ~ops:(float_of_int (List.length truns * List.length queries))
          ~overhead:(ratio traced_wall (median walls) -. 1.0)
          selfs)
  end

(* ================= serve-loop ================= *)

(* Each job asks two cut-9 queries of a few dozen B&B nodes (about
   40 ms of solving per job) around the full service path: frames,
   admission, joblog and per-job journal fsyncs.  Jobs that close at
   the root LP would leave a job's time to those fsyncs, whose latency
   on a VM disk swings by 2x from minute to minute (NOTES.md), too
   unsteady to gate.  Each query's label carries a per-job tag, which
   gives every fresh job its own content id without changing the
   mathematics, so all jobs share one reference. *)
let serve_series =
  [ query 9 "data-octagon" "far-left:1"; query 9 "data-box" "straight" ]

(* The query a streamed label answers: the label without its tag. *)
let untagged label =
  match String.index_opt label '#' with
  | Some i -> String.sub label 0 i
  | None -> label

let spec_query ~tag (q : query) =
  Json.Obj
    [
      ("name", Json.Str (q.qid ^ "#" ^ tag));
      ("property", Json.Str property.Dpv_spec.Property.name);
      ("psi", Json.Str q.psi_name);
      ("strategy", Json.Str q.strategy_name);
      ("cut", Json.Num (float_of_int q.cut));
    ]

let job_request ~name spec_queries =
  Json.encode
    (Json.Obj
       [
         ("op", Json.Str "submit");
         ("name", Json.Str name);
         ( "spec",
           Json.Obj
             [
               ("runners", Json.Num 1.0);
               ("workers", Json.Num 1.0);
               ("queries", Json.Arr spec_queries);
             ] );
       ])

type job_sample = {
  latency_ms : float;
  accept_ms : float;
  first_verdict_ms : float;
  fresh : bool;
}

(* Submit one job on [fd] and check its stream: exactly one verdict
   per query of [serve_series], each equal to the reference; busy and
   failed streams are failures. *)
let run_job cfg tally fd ~traced request =
  let t0 = now_s () and span_t0 = Trace.begin_ns () in
  let accept = ref 0.0 and first = ref 0.0 and trace_id = ref "" in
  let verdicts = ref [] in
  let on_frame payload =
    let t = now_s () -. t0 in
    match Json.of_string payload with
    | Error _ -> ()
    | Ok v -> (
        let str k = Option.bind (Json.member k v) Json.to_string in
        match str "type" with
        | Some "accepted" ->
            accept := t;
            trace_id := Option.value ~default:"" (str "trace")
        | Some "verdict" ->
            if !first = 0.0 then first := t;
            verdicts :=
              (Option.value ~default:"?" (str "label"),
               Option.value ~default:"none" (str "verdict"))
              :: !verdicts
        | _ -> ())
  in
  let outcome = Client.submit_and_stream fd ~request ~on_frame in
  let latency = now_s () -. t0 in
  if traced then
    Trace.complete ~args:[ ("trace", !trace_id) ] ~name:"bench.job" span_t0;
  let problem =
    match outcome with
    | Client.Busy _ -> Some "serve-loop: busy reply"
    | Client.Failed why -> Some ("serve-loop: failed stream: " ^ why)
    | Client.Finished _ -> (
        let labels = List.sort compare (List.map (fun (l, _) -> untagged l) !verdicts) in
        if labels <> List.sort compare (List.map (fun q -> q.qid) serve_series) then
          Some
            (Printf.sprintf "serve-loop: verdicts for [%s]"
               (String.concat "; " labels))
        else
          List.find_map
            (fun (label, verdict) ->
              verdict_problem cfg.reference ~key:("serve-loop/" ^ untagged label)
                ~verdict)
            !verdicts)
  in
  account tally problem;
  (latency *. 1e3, !accept *. 1e3, !first *. 1e3)

type served = {
  server : Server.t;
  serve_thread : Thread.t;
  sock : string;
}

let serve_root cfg = Filename.concat cfg.work_dir "serve"

let base_spec =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int setup.Workflow.seed));
      ("runners", Json.Num 1.0);
      ("workers", Json.Num 1.0);
      ("queries", Json.Arr []);
    ]

(* Start the daemon on a fresh state directory and answer one warm-up
   job, which fills the resident encoding cache. *)
let start_server cfg tally i =
  let prepared, load_s = time (fun () -> load cfg) in
  let builder = Specfile.builder prepared in
  let warm_up = List.map (spec_query ~tag:"warm-up") serve_series in
  (* Building the warm-up job's queries trains the characterizer the
     server's builder then keeps. *)
  let _, train_s =
    time (fun () ->
        get (Specfile.queries builder ~default_cut:setup.Workflow.cut warm_up))
  in
  let state_dir = Filename.concat (serve_root cfg) (Printf.sprintf "state-%d" i) in
  let sock = Filename.concat (serve_root cfg) (Printf.sprintf "s%d.sock" i) in
  let server =
    Server.create ~config:(Server.default_config ~state_dir)
      ~perception:prepared.Workflow.perception ~builder ~base:(get (Specfile.parse base_spec))
      ~base_spec ()
  in
  let listen_fd = Server.listen_unix ~path:sock in
  let serve_thread = Thread.create (fun () -> Server.serve server listen_fd) () in
  let fd = Client.connect_unix ~path:sock in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (run_job cfg tally fd ~traced:false (job_request ~name:"warm-up" warm_up)));
  ({ server; serve_thread; sock }, load_s, train_s)

let stop_server s =
  Server.request_drain s.server;
  Thread.join s.serve_thread

let serve_clients = 2

(* Every [resubmit_every]th job of a client resubmits one of its own
   finished jobs, which the server answers from that job's journal. *)
let resubmit_every = 10
let ping_every = 4

(* Two closed-loop client threads, one connection each, until
   [seconds] have passed.  The seed sets the job tags, the order of
   the queries in each job and which finished job is resubmitted. *)
let serve_window cfg tally s ~rng_seed ~first_index ~seconds ~traced =
  let next = Atomic.make first_index in
  let t0 = now_s () in
  let client c =
    let rng = Random.State.make [| rng_seed; c |] in
    let fd = Client.connect_unix ~path:s.sock in
    let jobs = ref [] and pings = ref [] and finished = ref [] in
    let k = ref 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        while now_s () -. t0 < seconds do
          if !k mod ping_every = ping_every - 1 then begin
            let span_t0 = Trace.begin_ns () in
            let reply, dt = time (fun () -> Client.rpc fd {|{"op": "ping"}|}) in
            if traced then
              Trace.complete
                ~args:[ ("trace", Printf.sprintf "ping-%d-%d" c !k) ]
                ~name:"bench.ping" span_t0;
            match reply with
            | Ok _ -> pings := (dt *. 1e6) :: !pings
            | Error why -> account tally (Some ("serve-loop: ping: " ^ why))
          end;
          let fresh = not (!k mod resubmit_every = resubmit_every - 1 && !finished <> []) in
          let request =
            if fresh then begin
              let n = Atomic.fetch_and_add next 1 in
              let tag = Printf.sprintf "%d-%d" rng_seed n in
              job_request ~name:(Printf.sprintf "j%d" n)
                (List.map (spec_query ~tag) (shuffle rng serve_series))
            end
            else List.nth !finished (Random.State.int rng (List.length !finished))
          in
          let latency_ms, accept_ms, first_verdict_ms =
            run_job cfg tally fd ~traced request
          in
          if fresh then finished := request :: !finished;
          jobs := { latency_ms; accept_ms; first_verdict_ms; fresh } :: !jobs;
          incr k
        done);
    (!jobs, !pings)
  in
  let (jobs, pings), wall_s, delta, minor_words, majors =
    measured (fun () ->
        let results = Array.make serve_clients ([], []) in
        let threads =
          List.init serve_clients (fun c ->
              Thread.create (fun () -> results.(c) <- client c) ())
        in
        List.iter Thread.join threads;
        Array.fold_left (fun (j, p) (j', p') -> (j' @ j, p' @ p)) ([], []) results)
  in
  let n = List.length jobs in
  let w =
    {
      ops = n;
      verdicts = n * List.length serve_series;
      passes = float_of_int (List.length (List.filter (fun j -> j.fresh) jobs));
      wall_s;
      busy_s = wall_s;
      delta;
      minor_words;
      majors;
    }
  in
  (jobs, pings, w, Atomic.get next)

(* Every fresh job solves the same two queries, so the window's solver
   counters are an exact multiple of the reference's per-job sums;
   resubmitted jobs replay from their journal and solve nothing.
   Returns 1 if the counts moved, else 0. *)
let serve_counts cfg w =
  let fresh = int_of_float w.passes in
  let counter_names =
    [ ("nodes", "milp.nodes"); ("lps", "milp.lps"); ("pivots", "simplex.pivots");
      ("fallbacks", "simplex.fallbacks") ]
  in
  let totals =
    List.map
      (fun (k, m) -> (k, Option.value ~default:0 (Metrics.counter_in w.delta m)))
      counter_names
  in
  let expected =
    List.map
      (fun (k, _) ->
        ( k,
          fresh
          * List.fold_left
              (fun acc q ->
                match Hashtbl.find_opt cfg.reference ("serve-loop/" ^ q.qid) with
                | Some e -> acc + Option.value ~default:0 (List.assoc_opt k e.counts)
                | None -> acc)
              0 serve_series ))
      counter_names
  in
  Printf.printf "count serve-loop total over %d fresh jobs %s\n" fresh
    (show_counts totals);
  if totals = expected then 0
  else begin
    Printf.printf "counts moved serve-loop: reference %s\n" (show_counts expected);
    1
  end

let serve_loop cfg ~trace tally =
  rm_rf (serve_root cfg);
  mkdir_p (serve_root cfg);
  let counter = ref 0 in
  let s, times =
    repeated_setup ~teardown:stop_server (fun () ->
        incr counter;
        start_server cfg tally !counter)
  in
  Fun.protect
    ~finally:(fun () ->
      stop_server s;
      rm_rf (serve_root cfg))
    (fun () ->
      let seconds = if trace then cfg.seconds /. 2.0 else cfg.seconds in
      let jobs, pings, w, next =
        serve_window cfg tally s ~rng_seed:cfg.seed ~first_index:0 ~seconds
          ~traced:false
      in
      let lat = List.map (fun j -> j.latency_ms) jobs in
      note_latency "serve-loop job latency (submit to done)" lat;
      let mismatched = serve_counts cfg w in
      Printf.printf "serve-loop: %d jobs (%d resubmitted), %d pings\n" w.ops
        (w.ops - int_of_float w.passes) (List.length pings);
      let jps = ratio (float_of_int w.ops) w.wall_s in
      if not trace then
        emit ~tally end_to_end_units
          [
            ("setup_s", median times.total_s);
            ("queries_per_s", ratio (float_of_int w.verdicts) w.wall_s);
            ("jobs_per_s", jps);
            ("job_p50_ms", quantile lat 0.5);
            ("job_p99_ms", quantile lat 0.99);
          ]
      else begin
        let (tjobs, _, tw, _), selfs =
          traced cfg ~workload:"serve-loop" (fun ~traced ->
              let v =
                serve_window cfg tally s ~rng_seed:(cfg.seed + 1) ~first_index:next
                  ~seconds ~traced
              in
              (* connection handlers close their serve.conn spans once
                 they see the clients hang up *)
              Thread.delay 0.1;
              v)
        in
        let r_ms, e_ms =
          let prepared = load cfg in
          region_costs prepared serve_series
        in
        let p50 l = quantile l 0.5 in
        emit ~tally per_layer_units
          (window_layers w @ setup_layers times
          @ [
              ("verify.resolve_ms", r_ms);
              ("encode.build_ms", e_ms);
              ("serve.accept_p50_ms", p50 (List.map (fun j -> j.accept_ms) jobs));
              ( "serve.first_verdict_p50_ms",
                p50 (List.map (fun j -> j.first_verdict_ms) jobs) );
              ("serve.ping_p50_us", p50 pings);
              ("failed_frac", failed_frac tally);
              ("counts.mismatched", float_of_int mismatched);
              ("job_samples", float_of_int (List.length lat));
            ]
          @ trace_layers ~ops:(float_of_int (List.length tjobs))
              ~overhead:(ratio jps (ratio (float_of_int tw.ops) tw.wall_s) -. 1.0)
              selfs)
      end)

(* ================= reference recording ================= *)

(* Writes the reference file from one pass of each workload's queries
   at the current code: verdict and exact counts per query.  The
   serve-loop queries are answered by the same Campaign.run the server
   executes per job, here called directly. *)
let record cfg path =
  let entries = ref [] in
  let add key verdict counts = entries := (key, { verdict; counts }) :: !entries in
  let campaign workload ?absint ?bisect ~runners prepared queries =
    let report =
      Campaign.run ~milp_options:Verify.default_milp_options ~runners ?absint ?bisect
        ~perception:prepared.Workflow.perception queries
    in
    List.iter
      (fun (qr : Campaign.query_report) ->
        let label = qr.Campaign.query.Campaign.label in
        match qr.Campaign.outcome with
        | Campaign.Done r ->
            add (workload ^ "/" ^ label)
              (Campaign.verdict_word r.Verify.verdict)
              (counts_of r.Verify.milp_stats)
        | _ -> failwith ("record: " ^ label ^ " did not settle"))
      report.Campaign.query_reports
  in
  let prepared, queries = fst (guided_setup cfg) in
  campaign "guided-campaign" ~absint:true ~bisect:guided_bisect ~runners:2 prepared
    queries;
  let characterizer = train_characterizer prepared 9 in
  campaign "serve-loop" ~runners:1 prepared
    (List.map
       (fun q ->
         Campaign.query ~label:q.qid ~characterizer ~psi:q.psi
           ~bounds:(Workflow.bounds_spec_of prepared ~cut:q.cut q.strategy)
           ())
       serve_series);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (reference_json !entries));
  Printf.printf "wrote %d reference entries to %s\n" (List.length !entries) path

(* ================= main ================= *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work_dir = ref ".bench_work" and reference = ref "" and record_to = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W guided-campaign | serve-loop");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--work-dir", Arg.Set_string work_dir, "DIR network cache, journals, traces");
      ("--reference", Arg.Set_string reference, "FILE reference verdicts");
      ("--record", Arg.Set_string record_to, "FILE write the reference and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let cfg =
    {
      seed = !seed;
      seconds = !seconds;
      work_dir = !work_dir;
      reference =
        (if !reference = "" then Hashtbl.create 1 else load_reference !reference);
    }
  in
  ensure_network cfg;
  if !record_to <> "" then record cfg !record_to
  else begin
    let tally = tally () in
    let trace = !trace = 1 in
    (match !workload with
    | "guided-campaign" -> guided cfg ~trace tally
    | "serve-loop" -> serve_loop cfg ~trace tally
    | w ->
        prerr_endline ("dpvbench: unknown workload " ^ w);
        exit 2)
  end
