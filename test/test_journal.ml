(* The durable JSON-lines layer: journal lines pinned byte for byte to
   the format older versions wrote (so their journals still resume),
   lossless number emission, and the torn-tail load rule shared by the
   campaign journal and the serve joblog. *)

module Journal = Dpv_core.Journal
module Json = Dpv_core.Json
module Jsonl = Dpv_core.Jsonl
module Verify = Dpv_core.Verify
module Milp = Dpv_linprog.Milp
module Metrics = Dpv_obs.Metrics

(* One value of every line shape: each verdict, each outcome, and a
   meta trailer with and without a trace id. *)
let stats =
  {
    Milp.nodes_explored = 17;
    lp_solved = 19;
    incumbent_updates = 1;
    lp_time_s = 0.0123456789;
    per_worker_nodes = [| 9; 8 |];
    steals = 2;
    max_queue_depth = 5;
    pivots = 211;
    warm_starts = 16;
    cold_starts = 3;
    fallbacks = 0;
    absint_phase_fixes = 4;
    absint_prunes = 1;
    absint_incr_hits = 6;
    absint_layers_propagated = 12;
    absint_layers_saved = 30;
    absint_cache_evictions = 0;
  }

let result verdict =
  {
    Verify.verdict;
    milp_stats = stats;
    encoding = "32 vars, 48 rows";
    num_binaries = 8;
    wall_time_s = 0.0421337;
  }

let entry ?(attempts = 1) key outcome =
  {
    Journal.key;
    label = key ^ "-label";
    outcome;
    attempts;
    dense_retry = false;
    deadline_retry = attempts > 1;
  }

let entries =
  [
    entry "safe" (Journal.Done (result (Verify.Safe { conditional = true })));
    entry "unsafe"
      (Journal.Done
         (result
            (Verify.Unsafe
               {
                 features = [| -0.0; 1.5; 1e15; 4.6e-17; 3.0; -2.25 |];
                 output = [| 0.1; -7.0 |];
                 logit = 0.30000000000000004;
               })));
    entry ~attempts:2 "unknown"
      (Journal.Done (result (Verify.Unknown "deadline exceeded")));
    entry "crashed" (Journal.Crashed "Failure(\"boom\")\tat\\encode");
    {
      (entry "skipped" (Journal.Skipped "campaign budget exhausted")) with
      attempts = 0;
    };
  ]

let metrics =
  {
    Metrics.snap_counters = [ ("journal.appends", 5); ("milp.nodes", 17) ];
    snap_gauges = [ ("pool.queue_depth", 3) ];
    snap_rates = [ ("serve.solves_per_s", 1250) ];
    snap_histograms =
      [
        ( "journal.append_ns",
          {
            Metrics.count = 5;
            sum = 912345;
            buckets = [ (131072, 2); (262144, 3) ];
          } );
      ];
  }

let meta trace =
  {
    Journal.shard = 1;
    shard_count = 3;
    runners = 2;
    total_wall_s = 1.25;
    trace;
    metrics;
  }

(* Lines recorded from the printf-based writer this format started
   with; the Json.t writer must reproduce them exactly. *)
let golden_entries =
  [
    "{\"key\": \"safe\", \"label\": \"safe-label\", \"outcome\": \"done\", \"attempts\": 1, \"dense_retry\": false, \"deadline_retry\": false, \"result\": {\"verdict\": \"safe\", \"conditional\": true, \"encoding\": \"32 vars, 48 rows\", \"num_binaries\": 8, \"wall_time_s\": 0.042133700000000003, \"milp\": {\"nodes_explored\": 17, \"lp_solved\": 19, \"incumbent_updates\": 1, \"lp_time_s\": 0.0123456789, \"per_worker_nodes\": [9, 8], \"steals\": 2, \"max_queue_depth\": 5, \"pivots\": 211, \"warm_starts\": 16, \"cold_starts\": 3, \"fallbacks\": 0, \"absint_phase_fixes\": 4, \"absint_prunes\": 1, \"absint_incr_hits\": 6, \"absint_layers_propagated\": 12, \"absint_layers_saved\": 30, \"absint_cache_evictions\": 0}}}";
    "{\"key\": \"unsafe\", \"label\": \"unsafe-label\", \"outcome\": \"done\", \"attempts\": 1, \"dense_retry\": false, \"deadline_retry\": false, \"result\": {\"verdict\": \"unsafe\", \"features\": [-0, 1.5, 1000000000000000, 4.6000000000000002e-17, 3, -2.25], \"output\": [0.10000000000000001, -7], \"logit\": 0.30000000000000004, \"encoding\": \"32 vars, 48 rows\", \"num_binaries\": 8, \"wall_time_s\": 0.042133700000000003, \"milp\": {\"nodes_explored\": 17, \"lp_solved\": 19, \"incumbent_updates\": 1, \"lp_time_s\": 0.0123456789, \"per_worker_nodes\": [9, 8], \"steals\": 2, \"max_queue_depth\": 5, \"pivots\": 211, \"warm_starts\": 16, \"cold_starts\": 3, \"fallbacks\": 0, \"absint_phase_fixes\": 4, \"absint_prunes\": 1, \"absint_incr_hits\": 6, \"absint_layers_propagated\": 12, \"absint_layers_saved\": 30, \"absint_cache_evictions\": 0}}}";
    "{\"key\": \"unknown\", \"label\": \"unknown-label\", \"outcome\": \"done\", \"attempts\": 2, \"dense_retry\": false, \"deadline_retry\": true, \"result\": {\"verdict\": \"unknown\", \"reason\": \"deadline exceeded\", \"encoding\": \"32 vars, 48 rows\", \"num_binaries\": 8, \"wall_time_s\": 0.042133700000000003, \"milp\": {\"nodes_explored\": 17, \"lp_solved\": 19, \"incumbent_updates\": 1, \"lp_time_s\": 0.0123456789, \"per_worker_nodes\": [9, 8], \"steals\": 2, \"max_queue_depth\": 5, \"pivots\": 211, \"warm_starts\": 16, \"cold_starts\": 3, \"fallbacks\": 0, \"absint_phase_fixes\": 4, \"absint_prunes\": 1, \"absint_incr_hits\": 6, \"absint_layers_propagated\": 12, \"absint_layers_saved\": 30, \"absint_cache_evictions\": 0}}}";
    "{\"key\": \"crashed\", \"label\": \"crashed-label\", \"outcome\": \"crashed\", \"reason\": \"Failure(\\\"boom\\\")\\tat\\\\encode\", \"attempts\": 1, \"dense_retry\": false, \"deadline_retry\": false}";
    "{\"key\": \"skipped\", \"label\": \"skipped-label\", \"outcome\": \"skipped\", \"reason\": \"campaign budget exhausted\", \"attempts\": 0, \"dense_retry\": false, \"deadline_retry\": false}";
  ]

let golden_meta_no_trace =
  "{\"journal_meta\": 1, \"shard\": 1, \"shard_count\": 3, \"runners\": 2, \"total_wall_s\": 1.25, \"metrics\": {\"schema\": \"dpv-metrics/1\", \"counters\": {\"journal.appends\": 5, \"milp.nodes\": 17}, \"gauges\": {\"pool.queue_depth\": 3}, \"rates\": {\"serve.solves_per_s\": 1250}, \"histograms\": {\"journal.append_ns\": {\"count\": 5, \"sum_ns\": 912345, \"buckets\": [[131072, 2], [262144, 3]]}}}}"

let golden_meta_trace =
  "{\"journal_meta\": 1, \"shard\": 1, \"shard_count\": 3, \"runners\": 2, \"total_wall_s\": 1.25, \"trace\": \"t-0123abcd\", \"metrics\": {\"schema\": \"dpv-metrics/1\", \"counters\": {\"journal.appends\": 5, \"milp.nodes\": 17}, \"gauges\": {\"pool.queue_depth\": 3}, \"rates\": {\"serve.solves_per_s\": 1250}, \"histograms\": {\"journal.append_ns\": {\"count\": 5, \"sum_ns\": 912345, \"buckets\": [[131072, 2], [262144, 3]]}}}}"

let with_temp_file f =
  let path = Filename.temp_file "dpv_test_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let test_golden_lines () =
  with_temp_file @@ fun path ->
  Journal.save ~path entries;
  List.iter2
    (Alcotest.(check string) "entry line is byte-identical")
    golden_entries (read_lines path);
  List.iter
    (fun (trace, golden) ->
      let w = Journal.create ~path [] in
      Journal.append_meta w (meta trace);
      Alcotest.(check (list string)) "meta line is byte-identical" [ golden ]
        (read_lines path))
    [ ("", golden_meta_no_trace); ("t-0123abcd", golden_meta_trace) ];
  (* ... and the recorded lines load back to the values they encode. *)
  write_file path
    (String.concat "\n" (golden_entries @ [ golden_meta_trace ]) ^ "\n");
  match Journal.load_with_meta ~path with
  | Error e -> Alcotest.failf "golden journal does not load: %s" e
  | Ok (es, ms) ->
      Alcotest.(check bool) "entries round-trip" true (es = entries);
      Alcotest.(check bool) "meta round-trips" true (ms = [ meta "t-0123abcd" ])

let test_encode_keeps_every_double () =
  List.iter
    (fun f ->
      match Json.of_string (Json.encode (Json.Arr [ Json.Num f ])) with
      | Ok (Json.Arr [ Json.Num g ]) ->
          Alcotest.(check int64)
            (Printf.sprintf "%h round-trips bit for bit" f)
            (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> Alcotest.failf "%h does not round-trip" f)
    [ -0.0; 0.0; 1e15; 4.6e-17; 3.0; -7.0; 0.1; 1e17; 2. ** 60. ]

(* Journal's torn-tail rule: only an unterminated final line may be
   undecodable (a crash mid-append); blank lines are skipped; any other
   bad line is an error naming it. *)
let test_load_torn_tail_rule () =
  let decode j =
    match Json.to_int j with Some n -> Ok n | None -> Error "not an int"
  in
  with_temp_file @@ fun path ->
  let load content =
    write_file path content;
    Jsonl.load ~path decode
  in
  let ok = Alcotest.(check (result (list int) string)) in
  ok "complete lines, blanks skipped" (Ok [ 1; 2 ]) (load "1\n\n  \n2\n");
  ok "unterminated garbage tail dropped" (Ok [ 1 ]) (load "1\n{\"torn");
  ok "unterminated undecodable tail dropped" (Ok [ 1 ]) (load "1\n\"x\"");
  ok "unterminated good tail kept" (Ok [ 1; 2 ]) (load "1\n2");
  ok "terminated garbage tail is an error" (Error "line 2: not an int")
    (load "1\n\"x\"\n");
  ok "blank lines count toward the line number" (Error "line 3: not an int")
    (load "1\n\n\"x\"\n2\n");
  write_file path "1\n";
  Jsonl.append ~path [ Json.Num 2.0; Json.Num 3.0 ];
  ok "append adds terminated lines" (Ok [ 1; 2; 3 ]) (Jsonl.load ~path decode);
  Jsonl.replace ~path [ Json.Num 4.0; Json.Num 5.0 ];
  ok "replace swaps the whole file" (Ok [ 4; 5 ]) (Jsonl.load ~path decode);
  match Jsonl.load ~path:(Filename.concat path "missing") decode with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an unreadable file is an error"

let tests =
  [
    Alcotest.test_case "golden journal lines" `Quick test_golden_lines;
    Alcotest.test_case "encode keeps every double" `Quick
      test_encode_keeps_every_double;
    Alcotest.test_case "load applies the torn-tail rule" `Quick
      test_load_torn_tail_rule;
  ]
