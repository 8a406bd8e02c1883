(* Shared plumbing of the benchmark: clocks, quantiles, the reference
   verdict file, failure accounting, the result line, and self time
   from a Chrome trace written by Dpv_obs.Trace. *)

module Json = Dpv_core.Json

let now_s () = Dpv_obs.Mclock.ns_to_s (Dpv_obs.Mclock.now_ns ())

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* ---- order statistics ---- *)

(* Linear interpolation between closest ranks (R type 7); 0 on no
   samples, so an unexercised layer reads 0 rather than NaN. *)
let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let h = float_of_int (Array.length a - 1) *. q in
      let lo = int_of_float h in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* Seeded Fisher-Yates: the only way the workload seed reaches the
   order in which inputs are handed to the program. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- reference verdicts and exact counts ---- *)

type expected = { verdict : string; counts : (string * int) list }

let count_names = [ "nodes"; "lps"; "pivots"; "fallbacks" ]

let counts_of (s : Dpv_linprog.Milp.stats) =
  [
    ("nodes", s.nodes_explored);
    ("lps", s.lp_solved);
    ("pivots", s.pivots);
    ("fallbacks", s.fallbacks);
  ]

let load_reference path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let doc =
    match Json.of_string text with
    | Ok d -> d
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  let table = Hashtbl.create 128 in
  (match Json.member "expected" doc with
  | Some (Json.Obj entries) ->
      List.iter
        (fun (key, v) ->
          let verdict =
            match Option.bind (Json.member "verdict" v) Json.to_string with
            | Some w -> w
            | None -> failwith (Printf.sprintf "%s: %s has no verdict" path key)
          in
          let counts =
            List.filter_map
              (fun n ->
                Option.map (fun c -> (n, c))
                  (Option.bind (Json.member n v) Json.to_int))
              count_names
          in
          Hashtbl.replace table key { verdict; counts })
        entries
  | _ -> failwith (Printf.sprintf "%s: no \"expected\" object" path));
  table

(* Reference entries as the record mode writes them: one object per
   key, keys sorted, so the file diffs cleanly. *)
let reference_json entries =
  let entry (key, e) =
    ( key,
      Json.Obj
        (("verdict", Json.Str e.verdict)
        :: List.map (fun (n, c) -> (n, Json.Num (float_of_int c))) e.counts) )
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let body =
    String.concat ",\n"
      (List.map
         (fun kv ->
           let k, v = entry kv in
           Printf.sprintf "    %s: %s" (Json.encode (Json.Str k)) (Json.encode v))
         sorted)
  in
  Printf.sprintf "{\n  \"schema\": \"dpvbench-reference/1\",\n  \"expected\": {\n%s\n  }\n}\n"
    body

(* ---- failure accounting ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  lock : Mutex.t;
}

let tally () = { attempted = 0; failed = 0; lock = Mutex.create () }

(* One attempted operation; [problem] is [Some why] when it failed.
   The first few failures are named on stderr. *)
let account t problem =
  Mutex.protect t.lock (fun () ->
      t.attempted <- t.attempted + 1;
      match problem with
      | None -> ()
      | Some why ->
          t.failed <- t.failed + 1;
          if t.failed <= 10 then prerr_endline ("dpvbench: FAILED " ^ why))

(* The verdict check every workload shares: a verdict must equal the
   reference's; an unknown never matches a decided reference. *)
let verdict_problem reference ~key ~verdict =
  match Hashtbl.find_opt reference key with
  | None -> Some (Printf.sprintf "%s: no reference verdict" key)
  | Some e when e.verdict = verdict -> None
  | Some e ->
      Some (Printf.sprintf "%s: verdict %s, reference %s" key verdict e.verdict)

let show_counts counts =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)

(* Per-query exact counts against the reference; returns how many of
   the given queries moved, naming each on stdout. *)
let count_mismatches reference workload rows =
  List.fold_left
    (fun n (qid, counts) ->
      let key = workload ^ "/" ^ qid in
      match Hashtbl.find_opt reference key with
      | Some e when e.counts <> [] && e.counts <> counts ->
          Printf.printf "counts moved %s: %s (reference %s)\n" key
            (show_counts counts) (show_counts e.counts);
          n + 1
      | _ -> n)
    0 rows

(* ---- the result line ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0.0"

let result_line ~tally metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number value) unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed body

(* ---- self time from the written trace ---- *)

type span = {
  name : string;
  ts : float;  (** us *)
  dur : float;  (** us *)
  mutable covered : (float * float) list;  (** child intervals *)
}

(* Spans are grouped into tracks by (thread, trace id).  The id is the
   last "trace" argument: the ambient job context is stamped first and
   the benchmark's own explicit id after it, so a client-side span
   recorded while the executor runs another job still lands on its own
   job's track. *)
let tracks_of_trace doc =
  let events =
    Option.value ~default:[]
      (Option.bind (Json.member "traceEvents" doc) Json.to_list)
  in
  let tracks = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      let str k = Option.bind (Json.member k ev) Json.to_string in
      let num k = Option.bind (Json.member k ev) Json.to_float in
      match (str "ph", str "name", num "ts", num "dur", num "tid") with
      | Some "X", Some name, Some ts, Some dur, Some tid ->
          let trace =
            match Json.member "args" ev with
            | Some (Json.Obj args) ->
                List.fold_left
                  (fun acc (k, v) ->
                    match (k, v) with "trace", Json.Str id -> id | _ -> acc)
                  "" args
            | _ -> ""
          in
          let key = (int_of_float tid, trace) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt tracks key) in
          Hashtbl.replace tracks key ({ name; ts; dur; covered = [] } :: prev)
      | _ -> ())
    events;
  Hashtbl.fold (fun _ spans acc -> spans :: acc) tracks []

let union_length lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time is its duration minus the part its children on
   the same track cover; a child is the innermost span open at its
   start.  Returns total self time in ms per span name. *)
let self_ms doc =
  let totals = Hashtbl.create 32 in
  List.iter
    (fun spans ->
      let sorted =
        List.sort
          (fun a b -> if a.ts = b.ts then compare b.dur a.dur else compare a.ts b.ts)
          spans
      in
      let stack = ref [] in
      List.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | top :: rest when top.ts +. top.dur <= s.ts ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | parent :: _ -> parent.covered <- (s.ts, s.ts +. s.dur) :: parent.covered
          | [] -> ());
          stack := s :: !stack)
        sorted;
      List.iter
        (fun s ->
          let self = s.dur -. union_length s.ts (s.ts +. s.dur) s.covered in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals s.name) in
          Hashtbl.replace totals s.name (prev +. (Float.max 0.0 self /. 1e3)))
        spans)
    (tracks_of_trace doc);
  totals
