module Json = Dpv_core.Json
module Jsonl = Dpv_core.Jsonl

(* The server's own journal: one JSON line per lifecycle event,
   appended and fsynced BEFORE the event's consequences can happen.
   Recovery is a pure fold over the lines — accepted jobs with no
   finished record are re-run from their persisted spec.  Writing and
   loading, torn-tail rule included, is {!Dpv_core.Jsonl}, the same
   primitive under the campaign journal. *)

type event =
  | Accepted of {
      job : string;
      name : string;
      priority : int;
      budget_s : float option;
      deadline_s : float option;
      trace : string;
      spec : Json.t;
    }
  | Finished of { job : string; exit_code : int }
  | Client_gone of { job : string }

let encode = function
  | Accepted { job; name; priority; budget_s; deadline_s; trace; spec } ->
      let opt_num = function None -> Json.Null | Some f -> Json.Num f in
      Json.Obj
        [
          ("event", Json.Str "accepted");
          ("job", Json.Str job);
          ("name", Json.Str name);
          ("priority", Json.Num (float_of_int priority));
          ("budget_s", opt_num budget_s);
          ("deadline_s", opt_num deadline_s);
          ("trace", Json.Str trace);
          ("spec", spec);
        ]
  | Finished { job; exit_code } ->
      Json.Obj
        [
          ("event", Json.Str "finished");
          ("job", Json.Str job);
          ("exit_code", Json.Num (float_of_int exit_code));
        ]
  | Client_gone { job } ->
      Json.Obj [ ("event", Json.Str "client_gone"); ("job", Json.Str job) ]

let decode v =
  let str key = Option.bind (Json.member key v) Json.to_string in
  let job () =
    match str "job" with
    | Some j -> Ok j
    | None -> Error "event is missing \"job\""
  in
  match str "event" with
  | Some "accepted" -> (
      match (job (), Json.member "spec" v) with
      | Error e, _ -> Error e
      | Ok _, None -> Error "accepted event is missing \"spec\""
      | Ok job, Some spec ->
          let num key = Option.bind (Json.member key v) Json.to_float in
          Ok
            (Accepted
               {
                 job;
                 name = Option.value (str "name") ~default:job;
                 priority =
                   Option.value
                     (Option.bind (Json.member "priority" v) Json.to_int)
                     ~default:0;
                 budget_s = num "budget_s";
                 deadline_s = num "deadline_s";
                 (* pre-dpv-obs/2 joblogs have no trace id *)
                 trace = Option.value (str "trace") ~default:"";
                 spec;
               }))
  | Some "finished" -> (
      match (job (), Option.bind (Json.member "exit_code" v) Json.to_int) with
      | Error e, _ -> Error e
      | Ok _, None -> Error "finished event is missing \"exit_code\""
      | Ok job, Some exit_code -> Ok (Finished { job; exit_code }))
  | Some "client_gone" -> Result.map (fun job -> Client_gone { job }) (job ())
  | Some e -> Error (Printf.sprintf "unknown event %S" e)
  | None -> Error "line has no \"event\""

(* One fsynced append per event: when this returns, the event survives
   a crash.  The joblog sees a handful of writes per job, nowhere near
   a hot path. *)
let append ~path event = Jsonl.append ~path [ encode event ]

let load ~path =
  if Sys.file_exists path then Jsonl.load ~path decode else Ok []

(* A torn tail that [load] dropped is still on disk, and the next
   append would glue a complete line onto it: mid-file damage at the
   following restart.  Rewriting the log from what loaded removes it. *)
let recover ~path =
  Result.map
    (fun events ->
      Jsonl.replace ~path (List.map encode events);
      events)
    (load ~path)

let pending events =
  let finished = Hashtbl.create 8 in
  List.iter
    (function
      | Finished { job; _ } -> Hashtbl.replace finished job ()
      | Accepted _ | Client_gone _ -> ())
    events;
  List.filter_map
    (function
      | Accepted { job; name; priority; budget_s; deadline_s; trace; spec }
        when not (Hashtbl.mem finished job) ->
          Some (job, name, priority, budget_s, deadline_s, trace, spec)
      | _ -> None)
    events
