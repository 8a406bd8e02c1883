(** The serve daemon's crash-recovery journal.

    One JSON line per job lifecycle event, appended and fsynced
    {e before} the event's consequences can be observed: a job is
    [accepted] on disk (spec included, verbatim) before any executor
    can start it, so SIGKILL at any instant leaves either no trace of
    a job or enough to re-run it.  Restart recovery is
    {!recover} + {!pending}: accepted events with no finished record are
    re-submitted from their persisted specs, and each job's own
    campaign journal then replays whatever queries already settled —
    no accepted job is ever lost, no settled verdict re-solved. *)

module Json = Dpv_core.Json

type event =
  | Accepted of {
      job : string;   (** content digest over the job's query keys *)
      name : string;
      priority : int;
      budget_s : float option;
      deadline_s : float option;
      trace : string;
          (** the trace id correlating this job's frames, spans and
              journal meta; [""] when read from a pre-dpv-obs/2 log *)
      spec : Json.t;  (** the submitted spec, replayable verbatim *)
    }
  | Finished of { job : string; exit_code : int }
  | Client_gone of { job : string }
      (** the submitter vanished mid-stream; the job ran on *)

val append : path:string -> event -> unit
(** Append one event and [fsync] ({!Dpv_core.Jsonl.append}).  Raises
    [Sys_error] on any I/O failure, [fsync] included — the server
    treats an unjournalable job as unacceptable (the client gets an
    error, not a silent non-guarantee). *)

val load : path:string -> (event list, string) result
(** All events, in append order.  A missing file is [Ok []].  A final
    line with no trailing newline that does not decode is the torn
    tail of a crash mid-append and is dropped; any other bad line, a
    newline-terminated final one included, is an [Error "line N: ..."]
    ({!Dpv_core.Jsonl.load}). *)

val recover : path:string -> (event list, string) result
(** Restart recovery: {!load}, then atomically rewrite the file from
    the loaded events ({!Dpv_core.Jsonl.replace}), so a torn tail the
    load dropped cannot end up glued to the next {!append}.  Raises
    [Sys_error] if the rewrite fails. *)

val pending :
  event list ->
  (string * string * int * float option * float option * string * Json.t)
  list
(** [(job, name, priority, budget_s, deadline_s, trace, spec)] for
    every accepted job with no finished event, in acceptance order —
    the restart recovery work list. *)
