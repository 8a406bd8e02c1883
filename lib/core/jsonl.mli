(** Durable JSON-lines files: the one write-and-recover primitive under
    the campaign {!Journal} and the serve joblog.

    One {!Json.t} per line, emitted with {!Json.encode}.  When a write
    returns, its lines have been [fsync]ed; a crash mid-write can tear
    at most the final, unterminated line, which {!load} drops. *)

val append : path:string -> Json.t list -> unit
(** Append the lines to [path] (created if missing): open with
    [O_APPEND], write, [fsync], close.  Every failure, [fsync]
    included, raises [Sys_error]; the file may then end in a partial
    line. *)

val replace : path:string -> Json.t list -> unit
(** Atomically make [path] hold exactly the lines: write them to the
    sibling [path ^ ".tmp"], [fsync] it and rename it over [path], so
    a reader sees the old file or the new one, never a mix.  Raises
    [Sys_error] on failure, leaving [path] untouched. *)

val load :
  path:string -> (Json.t -> ('a, string) result) -> ('a list, string) result
(** Decode every non-blank line, in file order.  A final line with no
    trailing newline that fails to parse or decode is the torn tail of
    an interrupted append and is dropped; any other bad line is an
    [Error "line N: ..."] (1-based).  An unreadable file is an [Error]
    carrying the system message. *)
