(** JSON string literals: the one escaper behind every JSON document
    the project writes ({!Trace}, {!Metrics}, and [Dpv_core.Json]).

    Bytes are copied through unchanged apart from the JSON escapes
    (double quote, backslash, the short control escapes, and a
    four-digit unicode escape for the other control bytes), so UTF-8
    text stays UTF-8 and any standard JSON reader gets the original
    string back byte for byte. *)

val buf_quoted : Buffer.t -> string -> unit
(** Append [s] to the buffer as a quoted JSON string literal. *)
