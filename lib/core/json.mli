(** A minimal JSON reader and writer.

    The project deliberately carries no external JSON dependency.  This
    reads campaign specs, journals and protocol frames, and writes the
    JSON-lines records ({!Jsonl}) and frames; the multi-line reports
    are laid out with [Printf], quoting their strings with {!quote}.
    It parses standard JSON with two simplifications: numbers are
    always [float], and [\uXXXX] escapes outside the basic
    multilingual plane are not recombined from surrogate pairs. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val default_max_depth : int
(** Default container-nesting budget (256) — generous for every
    document this project writes, tiny against the stack. *)

val of_string : ?max_depth:int -> ?max_bytes:int -> string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a byte offset and a
    description.

    Both limits exist for adversarial input (the serve protocol hands
    this parser raw network frames): [max_depth] (default
    {!default_max_depth}) bounds container nesting so a deeply nested
    array yields an [Error] instead of a stack overflow, and
    [max_bytes] (default unlimited) rejects oversized documents in O(1)
    before any parsing allocation. *)

val encode : t -> string
(** Compact (single-line) emission; [of_string (encode v)] round-trips
    every value this reader produces, finite numbers bit for bit
    ([-0.0] included).  Strings are emitted byte for byte apart from
    the JSON escapes, so UTF-8 text stays UTF-8. *)

val quote : string -> string
(** [quote s] is [encode (Str s)]: [s] as a quoted JSON string
    literal, for emitters that lay out their own lines. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing keys and non-objects. *)

val to_float : t -> float option
val to_int : t -> int option
(** [to_int] accepts only numbers with no fractional part. *)

val to_string : t -> string option
val to_list : t -> t list option
