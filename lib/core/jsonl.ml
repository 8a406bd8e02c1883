(* Every durable write opens, writes, fsyncs and closes: no handle
   outlives a call, so a failed write leaves nothing half-open behind.
   Unix errors surface as [Sys_error], the one exception callers
   catch for a failed write. *)
let write ~flags ~path lines =
  let b = Buffer.create 1024 in
  List.iter
    (fun v ->
      Buffer.add_string b (Json.encode v);
      Buffer.add_char b '\n')
    lines;
  let s = Buffer.contents b in
  try
    let fd =
      Unix.openfile path (Unix.O_WRONLY :: Unix.O_CREAT :: flags) 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let rec put ofs =
          if ofs < String.length s then
            put (ofs + Unix.write_substring fd s ofs (String.length s - ofs))
        in
        put 0;
        Unix.fsync fd)
  with Unix.Unix_error (e, fn, _) ->
    raise
      (Sys_error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e)))

let append ~path lines = write ~flags:[ Unix.O_APPEND ] ~path lines

let replace ~path lines =
  let tmp = path ^ ".tmp" in
  write ~flags:[ Unix.O_TRUNC ] ~path:tmp lines;
  Sys.rename tmp path

let load ~path decode =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | content ->
      (* Every complete write ends in a newline, so only the last
         element of the split can be unterminated — and a non-blank one
         can only be the torn tail of an interrupted append.  Damage
         anywhere else is an error: that is corruption, not a crash. *)
      let rec go acc n = function
        | [] -> Ok (List.rev acc)
        | l :: rest when String.trim l = "" -> go acc (n + 1) rest
        | l :: rest -> (
            match Result.bind (Json.of_string l) decode with
            | Ok v -> go (v :: acc) (n + 1) rest
            | Error _ when rest = [] -> Ok (List.rev acc)
            | Error m -> Error (Printf.sprintf "line %d: %s" n m))
      in
      go [] 1 (String.split_on_char '\n' content)
