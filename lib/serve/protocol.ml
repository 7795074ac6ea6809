type request =
  | Hello of string
  | Open_
  | Cmd of Tecore.Script.command
  | Stat
  | Result_
  | Metrics
  | Ping
  | Quit
  | Shutdown
  | Trace of int
  | Tail of int

type error_kind =
  | Parse
  | Exec
  | Rejected
  | Overloaded
  | Timed_out
  | Evicted
  | Expired
  | Storage
  | Shutting_down
  | Internal

type error = { kind : error_kind; line : int; column : int; message : string }

let error kind ~line message = { kind; line; column = 1; message }

let kind_name = function
  | Parse -> "parse"
  | Exec -> "exec"
  | Rejected -> "rejected"
  | Overloaded -> "overloaded"
  | Timed_out -> "timed_out"
  | Evicted -> "evicted"
  | Expired -> "expired"
  | Storage -> "storage"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let parse_request ~line raw =
  let raw = strip_cr raw in
  let keyword, payload, col_kw, col_arg = Tecore.Script.split_keyword raw in
  let payload = Tecore.Script.trim_end payload in
  let err kind column message = Error { kind; line; column; message } in
  let no_arg verb r =
    if payload = "" then Ok r
    else err Parse col_arg (verb ^ " takes no argument")
  in
  match keyword with
  | "hello" ->
      if payload = "" then err Parse col_arg "hello: missing client id"
      else Ok (Hello payload)
  | "open" -> no_arg "open" Open_
  | "stat" -> no_arg "stat" Stat
  | "result" -> no_arg "result" Result_
  | "metrics" -> no_arg "metrics" Metrics
  | "ping" -> no_arg "ping" Ping
  | "quit" -> no_arg "quit" Quit
  | "shutdown" -> no_arg "shutdown" Shutdown
  | "trace" -> (
      match payload with
      | "" -> err Parse col_arg "trace: expected on, off or a period N"
      | "on" -> Ok (Trace 1)
      | "off" -> Ok (Trace 0)
      | p -> (
          match int_of_string_opt p with
          | Some n when n >= 0 -> Ok (Trace n)
          | _ -> err Parse col_arg "trace: expected on, off or a period N"))
  | "tail" -> (
      if payload = "" then Ok (Tail 10)
      else
        match int_of_string_opt payload with
        | Some n when n > 0 -> Ok (Tail n)
        | _ -> err Parse col_arg "tail: expected a positive count")
  | "" -> err Parse col_kw "empty request"
  | _ -> (
      (* Everything else is the session edit-script language, with its
         eager payload validation and column-accurate errors. *)
      match Tecore.Script.parse_command ~path:"wire" ~line raw with
      | Ok (Some c) -> Ok (Cmd c.Tecore.Script.cmd)
      | Ok None -> err Parse col_kw "empty request"
      | Error e ->
          err Parse e.Tecore.Script.column e.Tecore.Script.message)

let request_verb = function
  | Hello _ -> "hello"
  | Open_ -> "open"
  | Stat -> "stat"
  | Result_ -> "result"
  | Metrics -> "metrics"
  | Ping -> "ping"
  | Quit -> "quit"
  | Shutdown -> "shutdown"
  | Trace _ -> "trace"
  | Tail _ -> "tail"
  | Cmd c -> (
      match c with
      | Tecore.Script.Load _ -> "load"
      | Tecore.Script.Assert_ _ -> "assert"
      | Tecore.Script.Retract _ -> "retract"
      | Tecore.Script.Rule _ -> "rule"
      | Tecore.Script.Unrule _ -> "unrule"
      | Tecore.Script.Resolve _ -> "resolve"
      | Tecore.Script.Diff -> "diff")

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)
(* ------------------------------------------------------------------ *)

let ok_line fields = "ok " ^ Obs.Json.to_string (Obs.Json.Obj fields)

let with_request_id ~req line =
  (* Splice ["req":N] in as the first field of the response object, so
     a traced request's id rides every ok/err line without re-rendering
     the payload. Lines without an object (never produced by this
     module) pass through unchanged. *)
  match String.index_opt line '{' with
  | None -> line
  | Some i ->
      let head = String.sub line 0 (i + 1) in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      let sep = if rest = "}" then "" else "," in
      Printf.sprintf "%s\"req\":%d%s%s" head req sep rest

let err_line e =
  "err "
  ^ Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("kind", Obs.Json.Str (kind_name e.kind));
           ("line", Obs.Json.Num (float_of_int e.line));
           ("column", Obs.Json.Num (float_of_int e.column));
           ("message", Obs.Json.Str e.message);
         ])
