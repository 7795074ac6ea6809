type command =
  | Load of string
  | Assert_ of string
  | Retract of string
  | Rule of string
  | Unrule of string
  | Resolve of [ `Fresh | `Incremental ]
  | Diff

type located = { cmd : command; line : int; column : int }

type t = { path : string; commands : located list }

type error = { path : string; line : int; column : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "%s:%d:%d: %s" e.path e.line e.column e.message

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let is_blank c = c = ' ' || c = '\t' || c = '\r'

let split_keyword s =
  let n = String.length s in
  let rec skip i = if i < n && is_blank s.[i] then skip (i + 1) else i in
  let rec word i = if i < n && not (is_blank s.[i]) then word (i + 1) else i in
  let ks = skip 0 in
  let ke = word ks in
  let ps = skip ke in
  (String.sub s ks (ke - ks), String.sub s ps (n - ps), ks + 1, ps + 1)

let trim_end s =
  let rec go n = if n > 0 && is_blank s.[n - 1] then go (n - 1) else n in
  String.sub s 0 (go (String.length s))

(* Validate an assert/retract payload: it must be a single well-formed
   fact. Parsed against a throwaway namespace — the real parse happens
   at execution time against the session's namespace. [col0] is the
   0-based offset of the payload within the script line, used to map
   payload-relative error columns back to script coordinates. *)
let check_fact ~path ~line ~col0 payload =
  match Kg.Nquads.parse_string ~namespace:(Kg.Namespace.create ()) payload with
  | Error e ->
      let column = match e.Kg.Nquads.column with Some c -> col0 + c | None -> col0 + 1 in
      Error { path; line; column; message = e.Kg.Nquads.message }
  | Ok g -> (
      match Kg.Graph.to_list g with
      | [ _ ] -> Ok ()
      | facts ->
          Error
            {
              path;
              line;
              column = col0 + 1;
              message =
                Printf.sprintf "expected exactly one fact, got %d"
                  (List.length facts);
            })

let check_rule ~path ~line ~column payload =
  match
    Rulelang.Parser.parse_string ~namespace:(Kg.Namespace.create ()) payload
  with
  | Error e ->
      (* Rule payloads are single lines, so the parser's own line number
         is always 1; the useful coordinate is the payload start. *)
      Error { path; line; column; message = e.Rulelang.Parser.message }
  | Ok [] ->
      Error { path; line; column; message = "expected a rule declaration" }
  | Ok _ -> Ok ()

let parse_command ~path ~line raw =
  let raw = trim_end raw in
  let keyword, payload, col_kw, col_arg = split_keyword raw in
  if keyword = "" || keyword.[0] = '#' then Ok None
  else
    let err column message = Error { path; line; column; message } in
    let require_arg what k =
      if payload = "" then err col_arg (keyword ^ ": missing " ^ what)
      else k payload
    in
    let cmd c = Ok (Some { cmd = c; line; column = col_kw }) in
    match keyword with
    | "load" -> require_arg "file path" (fun p -> cmd (Load p))
    | "assert" | "retract" ->
        require_arg "fact" (fun p ->
            Result.bind (check_fact ~path ~line ~col0:(col_arg - 1) p)
              (fun () ->
                (* [check_fact] read the payload as a document line, which
                   [String.trim]s it; [apply] parses exactly those bytes. *)
                let p = String.trim p in
                cmd (if keyword = "assert" then Assert_ p else Retract p)))
    | "rule" | "constraint" ->
        (* The payload is the whole line: the rule language's own
           declarations already start with [rule]/[constraint]. *)
        let ks = col_kw - 1 in
        let decl = String.sub raw ks (String.length raw - ks) in
        require_arg "rule declaration" (fun _ ->
            Result.bind (check_rule ~path ~line ~column:col_kw decl) (fun () ->
                cmd (Rule decl)))
    | "unrule" -> require_arg "rule name" (fun p -> cmd (Unrule p))
    | "resolve" -> (
        match payload with
        | "" | "incremental" -> cmd (Resolve `Incremental)
        | "fresh" -> cmd (Resolve `Fresh)
        | other ->
            err col_arg
              (Printf.sprintf
                 "resolve: expected \"fresh\" or \"incremental\", got %S" other))
    | "diff" ->
        if payload = "" then cmd Diff
        else err col_arg "diff takes no argument"
    | other -> err col_kw (Printf.sprintf "unknown command %S" other)

let parse_string ~path text =
  let lines = String.split_on_char '\n' text in
  let rec go line acc = function
    | [] -> Ok { path; commands = List.rev acc }
    | raw :: rest -> (
        match parse_command ~path ~line raw with
        | Ok None -> go (line + 1) acc rest
        | Ok (Some c) -> go (line + 1) (c :: acc) rest
        | Error e -> Error e)
  in
  go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Loaded of { path : string; facts : int }
  | Asserted of Kg.Quad.t
  | Retracted of Kg.Quad.t
  | Added of Logic.Rule.t list
  | Removed of string

let apply ?dir session cmd =
  let fact payload edit k =
    match Kg.Nquads.parse_quad (Session.namespace session) payload with
    | Error msg -> Error msg
    | Ok q -> (
        match edit session q with
        | Ok _ -> Ok (k q)
        | Error e -> Error (Session.error_message e))
  in
  match cmd with
  | Load path -> (
      let file =
        match dir with
        | Some dir when Filename.is_relative path -> Filename.concat dir path
        | _ -> path
      in
      match Session.load session file with
      | Ok () ->
          let facts =
            Option.fold ~none:0 ~some:Kg.Graph.size (Session.graph session)
          in
          Ok (Loaded { path; facts })
      | Error e -> Error (Session.error_message e))
  | Assert_ payload -> fact payload Session.assert_fact (fun q -> Asserted q)
  | Retract payload -> fact payload Session.retract (fun q -> Retracted q)
  | Rule decl ->
      Result.map (fun rules -> Added rules) (Session.add_rules session decl)
  | Unrule name ->
      if Session.remove_rule session name then Ok (Removed name)
      else Error (Printf.sprintf "no rule named %S" name)
  | Resolve _ | Diff ->
      invalid_arg "Script.apply: resolve and diff are not edits"

let engine_name = Engine.choice_name

let mode_name = function `Fresh -> "fresh" | `Incremental -> "incremental"

let run ?engine ?jobs ~session fmt (t : t) =
  let exception Halt of error in
  let fail (c : located) message =
    raise (Halt { path = t.path; line = c.line; column = c.column; message })
  in
  let out fmt_str = Format.fprintf fmt fmt_str in
  let exec (c : located) =
    match c.cmd with
    | Resolve mode -> (
        match Session.resolve ?engine ?jobs ~mode session with
        | Ok r ->
            let outcome =
              match Session.cache_outcome session with
              | Some o -> Engine.outcome_name o
              | None -> "none"
            in
            let res = r.Engine.resolution in
            out
              "resolved mode=%s cache=%s engine=%s kept=%d removed=%d \
               derived=%d conflicting=%d objective=%.3f@."
              (mode_name mode) outcome
              (engine_name r.Engine.stats.Engine.engine_used)
              res.Conflict.kept
              (List.length res.Conflict.removed)
              (List.length res.Conflict.derived)
              (List.length res.Conflict.conflicting)
              r.Engine.stats.Engine.objective
        | Error (Session.Rejected report) ->
            (* A rejection is a first-class transcript outcome, not a
               script failure: the run continues (and exits 0) so that
               "what does TeCoRe say to an ill-formed program" can be
               golden-tested. *)
            out "rejected:@.%a@." Translator.pp_report report
        | Error e -> fail c (Session.error_message e))
    | Diff -> (
        match (Session.graph session, Session.last_result session) with
        | Some g, Some r ->
            out "%a@." Diff.pp
              (Diff.diff g r.Engine.resolution.Conflict.consistent)
        | _, None | None, _ -> out "diff: no resolution yet@.")
    | edit -> (
        match apply ~dir:(Filename.dirname t.path) session edit with
        | Error msg -> fail c msg
        | Ok (Loaded { path; facts }) -> out "loaded %s (%d facts)@." path facts
        | Ok (Asserted q) -> out "asserted %s@." (Kg.Quad.to_string q)
        | Ok (Retracted q) -> out "retracted %s@." (Kg.Quad.to_string q)
        | Ok (Added rules) ->
            List.iter
              (fun (r : Logic.Rule.t) ->
                out "added rule %s@." r.Logic.Rule.name)
              rules
        | Ok (Removed name) -> out "removed rule %s@." name)
  in
  match List.iter exec t.commands with
  | () -> Ok ()
  | exception Halt e -> Error e
