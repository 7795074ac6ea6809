type error = { line : int; column : int option; message : string }

let pp_error ppf e =
  match e.column with
  | Some c -> Format.fprintf ppf "line %d, column %d: %s" e.line c e.message
  | None -> Format.fprintf ppf "line %d: %s" e.line e.message

(* Split a fact line into tokens: quoted strings, <iri>, [interval] and
   bare words. Lexical errors carry the 1-based column they start at. *)
let tokenize line =
  let n = String.length line in
  let tokens = ref [] in
  let i = ref 0 in
  let error ~column msg = Error (msg, column) in
  let rec scan () =
    while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do
      incr i
    done;
    if !i >= n then Ok (List.rev !tokens)
    else
      match line.[!i] with
      | '#' -> Ok (List.rev !tokens)
      | '"' -> (
          let start = !i in
          incr i;
          let rec find_close () =
            if !i >= n then None
            else if line.[!i] = '\\' then begin
              i := !i + 2;
              find_close ()
            end
            else if line.[!i] = '"' then Some !i
            else begin
              incr i;
              find_close ()
            end
          in
          match find_close () with
          | None ->
              error ~column:(start + 1) "unterminated string literal"
          | Some close ->
              i := close + 1;
              tokens := String.sub line start (close - start + 1) :: !tokens;
              scan ())
      | '<' -> (
          match String.index_from_opt line !i '>' with
          | None -> error ~column:(!i + 1) "unterminated <iri>"
          | Some close ->
              tokens := String.sub line !i (close - !i + 1) :: !tokens;
              i := close + 1;
              scan ())
      | '[' -> (
          match String.index_from_opt line !i ']' with
          | None -> error ~column:(!i + 1) "unterminated [interval]"
          | Some close ->
              tokens := String.sub line !i (close - !i + 1) :: !tokens;
              i := close + 1;
              scan ())
      | _ ->
          let start = !i in
          while
            !i < n && line.[!i] <> ' ' && line.[!i] <> '\t' && line.[!i] <> '#'
          do
            incr i
          done;
          tokens := String.sub line start (!i - start) :: !tokens;
          scan ()
  in
  scan ()

let parse_term ns token =
  let n = String.length token in
  if n >= 2 && token.[0] = '<' && token.[n - 1] = '>' then
    Term.iri (String.sub token 1 (n - 2))
  else if n >= 2 && token.[0] = '"' && token.[n - 1] = '"' then
    Term.of_string token
  else
    match Term.of_string token with
    | Term.Iri name -> Term.iri (Namespace.expand ns name)
    | t -> t

let strip_dot tokens =
  match List.rev tokens with "." :: rest -> List.rev rest | _ -> tokens

(* Like {!parse_quad} but keeps the lexer column structured, for
   {!parse_string} to surface as [error.column]. *)
let parse_quad_loc ns line =
  match tokenize line with
  | Error (msg, column) -> Error (msg, Some column)
  | Ok tokens -> (
      match strip_dot tokens with
      | [ s; p; o; time ] | [ s; p; o; time; _ ] as fields -> (
          let confidence =
            match fields with
            | [ _; _; _; _; c ] -> float_of_string_opt c
            | _ -> Some 1.0
          in
          match (Interval.of_string time, confidence) with
          | Error e, _ -> Error (e, None)
          | _, None -> Error ("confidence is not a number", None)
          | Ok interval, Some confidence -> (
              try
                Ok
                  (Quad.make ~confidence ~subject:(parse_term ns s)
                     ~predicate:(parse_term ns p) ~object_:(parse_term ns o)
                     interval)
              with Quad.Invalid msg -> Error (msg, None)))
      | [] -> Error ("empty fact line", None)
      | tokens ->
          Error
            ( Printf.sprintf "expected 4 or 5 fields, got %d"
                (List.length tokens),
              None ))

let parse_quad ns line =
  match parse_quad_loc ns line with
  | Ok q -> Ok q
  | Error (msg, None) -> Error msg
  | Error (msg, Some column) ->
      Error (Printf.sprintf "%s (column %d)" msg column)

let is_blank line =
  String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

(* "@prefix ex: <http://...> ." *)
let parse_prefix line =
  if not (String.starts_with ~prefix:"@prefix" line) then None
  else
    let parts =
      String.split_on_char ' ' line
      |> List.filter (fun s -> s <> "" && s <> ".")
    in
    match parts with
    | [ "@prefix"; prefixed; iri ]
      when String.ends_with ~suffix:":" prefixed
           && String.length iri >= 2 && iri.[0] = '<'
           && iri.[String.length iri - 1] = '>' ->
        let n = String.length prefixed and m = String.length iri in
        Some (Ok (String.sub prefixed 0 (n - 1), String.sub iri 1 (m - 2)))
    | _ -> Some (Error "malformed @prefix")

let parse_string ?namespace text =
  let ns = match namespace with Some ns -> ns | None -> Namespace.create () in
  let graph = Graph.create () in
  let lines = String.split_on_char '\n' text in
  let rec loop lineno = function
    | [] -> Ok graph
    | line :: rest -> (
        let trimmed = String.trim line in
        if is_blank line || (trimmed <> "" && trimmed.[0] = '#') then
          loop (lineno + 1) rest
        else
          match parse_prefix trimmed with
          | Some (Ok (prefix, iri)) ->
              Namespace.add ns ~prefix ~iri;
              loop (lineno + 1) rest
          | Some (Error message) ->
              Error { line = lineno; column = None; message }
          | None -> (
              match parse_quad_loc ns trimmed with
              | Ok q ->
                  ignore (Graph.add graph q);
                  loop (lineno + 1) rest
              | Error (message, column) ->
                  (* Columns count on the raw line: [trimmed] starts at
                     the first occurrence of its first byte. *)
                  let shift c = c + String.index line trimmed.[0] in
                  let column = Option.map shift column in
                  Error { line = lineno; column; message }))
  in
  loop 1 lines

let parse_file ?namespace path =
  parse_string ?namespace (In_channel.with_open_bin path In_channel.input_all)

let fact_line ns q =
  let term = function
    | Term.Iri name -> Namespace.shrink ns name
    | t -> Term.to_string t
  in
  let b = Buffer.create 64 in
  List.iter
    (fun t ->
      Buffer.add_string b (term t);
      Buffer.add_char b ' ')
    [ q.Quad.subject; q.Quad.predicate; q.Quad.object_ ];
  Buffer.add_string b (Interval.to_string q.Quad.time);
  if q.Quad.confidence < 1.0 then begin
    Buffer.add_char b ' ';
    Buffer.add_string b (Prelude.Floatlit.to_lexeme q.Quad.confidence)
  end;
  Buffer.add_string b " .";
  Buffer.contents b

let print ?namespace ppf graph =
  let ns = match namespace with Some ns -> ns | None -> Namespace.create () in
  List.iter
    (fun (prefix, iri) ->
      Format.fprintf ppf "@@prefix %s: <%s> .@." prefix iri)
    (Namespace.bindings ns);
  Graph.iter (fun _ q -> Format.fprintf ppf "%s@." (fact_line ns q)) graph

let to_string ?namespace graph =
  Format.asprintf "%a" (fun ppf g -> print ?namespace ppf g) graph

let save_file ?namespace path graph =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  print ?namespace ppf graph;
  Format.pp_print_flush ppf ();
  close_out oc
