(* The edit language's one line splitter and one executor.

   [Parent] holds verbatim copies of the three line parsers as they were
   when each kept its own splitter: the script parser (blanks: space, tab,
   CR), and the wire request parser and the scripted driver's parser
   (blanks: space and tab, after dropping one trailing CR). Both wire
   copies are instantiated twice: with their own blanks, and with CR
   added — the one deliberate change of the shared splitter. Random lines
   over verbs, blanks, '#' and payload bytes must parse identically under
   the shared splitter, except that a CR before a line's last byte is now
   a blank on the wire too, that a fact payload now arrives trimmed as
   its validator read it, and that a driver's [connect] name is now its
   first word. *)

module Script = Tecore.Script
module Protocol = Serve.Protocol
module Driver = Serve.Driver

module Parent = struct
  module Script_line = struct
    open Tecore.Script

    let is_space c = c = ' ' || c = '\t' || c = '\r'

    let skip_spaces line i =
      let n = String.length line in
      let rec go i = if i < n && is_space line.[i] then go (i + 1) else i in
      go i

    let word_end line i =
      let n = String.length line in
      let rec go i =
        if i < n && not (is_space line.[i]) then go (i + 1) else i
      in
      go i

    let rstrip line =
      let n = String.length line in
      let rec go n = if n > 0 && is_space line.[n - 1] then go (n - 1) else n in
      String.sub line 0 (go n)

    let check_fact ~path ~line ~col0 payload =
      match
        Kg.Nquads.parse_string ~namespace:(Kg.Namespace.create ()) payload
      with
      | Error e ->
          let column =
            match e.Kg.Nquads.column with
            | Some c -> col0 + c
            | None -> col0 + 1
          in
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

    let check_rule ~path ~line ~col0 payload =
      match
        Rulelang.Parser.parse_string ~namespace:(Kg.Namespace.create ())
          payload
      with
      | Error e ->
          Error
            { path; line; column = col0 + 1; message = e.Rulelang.Parser.message }
      | Ok [] ->
          Error
            {
              path;
              line;
              column = col0 + 1;
              message = "expected a rule declaration";
            }
      | Ok _ -> Ok ()

    let parse_command ~path ~line raw =
      let raw = rstrip raw in
      let ks = skip_spaces raw 0 in
      if ks >= String.length raw || raw.[ks] = '#' then Ok None
      else
        let ke = word_end raw ks in
        let keyword = String.sub raw ks (ke - ks) in
        let ps = skip_spaces raw ke in
        let payload = String.sub raw ps (String.length raw - ps) in
        let col_kw = ks + 1 in
        let col_arg = ps + 1 in
        let err column message = Error { path; line; column; message } in
        let require_arg what k =
          if payload = "" then err col_arg (keyword ^ ": missing " ^ what)
          else k payload
        in
        let cmd c = Ok (Some { cmd = c; line; column = col_kw }) in
        match keyword with
        | "load" -> require_arg "file path" (fun p -> cmd (Load p))
        | "assert" ->
            require_arg "fact" (fun p ->
                match check_fact ~path ~line ~col0:ps p with
                | Ok () -> cmd (Assert_ p)
                | Error e -> Error e)
        | "retract" ->
            require_arg "fact" (fun p ->
                match check_fact ~path ~line ~col0:ps p with
                | Ok () -> cmd (Retract p)
                | Error e -> Error e)
        | "rule" | "constraint" ->
            let decl = String.sub raw ks (String.length raw - ks) in
            require_arg "rule declaration" (fun _ ->
                match check_rule ~path ~line ~col0:ks decl with
                | Ok () -> cmd (Rule decl)
                | Error e -> Error e)
        | "unrule" -> require_arg "rule name" (fun p -> cmd (Unrule p))
        | "resolve" -> (
            match payload with
            | "" | "incremental" -> cmd (Resolve `Incremental)
            | "fresh" -> cmd (Resolve `Fresh)
            | other ->
                err col_arg
                  (Printf.sprintf
                     "resolve: expected \"fresh\" or \"incremental\", got %S"
                     other))
        | "diff" ->
            if payload = "" then cmd Diff
            else err col_arg "diff takes no argument"
        | other -> err col_kw (Printf.sprintf "unknown command %S" other)
  end

  module Wire (B : sig
    val is_space : char -> bool
  end) =
  struct
    open Serve.Protocol
    open Serve.Driver

    let is_space = B.is_space

    let strip_cr s =
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

    let split_keyword s =
      let n = String.length s in
      let rec skip i = if i < n && is_space s.[i] then skip (i + 1) else i in
      let ks = skip 0 in
      let rec word i =
        if i < n && not (is_space s.[i]) then word (i + 1) else i
      in
      let ke = word ks in
      let ps = skip ke in
      (String.sub s ks (ke - ks), String.sub s ps (n - ps), ks + 1, ps + 1)

    let rstrip s =
      let n = String.length s in
      let rec go n = if n > 0 && is_space s.[n - 1] then go (n - 1) else n in
      String.sub s 0 (go n)

    let parse_request ~line raw =
      let raw = strip_cr raw in
      let keyword, payload, col_kw, col_arg = split_keyword raw in
      let payload = rstrip payload in
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
          match Script_line.parse_command ~path:"wire" ~line raw with
          | Ok (Some c) -> Ok (Cmd c.Tecore.Script.cmd)
          | Ok None -> err Parse col_kw "empty request"
          | Error e ->
              err Parse e.Tecore.Script.column e.Tecore.Script.message)

    let driver_line ~path ~line raw =
      let raw = strip_cr raw in
      let keyword, payload, col_kw, col_arg = split_keyword raw in
      let err column message =
        Error { Tecore.Script.path; line; column; message }
      in
      let name_and_rest what k =
        let name, rest, _, _ = split_keyword payload in
        if name = "" then err col_arg (what ^ ": missing client name")
        else k name rest
      in
      if keyword = "" || keyword.[0] = '#' then Ok None
      else
        match keyword with
        | "connect" ->
            if payload = "" then err col_arg "connect: missing client name"
            else Ok (Some (Connect payload))
        | "send" ->
            name_and_rest "send" (fun name rest ->
                if rest = "" then err col_arg "send: missing request"
                else Ok (Some (Send (name, rest))))
        | "post" ->
            name_and_rest "post" (fun name rest ->
                if rest = "" then err col_arg "post: missing request"
                else Ok (Some (Post (name, rest))))
        | "recv" ->
            name_and_rest "recv" (fun name rest ->
                if rest = "" then Ok (Some (Recv name))
                else err col_arg "recv takes only a client name")
        | "close" ->
            name_and_rest "close" (fun name rest ->
                if rest = "" then Ok (Some (Close name))
                else err col_arg "close takes only a client name")
        | "await-busy" ->
            if payload = "" then Ok (Some Await_busy)
            else err col_arg "await-busy takes no argument"
        | "await-idle" ->
            if payload = "" then Ok (Some Await_idle)
            else err col_arg "await-idle takes no argument"
        | other ->
            err col_kw (Printf.sprintf "unknown driver command %S" other)
  end

  module Wire_lf = Wire (struct
    let is_space c = c = ' ' || c = '\t'
  end)

  module Wire_cr = Wire (struct
    let is_space c = c = ' ' || c = '\t' || c = '\r'
  end)
end

(* ------------------------------------------------------------------ *)
(* Line generator                                                      *)
(* ------------------------------------------------------------------ *)

let verbs =
  [
    "load"; "assert"; "retract"; "rule"; "constraint"; "unrule"; "resolve";
    "diff"; "hello"; "open"; "stat"; "result"; "metrics"; "ping"; "quit";
    "shutdown"; "trace"; "tail"; "connect"; "send"; "post"; "recv"; "close";
    "await-busy"; "await-idle"; "bogus";
  ]

let blanks = [ " "; "  "; "\t"; "\r"; " \t"; "\r\r" ]

let payloads =
  [
    "ex:a"; "ex:p"; "c1"; "x"; "[1,2]"; "[1,2"; "0.5"; "."; "\"str\"";
    "\"open"; "<http://a/b>"; "<open"; "on"; "off"; "3"; "-1"; "0";
    "fresh"; "incremental"; "#"; "# note"; "r1 1.5:"; "ex:p(x)@t"; "=>";
    "ex:q(x)@t"; "ex:a ex:p ex:b [1,2] ."; "r 1: ex:p(x)@t => ex:q(x)@t .";
    "ping"; "hello"; "trace"; "é";
  ]

let gen_line =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (3, oneofl verbs);
        (4, oneofl blanks);
        (5, oneofl payloads);
        (1, map (String.make 1) (char_range '\000' '\255'));
      ]
  in
  let* lead = frequency [ (3, return ""); (1, oneofl blanks) ] in
  let* verb = frequency [ (6, oneofl verbs); (1, oneofl payloads) ] in
  let* rest = list_size (int_range 0 6) piece in
  let* tail = frequency [ (3, return ""); (1, oneofl blanks) ] in
  return (String.concat "" ((lead :: verb :: rest) @ [ tail ]))

let arb_line = QCheck.make ~print:(Printf.sprintf "%S") gen_line

(* The parent carried a fact payload as written; it now carries the
   trimmed bytes its validator read, so execution parses those. *)
let trim_fact = function
  | Script.Assert_ p -> Script.Assert_ (String.trim p)
  | Script.Retract p -> Script.Retract (String.trim p)
  | c -> c

let trim_located = function
  | Ok (Some (c : Script.located)) -> Ok (Some { c with cmd = trim_fact c.cmd })
  | r -> r

let trim_request = function
  | Ok (Protocol.Cmd c) -> Ok (Protocol.Cmd (trim_fact c))
  | r -> r

(* The parent took everything after [connect] as the client name; the
   name is now the first word, parsed as [send], [recv] and [close]
   parse theirs, so trailing blanks are dropped and a second word is
   refused at the argument's column. *)
let connect_first_word s = function
  | Ok (Some (Driver.Connect payload)) -> (
      let _, _, _, col_arg = Script.split_keyword (Protocol.strip_cr s) in
      match Script.split_keyword payload with
      | name, "", _, _ -> Ok (Some (Driver.Connect name))
      | _ ->
          Error
            {
              Script.path = "d";
              line = 5;
              column = col_arg;
              message = "connect takes only a client name";
            })
  | r -> r

(* A CR that is not the line's last byte: the one place the shared
   splitter parts from the wire's old blanks. *)
let inner_cr s =
  match String.index_opt s '\r' with
  | Some i -> i < String.length s - 1
  | None -> false

let qcheck_script_line =
  QCheck.Test.make ~name:"script lines parse as before" ~count:3000 arb_line
    (fun s ->
      Script.parse_command ~path:"p" ~line:3 s
      = trim_located (Parent.Script_line.parse_command ~path:"p" ~line:3 s))

let qcheck_wire_request =
  QCheck.Test.make ~name:"wire requests parse as before, CR now a blank"
    ~count:3000 arb_line (fun s ->
      let now = Protocol.parse_request ~line:4 s in
      now = trim_request (Parent.Wire_cr.parse_request ~line:4 s)
      && (inner_cr s
         || now = trim_request (Parent.Wire_lf.parse_request ~line:4 s)))

let qcheck_driver_line =
  QCheck.Test.make ~name:"driver lines parse as before, CR now a blank"
    ~count:3000 arb_line (fun s ->
      let now = Driver.parse_line ~path:"d" ~line:5 s in
      now = connect_first_word s (Parent.Wire_cr.driver_line ~path:"d" ~line:5 s)
      && (inner_cr s
         || now
            = connect_first_word s
                (Parent.Wire_lf.driver_line ~path:"d" ~line:5 s)))

(* The connect case, spelled out: a trailing blank no longer joins the
   name, and a second word is refused like [close a b]. *)
let test_connect_name () =
  let parse = Driver.parse_line ~path:"d" ~line:1 in
  Alcotest.(check bool) "trailing blank" true
    (parse "connect a " = Ok (Some (Driver.Connect "a")));
  Alcotest.(check bool) "second word" true
    (parse "connect a b"
    = Error
        {
          Script.path = "d";
          line = 1;
          column = 9;
          message = "connect takes only a client name";
        });
  Alcotest.(check bool) "close agrees" true
    (match parse "close a b" with
    | Error { Script.message; _ } -> message = "close takes only a client name"
    | Ok _ -> false)

(* The CR case, spelled out: server verbs now parse through inner CRs. *)
let test_cr_is_a_blank () =
  let check line ~before ~now =
    Alcotest.(check bool)
      (Printf.sprintf "parent result of %S" line)
      true
      (Parent.Wire_lf.parse_request ~line:1 line = before);
    Alcotest.(check bool)
      (Printf.sprintf "result of %S" line)
      true
      (Protocol.parse_request ~line:1 line = now)
  in
  let parse column message =
    Error { Protocol.kind = Protocol.Parse; line = 1; column; message }
  in
  check "trace on\r\r"
    ~before:(parse 7 "trace: expected on, off or a period N")
    ~now:(Ok (Protocol.Trace 1));
  check "\rping" ~before:(parse 2 "unknown command \"ping\"")
    ~now:(Ok Protocol.Ping);
  check "ping\r\r" ~before:(parse 1 "unknown command \"ping\"")
    ~now:(Ok Protocol.Ping);
  check "hello a\r\r" ~before:(Ok (Protocol.Hello "a\r"))
    ~now:(Ok (Protocol.Hello "a"));
  (* A trailing CRLF terminator was always dropped. *)
  check "ping\r" ~before:(Ok Protocol.Ping) ~now:(Ok Protocol.Ping)

(* An empty argument's column: one past the trimmed line in scripts, one
   past the raw line (less its CR terminator) for server verbs. *)
let test_empty_argument_columns () =
  let col = function
    | Error { Protocol.column; _ } -> column
    | Ok _ -> Alcotest.fail "expected an error"
  in
  Alcotest.(check int) "load" 5 (col (Protocol.parse_request ~line:1 "load \t"));
  Alcotest.(check int)
    "hello" 9
    (col (Protocol.parse_request ~line:1 "hello  \t"));
  Alcotest.(check int)
    "hello CRLF" 7
    (col (Protocol.parse_request ~line:1 "hello \r"))

let test_split_keyword () =
  Alcotest.(check (pair (pair string string) (pair int int)))
    "keyword and payload"
    (("send", "a ping \t"), (2, 8))
    (let k, p, kc, pc = Script.split_keyword "\tsend \ra ping \t" in
     ((k, p), (kc, pc)));
  Alcotest.(check (pair (pair string string) (pair int int)))
    "no payload"
    (("diff", ""), (3, 10))
    (let k, p, kc, pc = Script.split_keyword " \rdiff \t\r" in
     ((k, p), (kc, pc)));
  Alcotest.(check string) "trim_end" " a\tb" (Script.trim_end " a\tb \t\r")

(* A form feed before a fact: columns now count it, as on any raw line. *)
let test_form_feed_fact_column () =
  match Script.parse_command ~path:"p" ~line:1 "assert \012\"x" with
  | Error e -> Alcotest.(check int) "column of the quote" 9 e.Script.column
  | Ok _ -> Alcotest.fail "unterminated string accepted"

(* A form feed at either end of a fact: validation trims it, and the
   command carries the trimmed payload, so the fact also runs. *)
let test_form_feed_fact_runs () =
  let fact = "ex:a ex:p ex:b [1,2] ." in
  let line = "assert \012" ^ fact ^ "\012" in
  (match Script.parse_command ~path:"p" ~line:1 line with
  | Ok (Some { Script.cmd = Script.Assert_ p; _ }) ->
      Alcotest.(check string) "payload" fact p
  | _ -> Alcotest.fail "expected an assert");
  (match Protocol.parse_request ~line:1 line with
  | Ok (Protocol.Cmd (Script.Assert_ p)) ->
      Alcotest.(check string) "wire payload" fact p
  | _ -> Alcotest.fail "expected a wire assert");
  let session = Tecore.Session.create () in
  Tecore.Session.load_graph session (Kg.Graph.create ());
  let text = line ^ "\nretract " ^ fact ^ "\012\n" in
  match Script.parse_string ~path:"ff.script" text with
  | Error e -> Alcotest.failf "parse: %s" e.Script.message
  | Ok script -> (
      let buf = Buffer.create 64 in
      let fmt = Format.formatter_of_buffer buf in
      match Script.run ~session fmt script with
      | Error e -> Alcotest.failf "run: %s" e.Script.message
      | Ok () ->
          Format.pp_print_flush fmt ();
          Alcotest.(check string)
            "transcript"
            "asserted (http://example.org/a, http://example.org/p, \
             http://example.org/b, [1,2])\n\
             retracted (http://example.org/a, http://example.org/p, \
             http://example.org/b, [1,2])\n"
            (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* The one executor                                                    *)
(* ------------------------------------------------------------------ *)

let apply_ok session cmd =
  match Script.apply session cmd with
  | Ok o -> o
  | Error msg -> Alcotest.failf "apply failed: %s" msg

let apply_err session cmd =
  match Script.apply session cmd with
  | Ok _ -> Alcotest.fail "apply succeeded"
  | Error msg -> msg

let test_apply_edits () =
  let s = Tecore.Session.create () in
  Alcotest.(check string)
    "assert without a graph" "no knowledge graph selected"
    (apply_err s (Script.Assert_ "ex:a ex:p ex:b [1,2] ."));
  Tecore.Session.load_graph s (Kg.Graph.create ());
  let fact = "<http://a/s> <http://a/p> <http://a/o> [1,2] 0.5 ." in
  (match apply_ok s (Script.Assert_ fact) with
  | Script.Asserted q ->
      Alcotest.(check string)
        "asserted" "(http://a/s, http://a/p, http://a/o, [1,2]) 0.5"
        (Kg.Quad.to_string q)
  | _ -> Alcotest.fail "expected Asserted");
  Alcotest.(check string)
    "malformed payload" "unterminated string literal (column 3)"
    (apply_err s (Script.Assert_ "a \"b"));
  (match apply_ok s (Script.Retract fact) with
  | Script.Retracted _ -> ()
  | _ -> Alcotest.fail "expected Retracted");
  Alcotest.(check string)
    "retract absent"
    "fact not in graph: (http://a/s, http://a/p, http://a/o, [1,2]) 0.5"
    (apply_err s (Script.Retract fact));
  (match
     apply_ok s (Script.Rule "rule r1 1.0: ex:p(x, y)@t => ex:q(x, y)@t .")
   with
  | Script.Added [ r ] -> Alcotest.(check string) "added" "r1" r.Logic.Rule.name
  | _ -> Alcotest.fail "expected one added rule");
  (match apply_ok s (Script.Unrule "r1") with
  | Script.Removed name -> Alcotest.(check string) "removed" "r1" name
  | _ -> Alcotest.fail "expected Removed");
  Alcotest.(check string)
    "unrule unknown" "no rule named \"r1\""
    (apply_err s (Script.Unrule "r1"));
  Alcotest.check_raises "resolve is not an edit"
    (Invalid_argument "Script.apply: resolve and diff are not edits")
    (fun () -> ignore (Script.apply s Script.Diff))

let test_apply_load_dir () =
  let s = Tecore.Session.create () in
  (match Script.apply ~dir:"../data" s (Script.Load "ranieri.tq") with
  | Ok (Script.Loaded { path; facts }) ->
      Alcotest.(check string) "path as given" "ranieri.tq" path;
      Alcotest.(check int) "facts" 6 facts
  | Ok _ -> Alcotest.fail "expected Loaded"
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string)
    "missing file" "no-such.tq: No such file or directory"
    (apply_err s (Script.Load "no-such.tq"))

let () =
  Alcotest.run "edit_language"
    [
      ( "splitter",
        [
          Alcotest.test_case "split_keyword" `Quick test_split_keyword;
          Alcotest.test_case "CR is a blank" `Quick test_cr_is_a_blank;
          Alcotest.test_case "connect client name" `Quick test_connect_name;
          Alcotest.test_case "empty argument columns" `Quick
            test_empty_argument_columns;
          Alcotest.test_case "form feed fact column" `Quick
            test_form_feed_fact_column;
          Alcotest.test_case "form feed fact runs" `Quick
            test_form_feed_fact_runs;
          QCheck_alcotest.to_alcotest qcheck_script_line;
          QCheck_alcotest.to_alcotest qcheck_wire_request;
          QCheck_alcotest.to_alcotest qcheck_driver_line;
        ] );
      ( "apply",
        [
          Alcotest.test_case "edits" `Quick test_apply_edits;
          Alcotest.test_case "load against a directory" `Quick
            test_apply_load_dir;
        ] );
    ]
