(* Fuzzing the parsers: arbitrary input must produce an [Error], never an
   escaping exception, and valid printed output must re-parse. *)

module Prng = Prelude.Prng

let random_string rng len charset =
  String.init (Prng.int rng (len + 1)) (fun _ -> Prng.pick rng charset)

let printable =
  Array.init 95 (fun i -> Char.chr (32 + i))

let rule_ish =
  [|
    'a'; 'b'; 'x'; 'y'; 'z'; 't'; '('; ')'; ','; '@'; '^'; '='; '>'; '<';
    '!'; '.'; ':'; ' '; '['; ']'; '1'; '2'; '-'; '+'; '*'; '"'; '\'';
    'r'; 'u'; 'l'; 'e'; 'c'; 'o'; 'n'; 's'; 'i'; '\n';
  |]

let test_rule_parser_total () =
  let rng = Prng.create 101 in
  for _ = 1 to 3_000 do
    let src = random_string rng 60 rule_ish in
    match Rulelang.Parser.parse_string src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "parser raised %s on %S" (Printexc.to_string e) src)
  done

let test_rule_parser_printable_total () =
  let rng = Prng.create 102 in
  for _ = 1 to 2_000 do
    let src = random_string rng 80 printable in
    match Rulelang.Parser.parse_string src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "parser raised %s on %S" (Printexc.to_string e) src)
  done

let test_query_parser_total () =
  let rng = Prng.create 103 in
  for _ = 1 to 2_000 do
    let src = random_string rng 50 rule_ish in
    match Rulelang.Parser.parse_query src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "query parser raised %s on %S" (Printexc.to_string e)
             src)
  done

let test_nquads_parser_total () =
  let rng = Prng.create 104 in
  for _ = 1 to 3_000 do
    let src = random_string rng 80 printable in
    match Kg.Nquads.parse_string src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "nquads raised %s on %S" (Printexc.to_string e) src)
  done

let test_interval_of_string_total () =
  let rng = Prng.create 106 in
  for _ = 1 to 3_000 do
    let src = random_string rng 20 printable in
    match Kg.Interval.of_string src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "interval raised %s on %S" (Printexc.to_string e) src)
  done

(* Structured fuzz: generate random *valid* programs, print, re-parse. *)
let random_program rng =
  let predicate () =
    Prng.pick rng [| "p"; "q"; "coach"; "playsFor"; "worksFor" |]
  in
  let bound_var () = Prng.pick rng [| "x"; "y"; "z" |] in
  let tvar () = Prng.pick rng [| "t"; "t2" |] in
  let atom () =
    (* Heads reuse body-bound variables only, keeping the rule safe. *)
    Printf.sprintf "%s(%s, %s)@%s" (predicate ()) (bound_var ()) (bound_var ())
      (tvar ())
  in
  let cond () =
    match Prng.int rng 3 with
    | 0 -> "y != z"
    | 1 -> Printf.sprintf "intersects(%s, %s)" (tvar ()) (tvar ())
    | _ -> Printf.sprintf "start(%s) < %d" (tvar ()) (Prng.int rng 100)
  in
  let name = Printf.sprintf "r%d" (Prng.int rng 1000) in
  (* The body binds exactly x, y, z, t and t2, so every head and
     condition above is range-restricted. *)
  let body =
    Printf.sprintf "%s(x, y)@t ^ %s(x, z)@t2" (predicate ()) (predicate ())
  in
  let body = if Prng.bool rng then body ^ " ^ " ^ cond () else body in
  if Prng.bool rng then
    Printf.sprintf "constraint %s: %s => disjoint(t, t2) ." name body
  else
    Printf.sprintf "rule %s %.1f: %s => %s ." name
      (0.5 +. Prng.float rng 5.0)
      body (atom ())

let test_valid_programs_roundtrip () =
  let rng = Prng.create 107 in
  for _ = 1 to 500 do
    let src = random_program rng in
    match Rulelang.Parser.parse_string src with
    | Error e ->
        Alcotest.fail
          (Format.asprintf "valid program rejected: %S (%a)" src
             Rulelang.Parser.pp_error e)
    | Ok rules -> (
        let printed = Rulelang.Printer.program_to_string rules in
        match Rulelang.Parser.parse_string printed with
        | Ok rules' ->
            Alcotest.(check int) "same arity" (List.length rules)
              (List.length rules')
        | Error e ->
            Alcotest.fail
              (Format.asprintf "printed program rejected: %S (%a)" printed
                 Rulelang.Parser.pp_error e))
  done

let test_engine_survives_random_small_graphs () =
  (* Random tiny graphs + the c2 constraint: resolution must terminate
     with no hard violations (nothing is certain) on both engines. *)
  let rng = Prng.create 108 in
  let rules =
    match
      Rulelang.Parser.parse_string
        "constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "parse"
  in
  for _ = 1 to 40 do
    let g = Kg.Graph.create () in
    let n = 1 + Prng.int rng 12 in
    for _ = 1 to n do
      let lo = Prng.range rng 2000 2010 in
      let hi = lo + Prng.int rng 5 in
      ignore
        (Kg.Graph.add g
           (Kg.Quad.v
              (Prng.pick rng [| "a"; "b"; "c" |])
              "coach"
              (Kg.Term.iri (Prng.pick rng [| "X"; "Y"; "Z" |]))
              (lo, hi)
              (0.5 +. Prng.float rng 0.45)))
    done;
    List.iter
      (fun engine ->
        let result = Tecore.Engine.resolve ~engine g rules in
        Alcotest.(check int) "resolved" 0
          result.Tecore.Engine.stats.Tecore.Engine.hard_violations)
      [
        Tecore.Engine.Mln Mln.Map_inference.default_options;
        Tecore.Engine.Psl Psl.Npsl.default_options;
      ]
  done

(* ---- edit-script parser (tecore session --script) ----------------- *)

let script_ish =
  [|
    'l'; 'o'; 'a'; 'd'; 's'; 'e'; 'r'; 't'; 'c'; 'u'; 'n'; 'i'; 'v'; 'f';
    'd'; ' '; '\t'; '\n'; '#'; '.'; '<'; '>'; '"'; '['; ']'; ','; '('; ')';
    '1'; '9'; '0'; '@'; ':'; '^'; '='; '!'; '-';
  |]

let test_script_parser_total () =
  let rng = Prng.create 107 in
  for _ = 1 to 3_000 do
    let src = random_string rng 120 script_ish in
    match Tecore.Script.parse_string ~path:"<fuzz>" src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "script parser raised %s on %S"
             (Printexc.to_string e) src)
  done

let test_script_parser_printable_total () =
  let rng = Prng.create 108 in
  for _ = 1 to 2_000 do
    let src = random_string rng 120 printable in
    match Tecore.Script.parse_string ~path:"<fuzz>" src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "script parser raised %s on %S"
             (Printexc.to_string e) src)
  done

(* Mutate a valid script — truncate it mid-line, splice random bytes —
   and require a located error or a clean parse, never an exception and
   never a zero/negative location. *)
let test_script_mutations_located () =
  let valid =
    "load data.tq\n\
     rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .\n\
     assert <p> <playsFor> <T> [2001,2003] 0.8 .\n\
     retract <p> <playsFor> <T> [2001,2003] 0.8 .\n\
     resolve incremental\n\
     unrule f1\n\
     resolve fresh\n\
     diff\n"
  in
  let rng = Prng.create 109 in
  for _ = 1 to 2_000 do
    let cut = Prng.int rng (String.length valid + 1) in
    let src =
      String.sub valid 0 cut ^ random_string rng 20 printable
    in
    match Tecore.Script.parse_string ~path:"s.script" src with
    | Ok _ -> ()
    | Error e ->
        if e.Tecore.Script.line < 1 || e.Tecore.Script.column < 1 then
          Alcotest.fail
            (Printf.sprintf "non-positive location %d:%d on %S"
               e.Tecore.Script.line e.Tecore.Script.column src);
        if e.Tecore.Script.path <> "s.script" then
          Alcotest.fail "error lost the script path"
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "script parser raised %s on %S"
             (Printexc.to_string e) src)
  done

(* Targeted rejects: each bad line must be refused at parse time with
   the [path:line:column] convention, before anything executes. *)
let test_script_typed_errors () =
  let expect_error src frag =
    match Tecore.Script.parse_string ~path:"bad.script" src with
    | Ok _ -> Alcotest.failf "parsed %S" src
    | Error e ->
        let msg = Format.asprintf "%a" Tecore.Script.pp_error e in
        let contains needle hay =
          let nn = String.length needle and nh = String.length hay in
          let rec at i =
            i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
          in
          at 0
        in
        if not (contains "bad.script:" msg) then
          Alcotest.failf "no location in %S" msg;
        if not (contains frag msg) then
          Alcotest.failf "expected %S in %S" frag msg
  in
  expect_error "frobnicate x\n" "unknown command";
  expect_error "load\n" "missing file path";
  expect_error "assert\n" "missing fact";
  expect_error "assert <a> <b>\n" "";
  expect_error "retract not a quad\n" "";
  expect_error "rule nonsense here\n" "";
  expect_error "unrule\n" "missing rule name";
  expect_error "resolve sideways\n" "expected \"fresh\" or \"incremental\"";
  expect_error "diff everything\n" "diff takes no argument";
  (* Error line numbers point at the offending line, not line 1. *)
  match
    Tecore.Script.parse_string ~path:"p.script" "diff\ndiff\nbogus cmd\n"
  with
  | Ok _ -> Alcotest.fail "parsed a bogus third line"
  | Error e -> Alcotest.(check int) "line 3" 3 e.Tecore.Script.line

(* Executing a script that retracts an absent fact must halt with a
   located execution error (the parse is fine — the fact just is not in
   the graph). *)
let test_script_retract_absent () =
  let src =
    "assert <p> <playsFor> <T> [2001,2003] 0.8 .\n\
     retract <p> <playsFor> <T> [1900,1901] 0.8 .\n"
  in
  let script =
    match Tecore.Script.parse_string ~path:"r.script" src with
    | Ok s -> s
    | Error e ->
        Alcotest.failf "parse: %s" (Format.asprintf "%a" Tecore.Script.pp_error e)
  in
  let session = Tecore.Session.create () in
  Tecore.Session.load_graph session (Kg.Graph.create ());
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  match Tecore.Script.run ~session fmt script with
  | Ok () -> Alcotest.fail "retract of an absent fact succeeded"
  | Error e ->
      Alcotest.(check int) "line 2" 2 e.Tecore.Script.line;
      Alcotest.(check string) "path" "r.script" e.Tecore.Script.path

(* ------------------------------------------------------------------ *)
(* The wire layer is total                                             *)
(* ------------------------------------------------------------------ *)

(* Random byte mutations of valid protocol frames, against a live
   server: every response must still be a tagged single-line JSON
   object ([ok {...}] or [err {...}] with a [kind]), no exception may
   escape the accept loop, and the connection must stay usable — probed
   with a [ping] after the storm. Mutations substitute printable bytes
   (never a newline), so frames stay frames; a mutation that lands on
   [quit] just closes the connection, which the harness answers by
   reconnecting. *)
let wire_frames =
  [|
    "ping"; "hello fuzz"; "open"; "stat"; "result"; "metrics"; "diff";
    "resolve"; "resolve fresh"; "shutdown";
    "assert ex:A ex:playsFor ex:B [2001,2003] 0.8 .";
    "retract ex:A ex:playsFor ex:B [2001,2003] 0.8 .";
    "rule r1 1.5: ex:playsFor(x, y)@t => ex:worksFor(x, y)@t .";
    "unrule r1";
  |]

let wire_send fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let test_wire_mutations_total () =
  let server = Serve.start (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let rng = Prng.create 401 in
      let conn = ref None in
      let fresh () =
        let fd = Serve.connect server in
        let c = (fd, Unix.in_channel_of_descr fd) in
        conn := Some c;
        c
      in
      let current () = match !conn with Some c -> c | None -> fresh () in
      let reconnect () =
        (match !conn with
        | Some (_, ic) -> close_in_noerr ic
        | None -> ());
        conn := None
      in
      let check_response line =
        let tagged tag =
          let n = String.length tag in
          if String.length line >= n && String.sub line 0 n = tag then
            Some (String.sub line n (String.length line - n))
          else None
        in
        match (tagged "ok ", tagged "err ") with
        | Some body, _ | None, Some body -> (
            match Obs.Json.parse body with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "response is not JSON: %S (%s)" line e)
        | None, None -> Alcotest.failf "untagged response %S" line
      in
      for _ = 1 to 400 do
        let frame = wire_frames.(Prng.int rng (Array.length wire_frames)) in
        let mutated = Bytes.of_string frame in
        for _ = 0 to Prng.int rng 3 do
          if Bytes.length mutated > 0 then
            Bytes.set mutated
              (Prng.int rng (Bytes.length mutated))
              (Prng.pick rng printable)
        done;
        let fd, ic = current () in
        wire_send fd (Bytes.to_string mutated);
        match input_line ic with
        | resp -> check_response resp
        | exception End_of_file -> reconnect ()
      done;
      (* The connection (or a fresh one) still serves typed responses. *)
      let fd, ic = current () in
      wire_send fd "ping";
      (match input_line ic with
      | resp -> Alcotest.(check string) "still alive" "ok {\"pong\":true}" resp
      | exception End_of_file ->
          let fd, ic = fresh () in
          wire_send fd "ping";
          Alcotest.(check string) "still alive" "ok {\"pong\":true}"
            (input_line ic));
      reconnect ())

(* Oversized frames are refused with a typed parse error — and the
   connection stays usable for the next, normal-sized request. The cap
   is exact: a line of [max] bytes is served and one of [max + 1] bytes
   is refused, each arriving in a single write. *)
let test_wire_oversized_line () =
  let max = 4096 in
  let config = { Serve.default_config with Serve.max_line_bytes = max } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let fd = Serve.connect server in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let expect_exceeds what =
            match input_line ic with
            | resp ->
                let contains affix =
                  let n = String.length affix in
                  let rec go i =
                    i + n <= String.length resp
                    && (String.sub resp i n = affix || go (i + 1))
                  in
                  go 0
                in
                Alcotest.(check bool)
                  (what ^ ": typed parse error") true
                  (contains "\"kind\":\"parse\"" && contains "exceeds")
            | exception End_of_file ->
                Alcotest.fail "connection dropped on oversized frame"
          in
          let pong what =
            Alcotest.(check string) what "ok {\"pong\":true}" (input_line ic)
          in
          wire_send fd ("assert " ^ String.make 20_000 'x');
          expect_exceeds "20000 bytes";
          wire_send fd "ping";
          pong "usable after overflow";
          (* Trailing blanks are ignored, so these are pings of an exact
             length. *)
          let ping_of len = "ping" ^ String.make (len - 4) ' ' in
          wire_send fd (ping_of max);
          pong "a line of exactly max bytes is served";
          wire_send fd (ping_of (max + 1));
          expect_exceeds "max + 1 bytes";
          wire_send fd "ping";
          pong "usable after max + 1"))

(* ------------------------------------------------------------------ *)
(* Lane routing: adversarial session ids must always land on a lane    *)
(* ------------------------------------------------------------------ *)

module Faults = Prelude.Deadline.Faults

(* Ids chosen to stress the hash: empty, huge, non-ASCII, invalid
   UTF-8, control bytes, whitespace. *)
let adversarial_ids =
  [
    "";
    " ";
    "plain";
    String.make 65_536 'x';
    "\xc3\xbcber-s\xc3\xa9ssion";
    "\xff\xfe\x80\x80";
    "\x01\x02\x7f";
    "id with spaces and\ttabs";
    "%2Fsessions%2F..%2F..";
  ]

(* [Serve.lane_of_session] is total: every string — plus a pile of
   random byte soup — routes to a valid lane, deterministically; a
   single-lane server routes everything to lane 0. *)
let test_lane_routing_total () =
  let config = { Serve.default_config with Serve.lanes = 4 } in
  let server = Serve.start ~config (`Tcp 0) in
  let single =
    Serve.start ~config:{ Serve.default_config with Serve.lanes = 1 } (`Tcp 0)
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Serve.stop single)
    (fun () ->
      let n = config.Serve.lanes in
      let any_byte = Array.init 256 Char.chr in
      let rng = Prng.create 601 in
      let ids =
        adversarial_ids
        @ List.init 400 (fun _ -> random_string rng 48 any_byte)
      in
      List.iter
        (fun id ->
          let l = Serve.lane_of_session server id in
          if l < 0 || l >= n then
            Alcotest.failf "id %S routed out of range: %d" id l;
          if Serve.lane_of_session server id <> l then
            Alcotest.failf "routing of %S is not deterministic" id;
          if Serve.lane_of_session single id <> 0 then
            Alcotest.failf "single-lane server routed %S off lane 0" id)
        ids;
      (* The hash actually spreads sessions — a constant function would
         pass totality and defeat the point of lanes. *)
      let spread =
        List.sort_uniq compare
          (List.map
             (fun i -> Serve.lane_of_session server (string_of_int i))
             (List.init 32 (fun i -> i)))
      in
      Alcotest.(check bool) "hash spreads across lanes" true
        (List.length spread > 1))

(* The [lane_collide:L] fault point forces every id onto one lane — the
   test hook for deterministic hash collisions. *)
let test_lane_collide_hook () =
  let config = { Serve.default_config with Serve.lanes = 4 } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () ->
      Faults.clear ();
      Serve.stop server)
    (fun () ->
      Faults.configure "lane_collide:6";
      List.iter
        (fun id ->
          Alcotest.(check int)
            (Printf.sprintf "collides %S onto lane 6 mod 4" id)
            2
            (Serve.lane_of_session server id))
        [ "a"; "b"; ""; String.make 1_000 'q' ];
      Faults.clear ();
      Alcotest.(check bool) "hook off: normal routing returns" true
        (Serve.lane_of_session server "a" < 4))

(* Live multi-lane server: adversarial hello ids get typed responses,
   sessions that open really work end to end (the [stat] lane field
   agrees with the routing function), and the accept loop survives it
   all. *)
let test_lane_adversarial_hellos_live () =
  let config = { Serve.default_config with Serve.lanes = 4 } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      (* Whitespace-trimmed and empty ids are refused at parse time
         (covered below); everything else must open a working session. *)
      let wire_safe id =
        (not (String.contains id '\n')) && String.trim id = id
      in
      let ok_fields line resp =
        if String.length resp >= 3 && String.sub resp 0 3 = "ok " then
          match Obs.Json.parse (String.sub resp 3 (String.length resp - 3)) with
          | Ok (Obs.Json.Obj fs) -> fs
          | Ok _ | Error _ ->
              Alcotest.failf "%S: malformed ok body %S" line resp
        else Alcotest.failf "%S: expected ok, got %S" line resp
      in
      List.iter
        (fun id ->
          if wire_safe id && id <> "" then begin
            let fd = Serve.connect server in
            let ic = Unix.in_channel_of_descr fd in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let ok line =
                  wire_send fd line;
                  ok_fields line (input_line ic)
                in
                ignore (ok ("hello " ^ id));
                let sj = ok "stat" in
                (match List.assoc_opt "lane" sj with
                | Some (Obs.Json.Num l) ->
                    Alcotest.(check int)
                      (Printf.sprintf "stat lane agrees for %S" id)
                      (Serve.lane_of_session server id)
                      (int_of_float l)
                | _ ->
                    Alcotest.failf "stat for %S carries no lane field" id);
                ignore (ok "open");
                ignore
                  (ok "assert ex:A ex:playsFor ex:B [2001,2003] 0.8 .");
                ignore (ok "resolve"))
          end)
        adversarial_ids;
      (* Empty id: typed parse error, connection survives. *)
      let fd = Serve.connect server in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          wire_send fd "hello ";
          let resp = input_line ic in
          Alcotest.(check bool)
            "empty id refused, typed" true
            (String.length resp >= 4 && String.sub resp 0 4 = "err ");
          wire_send fd "ping";
          Alcotest.(check string)
            "accept loop alive" "ok {\"pong\":true}" (input_line ic)))

(* Shutdown drains every lane: with all lanes wedged behind a slow
   resolve and one more job queued, the [shutdown] verb answers running
   jobs normally and every still-queued job with a typed
   [shutting_down] error — nothing hangs, nothing is dropped
   silently. *)
let test_shutdown_drains_lanes () =
  let config =
    { Serve.default_config with Serve.lanes = 2; Serve.allow_shutdown = true }
  in
  let server = Serve.start ~config (`Tcp 0) in
  Faults.configure "slow_resolve:400";
  Fun.protect
    ~finally:(fun () ->
      Faults.clear ();
      Serve.stop server)
    (fun () ->
      let find_id prefix lane =
        let rec go i =
          let id = Printf.sprintf "%s%d" prefix i in
          if Serve.lane_of_session server id = lane then id else go (i + 1)
        in
        go 0
      in
      let id_a = find_id "drain-a" 0 in
      let id_a2 = find_id "drain-c" 0 in
      let id_b = find_id "drain-b" 1 in
      let open_session id =
        let fd = Serve.connect server in
        let ic = Unix.in_channel_of_descr fd in
        let ok line =
          wire_send fd line;
          let resp = input_line ic in
          if not (String.length resp >= 3 && String.sub resp 0 3 = "ok ")
          then Alcotest.failf "%s: %S refused: %S" id line resp
        in
        ok ("hello " ^ id);
        ok "open";
        ok "assert ex:A ex:playsFor ex:B [2001,2003] 0.8 .";
        (fd, ic)
      in
      let fd_a, ic_a = open_session id_a in
      let fd_a2, ic_a2 = open_session id_a2 in
      let fd_b, ic_b = open_session id_b in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic_a;
          close_in_noerr ic_a2;
          close_in_noerr ic_b)
        (fun () ->
          (* Wedge lane 0, then queue a second job behind it and a
             third on lane 1, and pull the plug while the slow resolve
             still holds its lane. *)
          wire_send fd_a "resolve";
          let deadline = Unix.gettimeofday () +. 5. in
          while (not (Serve.busy server)) && Unix.gettimeofday () < deadline
          do
            Thread.yield ()
          done;
          Alcotest.(check bool) "lane 0 is wedged" true (Serve.busy server);
          wire_send fd_a2 "resolve";
          wire_send fd_b "resolve";
          let fd_ctl = Serve.connect server in
          let ic_ctl = Unix.in_channel_of_descr fd_ctl in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic_ctl)
            (fun () ->
              wire_send fd_ctl "shutdown";
              let resp = input_line ic_ctl in
              Alcotest.(check bool)
                "shutdown acknowledged" true
                (String.length resp >= 3 && String.sub resp 0 3 = "ok "));
          (* The running job completes normally... *)
          let resp_a = input_line ic_a in
          Alcotest.(check bool)
            "running resolve completed" true
            (String.length resp_a >= 3 && String.sub resp_a 0 3 = "ok ");
          (* ...the job queued behind it is drained with a typed error,
             not dropped. *)
          let resp_a2 = input_line ic_a2 in
          let contains hay affix =
            let n = String.length affix in
            let rec go i =
              i + n <= String.length hay
              && (String.sub hay i n = affix || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool)
            "queued job answered with typed shutting_down" true
            (contains resp_a2 "\"kind\":\"shutting_down\"");
          (* Lane 1's job either ran to completion or was drained —
             either way a typed response, never a hang. *)
          let resp_b = input_line ic_b in
          Alcotest.(check bool)
            "sibling lane drained or served, typed" true
            ((String.length resp_b >= 3 && String.sub resp_b 0 3 = "ok ")
            || contains resp_b "\"kind\":\"shutting_down\"")))

(* ------------------------------------------------------------------ *)
(* Journal files: random damage must never escape typed recovery       *)
(* ------------------------------------------------------------------ *)

(* [Serve.Journal.recover] claims to be a total function of the bytes
   on disk: truncated, bit-flipped, duplicated or garbage-stuffed
   journals must yield a typed status and a consistent (possibly
   shorter) session — never an exception — and a second recovery of the
   same directory must be clean and identical (the self-heal
   converges). Frames are built by hand from the documented format
   (length.be32 ++ crc32.be32 ++ payload ++ '\n') so this fuzz also
   pins the on-disk contract itself. *)

module Journal = Serve.Journal

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let frame payload =
  let b = Buffer.create (String.length payload + 9) in
  let be32 v =
    List.iter
      (fun sh -> Buffer.add_char b (Char.chr ((v lsr sh) land 0xff)))
      [ 24; 16; 8; 0 ]
  in
  be32 (String.length payload);
  be32 (Journal.crc32 payload);
  Buffer.add_string b payload;
  Buffer.add_char b '\n';
  Buffer.contents b

let journal_records =
  "open"
  :: List.init 9 (fun i ->
         Printf.sprintf "assert ex:P%d ex:playsFor ex:T%d [%d,%d] 0.7 ."
           (i mod 4) (i mod 3) (2000 + i) (2001 + i))

let journal_bytes = String.concat "" (List.map frame journal_records)

let write_file path content =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc content)

let session_facts session =
  match Tecore.Session.graph session with
  | Some g -> Kg.Graph.size g
  | None -> 0

let splice data ~at insert = String.sub data 0 at ^ insert
                             ^ String.sub data at (String.length data - at)

let mutate rng data =
  let n = String.length data in
  match Prng.int rng 4 with
  | 0 ->
      (* truncation (torn tail, lost write) *)
      String.sub data 0 (Prng.int rng (n + 1))
  | 1 when n > 0 ->
      (* single bit flip (media corruption) *)
      let b = Bytes.of_string data in
      let i = Prng.int rng n in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)));
      Bytes.to_string b
  | 2 ->
      (* duplicated slice (replayed write, doubled sector) *)
      let a = Prng.int rng (n + 1) in
      let len = Prng.int rng (n - a + 1) in
      splice data ~at:(Prng.int rng (n + 1)) (String.sub data a len)
  | _ ->
      (* interleaved garbage *)
      let garbage =
        String.init
          (1 + Prng.int rng 24)
          (fun _ -> Char.chr (Prng.int rng 256))
      in
      splice data ~at:(Prng.int rng (n + 1)) garbage

(* One damaged-directory round: build a pristine session dir, overwrite
   [victim] with mutated bytes, recover twice. *)
let damage_round rng ~iter ~victim =
  let state_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tecore-fuzz-journal-%d-%d" (Unix.getpid ()) iter)
  in
  rm_rf state_dir;
  Fun.protect
    ~finally:(fun () -> rm_rf state_dir)
    (fun () ->
      Journal.close
        (Journal.create ~state_dir ~fsync:Journal.Never ~compact_every:0 "fz");
      let dir = Journal.session_dir ~state_dir "fz" in
      write_file (Filename.concat dir "journal.0") journal_bytes;
      let target = Filename.concat dir victim in
      let pristine =
        In_channel.with_open_bin target In_channel.input_all
      in
      write_file target (mutate rng pristine);
      let r =
        try
          Journal.recover ~state_dir ~fsync:Journal.Never ~compact_every:0
            "fz"
        with e ->
          Alcotest.failf "iter %d (%s): recovery raised %s" iter victim
            (Printexc.to_string e)
      in
      let facts = session_facts r.Journal.session in
      ignore (Journal.status_name r.Journal.status);
      Journal.close r.Journal.journal;
      (* The first recovery repaired whatever it found: recovering the
         same directory again must be clean and identical. *)
      let r2 =
        try
          Journal.recover ~state_dir ~fsync:Journal.Never ~compact_every:0
            "fz"
        with e ->
          Alcotest.failf "iter %d (%s): second recovery raised %s" iter
            victim (Printexc.to_string e)
      in
      (match r2.Journal.status with
      | Journal.Full -> ()
      | s ->
          Alcotest.failf "iter %d (%s): self-heal did not converge: %s" iter
            victim (Journal.status_name s));
      if session_facts r2.Journal.session <> facts then
        Alcotest.failf "iter %d (%s): facts drifted across self-heal: %d -> %d"
          iter victim facts
          (session_facts r2.Journal.session);
      Journal.close r2.Journal.journal)

let test_journal_damage_total () =
  let rng = Prng.create 501 in
  for iter = 1 to 120 do
    damage_round rng ~iter ~victim:"journal.0"
  done

let test_manifest_damage_total () =
  let rng = Prng.create 502 in
  for iter = 1 to 40 do
    damage_round rng ~iter ~victim:"MANIFEST"
  done

(* ------------------------------------------------------------------ *)
(* Access-log files: rotation under contention, torn tails, damage     *)
(* ------------------------------------------------------------------ *)

module Access_log = Serve.Access_log

let mk_record req =
  {
    Access_log.req;
    ts = 1000.0 +. float_of_int req;
    session = (if req mod 2 = 0 then Some "fz" else None);
    lane = (if req mod 4 = 0 then Some (req mod 3) else None);
    verb = "ping";
    outcome = "ok";
    wall_ms = 0.5;
    phases = [ ("parse", 0.1); ("reply", 0.2) ];
  }

(* Rotation under concurrent writers: a small size bound forces many
   rotations while 4 threads append; with enough rotations kept, every
   record must survive, exactly once, across the live file and the
   rotated generations. *)
let test_access_log_rotation_concurrent () =
  let path = Filename.temp_file "tecore-fuzz-access" ".log" in
  let w = Access_log.open_writer ~path ~max_bytes:2048 ~keep:64 in
  let threads = 4 and per = 50 in
  let ts =
    List.init threads (fun i ->
        Thread.create
          (fun () ->
            for j = 1 to per do
              Access_log.write w (mk_record ((i * 1000) + j))
            done)
          ())
  in
  List.iter Thread.join ts;
  Access_log.close_writer w;
  let files =
    path
    :: List.filter Sys.file_exists
         (List.init 64 (fun k -> Printf.sprintf "%s.%d" path (k + 1)))
  in
  let all =
    List.concat_map
      (fun f ->
        let records, warnings = Access_log.read_file f in
        List.iter
          (fun w ->
            Alcotest.failf "%s: %s" f (Access_log.warning_to_string w))
          warnings;
        records)
      files
  in
  List.iter Sys.remove files;
  Alcotest.(check bool) "rotation happened" true (List.length files > 1);
  Alcotest.(check int)
    "every record survived rotation" (threads * per)
    (List.length all);
  let ids = List.map (fun (r : Access_log.record) -> r.Access_log.req) all in
  Alcotest.(check int)
    "request ids distinct" (threads * per)
    (List.length (List.sort_uniq compare ids))

(* A SIGKILL mid-append leaves a prefix of the final line on disk: the
   reader must return every intact record and skip the tail with a
   typed warning — exactly what the analyzer and [tecore logstat]
   rely on. *)
let test_access_log_torn_tail () =
  let path = Filename.temp_file "tecore-fuzz-access" ".log" in
  let w = Access_log.open_writer ~path ~max_bytes:1_000_000 ~keep:1 in
  for i = 1 to 5 do
    Access_log.write w (mk_record i)
  done;
  Access_log.close_writer w;
  let full = Obs.Json.to_string (Access_log.record_to_json (mk_record 6)) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  let records, warnings = Access_log.read_file path in
  Sys.remove path;
  Alcotest.(check int) "intact records returned" 5 (List.length records);
  match warnings with
  | [ Access_log.Torn_tail { line } ] ->
      Alcotest.(check int) "warning points at the torn line" 6 line
  | ws ->
      Alcotest.failf "expected exactly one torn-tail warning, got [%s]"
        (String.concat "; " (List.map Access_log.warning_to_string ws))

(* Damage before the final line is not a torn tail: the reader reports
   a [Bad_record] with the line number and still returns every other
   record. *)
let test_access_log_mid_file_damage () =
  let path = Filename.temp_file "tecore-fuzz-access" ".log" in
  let line i =
    if i = 3 then "{\"req\":-3,\"garbage"
    else Obs.Json.to_string (Access_log.record_to_json (mk_record i))
  in
  write_file path
    (String.concat "" (List.init 5 (fun i -> line (i + 1) ^ "\n")));
  let records, warnings = Access_log.read_file path in
  Sys.remove path;
  Alcotest.(check int) "other records returned" 4 (List.length records);
  Alcotest.(check (list int))
    "order preserved around the damage" [ 1; 2; 4; 5 ]
    (List.map (fun (r : Access_log.record) -> r.Access_log.req) records);
  match warnings with
  | [ Access_log.Bad_record { line; _ } ] ->
      Alcotest.(check int) "warning points at the damaged line" 3 line
  | ws ->
      Alcotest.failf "expected exactly one bad-record warning, got [%s]"
        (String.concat "; " (List.map Access_log.warning_to_string ws))

(* Random damage totality, journal-style: truncated, bit-flipped,
   duplicated or garbage-stuffed logs must never make the reader raise,
   and every surviving record must satisfy the schema invariants the
   parser promises. *)
let test_access_log_damage_total () =
  let rng = Prng.create 503 in
  let pristine =
    String.concat ""
      (List.init 20 (fun i ->
           Obs.Json.to_string (Access_log.record_to_json (mk_record (i + 1)))
           ^ "\n"))
  in
  for iter = 1 to 200 do
    let path = Filename.temp_file "tecore-fuzz-access" ".log" in
    write_file path (mutate rng pristine);
    let records, _warnings =
      try Access_log.read_file path
      with e ->
        Alcotest.failf "iter %d: reader raised %s" iter (Printexc.to_string e)
    in
    Sys.remove path;
    List.iter
      (fun (r : Access_log.record) ->
        if r.Access_log.req < 1 || r.Access_log.wall_ms < 0.0 then
          Alcotest.failf "iter %d: invalid record survived validation" iter)
      records
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "parsers are total",
        [
          Alcotest.test_case "rule parser (rule-ish)" `Quick
            test_rule_parser_total;
          Alcotest.test_case "rule parser (printable)" `Quick
            test_rule_parser_printable_total;
          Alcotest.test_case "query parser" `Quick test_query_parser_total;
          Alcotest.test_case "nquads parser" `Quick test_nquads_parser_total;
          Alcotest.test_case "interval parser" `Quick
            test_interval_of_string_total;
          Alcotest.test_case "script parser (script-ish)" `Quick
            test_script_parser_total;
          Alcotest.test_case "script parser (printable)" `Quick
            test_script_parser_printable_total;
        ] );
      ( "edit scripts",
        [
          Alcotest.test_case "mutations stay located" `Quick
            test_script_mutations_located;
          Alcotest.test_case "typed parse errors" `Quick
            test_script_typed_errors;
          Alcotest.test_case "retract of absent fact" `Quick
            test_script_retract_absent;
        ] );
      ( "structured",
        [
          Alcotest.test_case "valid programs roundtrip" `Quick
            test_valid_programs_roundtrip;
          Alcotest.test_case "engine survives random graphs" `Slow
            test_engine_survives_random_small_graphs;
        ] );
      ( "wire protocol",
        [
          Alcotest.test_case "mutated frames stay typed" `Quick
            test_wire_mutations_total;
          Alcotest.test_case "oversized frames refused, connection survives"
            `Quick test_wire_oversized_line;
        ] );
      ( "lane routing",
        [
          Alcotest.test_case "adversarial ids always land on a lane" `Quick
            test_lane_routing_total;
          Alcotest.test_case "lane_collide hook forces one lane" `Quick
            test_lane_collide_hook;
          Alcotest.test_case "live multi-lane server survives hostile ids"
            `Quick test_lane_adversarial_hellos_live;
          Alcotest.test_case "shutdown drains every lane, typed" `Quick
            test_shutdown_drains_lanes;
        ] );
      ( "journal files",
        [
          Alcotest.test_case "damaged journals recover, typed" `Quick
            test_journal_damage_total;
          Alcotest.test_case "damaged manifests recover, typed" `Quick
            test_manifest_damage_total;
        ] );
      ( "access-log files",
        [
          Alcotest.test_case "rotation under concurrent writers" `Quick
            test_access_log_rotation_concurrent;
          Alcotest.test_case "torn tail skipped with a typed warning" `Quick
            test_access_log_torn_tail;
          Alcotest.test_case "mid-file damage is a bad record" `Quick
            test_access_log_mid_file_damage;
          Alcotest.test_case "random damage never escapes the reader" `Quick
            test_access_log_damage_total;
        ] );
    ]
