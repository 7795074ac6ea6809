(* Differential protocol oracle for [tecore serve].

   The contract under test: a session driven over the wire — requests
   through a live loopback server, edits and resolves multiplexed by the
   daemon — is observationally identical to the same command sequence
   applied directly to a {!Tecore.Session}. Random edit scripts are sent
   through both paths; after every resolve the server's summary fields
   (objective, cache outcome, status) and the full [result] resolution
   payload must match the local oracle byte for byte, for every solver
   backend. A second suite pins the warm path: repeated 1-fact edits
   must keep hitting the incremental caches (replay/hit), never falling
   back to a fresh run. *)

module Engine = Tecore.Engine
module Session = Tecore.Session
module Prng = Prelude.Prng

(* This suite owns the fault registry: differential identity is a
   fault-free property (the CI sweep re-runs everything under
   TECORE_FAULTS; an injected slowdown or crash would legitimately make
   the two paths diverge). *)
let () = Prelude.Deadline.Faults.clear ()

(* ------------------------------------------------------------------ *)
(* Loopback client                                                     *)
(* ------------------------------------------------------------------ *)

type client = { fd : Unix.file_descr; ic : in_channel }

let connect server =
  let fd = Serve.connect server in
  { fd; ic = Unix.in_channel_of_descr fd }

let close client = close_in_noerr client.ic

let send client line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write client.fd b off (n - off))
  in
  go 0

let request client line =
  send client line;
  match input_line client.ic with
  | resp -> resp
  | exception End_of_file ->
      Alcotest.failf "connection closed after %S" line

(* Split a response line into its tag and parsed JSON body. *)
let parse_response resp =
  let body tag =
    let n = String.length tag in
    if String.length resp >= n && String.sub resp 0 n = tag then
      Some (String.sub resp n (String.length resp - n))
    else None
  in
  let json s =
    match Obs.Json.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "unparseable response %S: %s" resp e
  in
  match (body "ok ", body "err ") with
  | Some s, _ -> `Ok (json s)
  | None, Some s -> `Err (json s)
  | None, None -> Alcotest.failf "untagged response %S" resp

let fields = function
  | Obs.Json.Obj fs -> fs
  | j -> Alcotest.failf "expected an object, got %s" (Obs.Json.to_string j)

let str_field j name =
  match List.assoc_opt name (fields j) with
  | Some (Obs.Json.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S in %s" name
           (Obs.Json.to_string j)

let num_field j name =
  match List.assoc_opt name (fields j) with
  | Some (Obs.Json.Num n) -> n
  | _ -> Alcotest.failf "missing number field %S in %s" name
           (Obs.Json.to_string j)

let expect_ok line resp =
  match parse_response resp with
  | `Ok j -> j
  | `Err j ->
      Alcotest.failf "request %S failed: %s" line (Obs.Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Random wire scripts                                                 *)
(* ------------------------------------------------------------------ *)

(* Each generated fact is unique (the serial number feeds the interval),
   so asserts never collide and retract bookkeeping stays exact. *)
let gen_script ~seed ~ops =
  let rng = Prng.create seed in
  let serial = ref 0 in
  let fact () =
    incr serial;
    let lo = 1900 + !serial in
    Printf.sprintf "ex:P%d ex:playsFor ex:T%d [%d,%d] 0.%d ."
      (Prng.int rng 4) (Prng.int rng 3) lo
      (lo + 1 + Prng.int rng 4)
      (5 + Prng.int rng 5)
  in
  let live = ref [] in
  let rule_on = ref false in
  let out = ref [] in
  let push l = out := l :: !out in
  push "open";
  push
    "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, z)@t2 ^ y != \
     z => disjoint(t, t2) .";
  for _ = 1 to 5 do
    let f = fact () in
    push ("assert " ^ f);
    live := f :: !live
  done;
  push "resolve";
  for _ = 1 to ops do
    match Prng.int rng 6 with
    | 0 | 1 ->
        let f = fact () in
        push ("assert " ^ f);
        live := f :: !live
    | 2 -> (
        match !live with
        | [] -> ()
        | l ->
            let f = List.nth l (Prng.int rng (List.length l)) in
            push ("retract " ^ f);
            live := List.filter (fun x -> x <> f) l)
    | 3 ->
        if !rule_on then begin
          push "unrule t_worksfor";
          rule_on := false
        end
        else begin
          push
            "rule t_worksfor 1.5: ex:playsFor(x, y)@t => ex:worksFor(x, y)@t .";
          rule_on := true
        end
    | _ -> push "resolve"
  done;
  push "resolve";
  List.rev !out

(* ------------------------------------------------------------------ *)
(* The local oracle: the same line applied directly to a Session        *)
(* ------------------------------------------------------------------ *)

let mirror_exec session line =
  if line = "open" then begin
    Session.load_graph session (Kg.Graph.create ());
    Ok ()
  end
  else
    match Tecore.Script.parse_command ~path:"wire" ~line:1 line with
    | Error e -> Error e.Tecore.Script.message
    | Ok None -> Error "empty"
    | Ok (Some located) -> (
        let quad payload k =
          match Kg.Nquads.parse_quad (Session.namespace session) payload with
          | Error m -> Error m
          | Ok q -> k q
        in
        match located.Tecore.Script.cmd with
        | Tecore.Script.Assert_ p ->
            quad p (fun q ->
                Result.map ignore
                  (Result.map_error Session.error_message
                     (Session.assert_fact session q)))
        | Tecore.Script.Retract p ->
            quad p (fun q ->
                Result.map ignore
                  (Result.map_error Session.error_message
                     (Session.retract session q)))
        | Tecore.Script.Rule src ->
            Result.map ignore (Session.add_rules session src)
        | Tecore.Script.Unrule name ->
            if Session.remove_rule session name then Ok ()
            else Error "no such rule"
        | Tecore.Script.Load _ | Tecore.Script.Resolve _ | Tecore.Script.Diff
          ->
            Alcotest.failf "mirror_exec does not handle %S" line)

let resolution_payload session (r : Engine.result) =
  Obs.Json.to_string
    (Tecore.Json_out.of_resolution
       ~namespace:(Session.namespace session)
       r.Engine.resolution)

(* ------------------------------------------------------------------ *)
(* Differential run                                                    *)
(* ------------------------------------------------------------------ *)

let run_differential ~name ~engine ~seed ~ops () =
  let config = { Serve.default_config with Serve.engine } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let c = connect server in
      ignore (expect_ok "hello" (request c ("hello diff-" ^ name)));
      let session = Session.create () in
      let resolves = ref 0 in
      List.iter
        (fun line ->
          let resp = request c line in
          match Tecore.Script.parse_command ~path:"wire" ~line:1 line with
          | Ok (Some { Tecore.Script.cmd = Tecore.Script.Resolve mode; _ })
            -> (
              incr resolves;
              let sj = expect_ok line resp in
              match Session.resolve ~engine ~mode session with
              | Error e ->
                  Alcotest.failf "local resolve failed: %s"
                    (Session.error_message e)
              | Ok r ->
                  let local_objective = r.Engine.stats.Engine.objective in
                  if num_field sj "objective" <> local_objective then
                    Alcotest.failf
                      "objective diverged on %S: server %.17g, local %.17g"
                      line
                      (num_field sj "objective")
                      local_objective;
                  Alcotest.(check string)
                    "status"
                    (Prelude.Deadline.status_name r.Engine.stats.Engine.status)
                    (str_field sj "status");
                  Alcotest.(check string)
                    "cache outcome"
                    (Engine.outcome_name
                       (Option.get (Session.cache_outcome session)))
                    (str_field sj "cache");
                  (* The full resolution payload, byte for byte. *)
                  let rj = expect_ok "result" (request c "result") in
                  let server_payload =
                    match List.assoc_opt "resolution" (fields rj) with
                    | Some j -> Obs.Json.to_string j
                    | None -> Alcotest.fail "result carries no resolution"
                  in
                  Alcotest.(check string)
                    "resolution payload" (resolution_payload session r)
                    server_payload)
          | _ -> (
              let local = mirror_exec session line in
              match (parse_response resp, local) with
              | `Ok _, Ok () -> ()
              | `Err _, Error _ -> ()
              | `Ok _, Error m ->
                  Alcotest.failf "server accepted %S but oracle failed: %s"
                    line m
              | `Err j, Ok () ->
                  Alcotest.failf "server refused %S accepted by oracle: %s"
                    line (Obs.Json.to_string j)))
        (gen_script ~seed ~ops);
      if !resolves < 2 then Alcotest.fail "script exercised < 2 resolves";
      close c)

(* The full backend matrix of test_incremental, over the wire. Instance
   sizes stay tiny so the exact backends finish their search. *)
let engines =
  let mln = Mln.Map_inference.default_options in
  [
    ("mln-walk-cpi", Engine.Mln mln, 16);
    ("mln-walk", Engine.Mln { mln with Mln.Map_inference.use_cpi = false }, 16);
    ( "mln-ilp",
      Engine.Mln
        {
          mln with
          Mln.Map_inference.solver = Mln.Map_inference.Ilp_exact;
          use_cpi = false;
        },
      8 );
    ( "mln-bb",
      Engine.Mln
        {
          mln with
          Mln.Map_inference.solver = Mln.Map_inference.Exact_bb;
          use_cpi = false;
        },
      8 );
    ("psl", Engine.Psl Psl.Npsl.default_options, 16);
  ]

let differential_tests =
  List.concat_map
    (fun (name, engine, ops) ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "server = session (%s, seed %d)" name seed)
            `Quick
            (run_differential ~name ~engine ~seed ~ops))
        [ 11; 42 ])
    engines

(* ------------------------------------------------------------------ *)
(* Warm path                                                           *)
(* ------------------------------------------------------------------ *)

(* Repeated 1-fact edits through the server must ride the incremental
   caches: every post-edit resolve replays the cached grounding
   (replay), every no-edit resolve is a pure hit, and nothing falls back
   to a fresh run. *)
let test_warm_path () =
  let server = Serve.start (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let c = connect server in
      let ok line = expect_ok line (request c line) in
      ignore (ok "hello warm");
      ignore (ok "open");
      ignore
        (ok
           "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, z)@t2 \
            ^ y != z => disjoint(t, t2) .");
      for i = 1 to 4 do
        ignore
          (ok
             (Printf.sprintf "assert ex:P%d ex:playsFor ex:T0 [%d,%d] 0.8 ."
                i (1990 + i) (1995 + i)))
      done;
      ignore (ok "resolve");
      for i = 1 to 8 do
        ignore
          (ok
             (Printf.sprintf "assert ex:P1 ex:playsFor ex:T1 [%d,%d] 0.6 ."
                (2000 + i) (2001 + i)));
        let sj = ok "resolve" in
        Alcotest.(check string)
          "1-fact edit replays the cached grounding" "replay"
          (str_field sj "cache");
        let hj = ok "resolve" in
        Alcotest.(check string)
          "unchanged resolve is a cache hit" "hit" (str_field hj "cache")
      done;
      close c)

(* ------------------------------------------------------------------ *)
(* An evicted session's memory                                         *)
(* ------------------------------------------------------------------ *)

(* Symbols belong to a session's graph, so evicting the session frees
   them: a session whose graph holds about 4 MB of distinct terms is
   resolved, then evicted by a second one, and once its connection is
   closed the live heap falls back to within a quarter of that. *)
let test_evicted_session_freed () =
  let file = Filename.temp_file "evicted" ".tq" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "@prefix ex: <http://example.org/> .\n";
      for i = 1 to 2000 do
        Printf.fprintf oc "ex:%s%d ex:playsFor ex:T%d [1990,1995] 0.8 .\n"
          (String.make 2000 'p') i (i mod 2)
      done);
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let config = { Serve.default_config with Serve.max_sessions = Some 1 } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Sys.remove file)
    (fun () ->
      let base = live () in
      let c = connect server in
      List.iter
        (fun line -> ignore (expect_ok line (request c line)))
        [
          "hello big";
          "load " ^ file;
          "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, z)@t2 \
           ^ y != z => disjoint(t, t2) .";
          "resolve";
        ];
      let loaded = live () - base in
      Alcotest.(check bool) "the session holds its terms" true
        (loaded > 2000 * 2000 / 8);
      let d = connect server in
      ignore (expect_ok "hello" (request d "hello small"));
      close c;
      (* The server lets go of the session once the connection thread
         sees the close. *)
      let rec settle tries =
        let held = live () - base in
        if held < loaded / 4 || tries = 0 then held
        else begin
          Unix.sleepf 0.05;
          settle (tries - 1)
        end
      in
      let held = settle 100 in
      if held >= loaded / 4 then
        Alcotest.failf "%d of the session's %d words still live" held loaded;
      close d)

(* ------------------------------------------------------------------ *)
(* Live metrics                                                        *)
(* ------------------------------------------------------------------ *)

let test_metrics_validate () =
  let server = Serve.start (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let c = connect server in
      ignore (expect_ok "ping" (request c "ping"));
      ignore (expect_ok "hello" (request c "hello metrics-probe"));
      let j = expect_ok "metrics" (request c "metrics") in
      let text = str_field j "metrics" in
      (match Obs.Export.validate_metrics text with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid OpenMetrics exposition: %s" e);
      let has_line prefix =
        List.exists
          (fun l ->
            String.length l >= String.length prefix
            && String.sub l 0 (String.length prefix) = prefix)
          (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "sessions gauge" true
        (has_line "serve_sessions_open 1");
      Alcotest.(check bool) "queue depth gauge" true
        (has_line "serve_queue_depth 0");
      Alcotest.(check bool) "requests counter" true
        (has_line "serve_requests_total{outcome=\"ok\"}");
      Alcotest.(check bool) "shed counter" true (has_line "serve_shed_total 0");
      close c)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Every [serve_*] line of the exposition, with the values of the
   wall-clock rows (uptime, phase latencies) replaced by "_". *)
let serve_lines text =
  let starts_with p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         starts_with "serve_" l || starts_with "# TYPE serve_" l)
  |> List.map (fun l ->
         if
           starts_with "serve_uptime_seconds " l
           || starts_with "serve_request_phase_ms" l
         then String.sub l 0 (String.rindex l ' ') ^ " _"
         else l)

let pinned_serve_lines =
  [
    "# TYPE serve_sessions_open gauge";
    "serve_sessions_open 1";
    "# TYPE serve_queue_depth gauge";
    "serve_queue_depth 0";
    "# TYPE serve_lane_depth gauge";
    "serve_lane_depth{lane=\"0\"} 0";
    "serve_lane_depth{lane=\"1\"} 0";
    "# TYPE serve_lane_requests_total counter";
    "serve_lane_requests_total{lane=\"0\"} 2";
    "serve_lane_requests_total{lane=\"1\"} 0";
    "# TYPE serve_requests_total counter";
    "serve_requests_total{outcome=\"ok\"} 10";
    "serve_requests_total{outcome=\"parse\"} 1";
    "serve_requests_total{outcome=\"exec\"} 1";
    "serve_requests_total{outcome=\"rejected\"} 0";
    "serve_requests_total{outcome=\"overloaded\"} 1";
    "serve_requests_total{outcome=\"timed_out\"} 0";
    "serve_requests_total{outcome=\"evicted\"} 1";
    "serve_requests_total{outcome=\"expired\"} 0";
    "serve_requests_total{outcome=\"storage\"} 0";
    "serve_requests_total{outcome=\"shutting_down\"} 0";
    "serve_requests_total{outcome=\"internal\"} 0";
    "# TYPE serve_shed_total counter";
    "serve_shed_total 1";
    "# TYPE serve_sessions_evicted_total counter";
    "serve_sessions_evicted_total 2";
    "# TYPE serve_sessions_expired_total counter";
    "serve_sessions_expired_total 0";
    "# TYPE serve_sessions_recovered_total counter";
    "serve_sessions_recovered_total 1";
    "# TYPE serve_uptime_seconds gauge";
    "serve_uptime_seconds _";
    "# TYPE serve_request_phase_ms summary";
    "serve_request_phase_ms{phase=\"parse\",quantile=\"0.5\"} _";
    "serve_request_phase_ms{phase=\"parse\",quantile=\"0.95\"} _";
    "serve_request_phase_ms_sum{phase=\"parse\"} _";
    "serve_request_phase_ms_count{phase=\"parse\"} _";
    "serve_request_phase_ms{phase=\"queue\",quantile=\"0.5\"} _";
    "serve_request_phase_ms{phase=\"queue\",quantile=\"0.95\"} _";
    "serve_request_phase_ms_sum{phase=\"queue\"} _";
    "serve_request_phase_ms_count{phase=\"queue\"} _";
    "serve_request_phase_ms{phase=\"lock\",quantile=\"0.5\"} _";
    "serve_request_phase_ms{phase=\"lock\",quantile=\"0.95\"} _";
    "serve_request_phase_ms_sum{phase=\"lock\"} _";
    "serve_request_phase_ms_count{phase=\"lock\"} _";
    "serve_request_phase_ms{phase=\"ground\",quantile=\"0.5\"} _";
    "serve_request_phase_ms{phase=\"ground\",quantile=\"0.95\"} _";
    "serve_request_phase_ms_sum{phase=\"ground\"} _";
    "serve_request_phase_ms_count{phase=\"ground\"} _";
    "serve_request_phase_ms{phase=\"solve\",quantile=\"0.5\"} _";
    "serve_request_phase_ms{phase=\"solve\",quantile=\"0.95\"} _";
    "serve_request_phase_ms_sum{phase=\"solve\"} _";
    "serve_request_phase_ms_count{phase=\"solve\"} _";
    "serve_request_phase_ms{phase=\"journal\",quantile=\"0.5\"} _";
    "serve_request_phase_ms{phase=\"journal\",quantile=\"0.95\"} _";
    "serve_request_phase_ms_sum{phase=\"journal\"} _";
    "serve_request_phase_ms_count{phase=\"journal\"} _";
    "serve_request_phase_ms{phase=\"fsync\",quantile=\"0.5\"} _";
    "serve_request_phase_ms{phase=\"fsync\",quantile=\"0.95\"} _";
    "serve_request_phase_ms_sum{phase=\"fsync\"} _";
    "serve_request_phase_ms_count{phase=\"fsync\"} _";
    "serve_request_phase_ms{phase=\"reply\",quantile=\"0.5\"} _";
    "serve_request_phase_ms{phase=\"reply\",quantile=\"0.95\"} _";
    "serve_request_phase_ms_sum{phase=\"reply\"} _";
    "serve_request_phase_ms_count{phase=\"reply\"} _";
    "# TYPE serve_session_requests_total counter";
    "serve_session_requests_total{session=\"pin-a\"} 2";
  ]

(* The server's exposition bytes, pinned line by line on a scripted run
   that touches every family: two lanes, a state dir, one session slot
   (so a second hello evicts and a third recovers), a zero-length queue
   (so a resolve behind a running one is shed), and every request
   traced. *)
let test_metrics_pinned () =
  Prelude.Deadline.Faults.clear ();
  let state_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tecore-serve-pin-%d" (Unix.getpid ()))
  in
  rm_rf state_dir;
  let config =
    {
      Serve.default_config with
      Serve.lanes = 2;
      state_dir = Some state_dir;
      max_sessions = Some 1;
      queue_cap = 0;
      trace_every = 1;
    }
  in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () ->
      Prelude.Deadline.Faults.clear ();
      Serve.stop server;
      rm_rf state_dir)
    (fun () ->
      let a = connect server and b = connect server in
      let kind c line =
        match parse_response (request c line) with
        | `Ok _ -> "ok"
        | `Err j -> str_field j "kind"
      in
      let expect c line k =
        Alcotest.(check string) line k (kind c line)
      in
      expect a "hello pin-a" "ok";
      expect a "open" "ok";
      expect a
        "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, z)@t2 ^ \
         y != z => disjoint(t, t2) ."
        "ok";
      expect a "assert ex:P1 ex:playsFor ex:T1 [2000,2004] 0.9 ." "ok";
      expect a "assert ex:P1 ex:playsFor ex:T2 [2002,2006] 0.8 ." "ok";
      expect a "frobnicate" "parse";
      expect a "unrule no_such_rule" "exec";
      (* A resolve stalled on its lane keeps the queue non-empty, so a
         second resolve is shed. *)
      Prelude.Deadline.Faults.configure "slow_resolve:500";
      send a "resolve";
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (Serve.busy server)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.002
      done;
      expect b "hello pin-a" "ok";
      expect b "resolve" "overloaded";
      ignore (expect_ok "resolve" (input_line a.ic));
      Prelude.Deadline.Faults.clear ();
      expect b "hello pin-b" "ok";
      expect a "stat" "evicted";
      expect a "hello pin-a" "ok";
      expect a "resolve" "ok";
      close a;
      close b;
      (* The lane counters land just after the reply; wait for them. *)
      let rec settle n =
        let lines = serve_lines (Serve.metrics_text server) in
        if n = 0 || lines = pinned_serve_lines then lines
        else begin
          Thread.delay 0.01;
          settle (n - 1)
        end
      in
      Alcotest.(check (list string))
        "serve_* lines" pinned_serve_lines (settle 500))

(* ------------------------------------------------------------------ *)
(* Request tracing and the access log                                  *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_request_ids_and_zero_cost () =
  (* Traced server: every response carries a unique, strictly monotone
     request id, ok and err alike, and hello echoes the start time. *)
  let config = { Serve.default_config with Serve.trace_every = 1 } in
  let before = Unix.gettimeofday () in
  let server = Serve.start ~config (`Tcp 0) in
  let after = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let c = connect server in
      let hj = expect_ok "hello" (request c "hello ids") in
      let started = num_field hj "started" in
      Alcotest.(check bool)
        "hello echoes the server start time" true
        (before <= started && started <= after);
      let last = ref 0 in
      for _ = 1 to 10 do
        let j = expect_ok "ping" (request c "ping") in
        let req = int_of_float (num_field j "req") in
        Alcotest.(check bool)
          (Printf.sprintf "req %d strictly after %d" req !last)
          true (req > !last);
        last := req
      done;
      (match parse_response (request c "bogus !!") with
      | `Err j ->
          Alcotest.(check bool)
            "err responses carry the id too" true
            (num_field j "req" > 0.0)
      | `Ok _ -> Alcotest.fail "bogus request accepted");
      close c);
  (* Zero-cost contract: with tracing off, no response ever mentions a
     request id (byte-identity with pre-tracing servers). *)
  let plain = Serve.start (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop plain)
    (fun () ->
      let c = connect plain in
      List.iter
        (fun line ->
          let resp = request c line in
          Alcotest.(check bool)
            (Printf.sprintf "no req field in %S" resp)
            false
            (contains resp "\"req\":"))
        [ "ping"; "hello plain"; "open"; "stat"; "bogus !!" ];
      close c)

let test_trace_verb_sampling () =
  let server = Serve.start (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let c = connect server in
      (* req 1: tracing starts off. *)
      Alcotest.(check bool)
        "off by default" false
        (contains (request c "ping") "\"req\":");
      (* req 2 sets the period; the deciding happens before execution,
         so the trace request itself is still untraced. *)
      let resp = request c "trace 3" in
      Alcotest.(check bool) "trace 3 accepted" true (contains resp "ok ");
      (* reqs 3..6: ids divisible by 3 are traced. *)
      Alcotest.(check (list bool))
        "every 3rd request traced"
        [ true; false; false; true ]
        (List.map
           (fun _ -> contains (request c "ping") "\"req\":")
           [ (); (); (); () ])
      ;
      ignore (expect_ok "trace off" (request c "trace off"));
      Alcotest.(check bool)
        "off again" false
        (contains (request c "ping") "\"req\":");
      (match parse_response (request c "trace sometimes") with
      | `Err _ -> ()
      | `Ok _ -> Alcotest.fail "malformed trace accepted");
      close c)

let test_tail_verb () =
  let config = { Serve.default_config with Serve.trace_every = 1 } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let c = connect server in
      ignore (expect_ok "hello" (request c "hello tail"));
      for _ = 1 to 5 do
        ignore (expect_ok "ping" (request c "ping"))
      done;
      let j = expect_ok "tail 3" (request c "tail 3") in
      let reqs =
        match List.assoc_opt "requests" (fields j) with
        | Some (Obs.Json.Arr rs) -> rs
        | _ -> Alcotest.fail "tail carries no requests array"
      in
      Alcotest.(check int) "tail bounded" 3 (List.length reqs);
      (* Chronological, with the schema fields present. *)
      let ids = List.map (fun r -> num_field r "req") reqs in
      Alcotest.(check bool)
        "tail ids ascending" true
        (List.sort compare ids = ids);
      List.iter
        (fun r ->
          Alcotest.(check string) "verb" "ping" (str_field r "verb");
          Alcotest.(check string) "outcome" "ok" (str_field r "outcome");
          Alcotest.(check bool) "wall_ms present" true
            (num_field r "wall_ms" >= 0.0))
        reqs;
      close c)

(* The tentpole's acceptance loop: a traced workload's access-log
   records have phase sums within tolerance of the request wall time,
   and the offline analyzer reproduces the live summary quantiles
   byte-for-byte. *)
let test_access_log_analyzer_matches_live () =
  let log = Filename.temp_file "tecore_access" ".log" in
  let config =
    {
      Serve.default_config with
      Serve.access_log = Some log;
      trace_every = 1;
    }
  in
  let server = Serve.start ~config (`Tcp 0) in
  let metrics =
    Fun.protect
      ~finally:(fun () -> Serve.stop server)
      (fun () ->
        let c = connect server in
        let ok line = expect_ok line (request c line) in
        ignore (ok "hello analyzer");
        ignore (ok "open");
        ignore
          (ok
             "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, \
              z)@t2 ^ y != z => disjoint(t, t2) .");
        for i = 1 to 6 do
          ignore
            (ok
               (Printf.sprintf
                  "assert ex:P%d ex:playsFor ex:T0 [%d,%d] 0.8 ." i
                  (1990 + i) (1995 + i)))
        done;
        ignore (ok "resolve");
        ignore (ok "assert ex:P1 ex:playsFor ex:T1 [2010,2011] 0.6 .");
        ignore (ok "resolve");
        close c;
        (* Stop first: joins the connection thread (so the final record
           is emitted) and flushes the access log. The live summaries
           survive stop. *)
        Serve.stop server;
        Serve.metrics_text server)
  in
  let records, warnings = Serve.Access_log.read_file log in
  Sys.remove log;
  Alcotest.(check int) "no reader warnings" 0 (List.length warnings);
  Alcotest.(check int)
    "tail ring and log agree"
    (List.length (Serve.recent_records server))
    (List.length records);
  List.iter
    (fun (r : Serve.Access_log.record) ->
      let sum =
        List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0
          r.Serve.Access_log.phases
      in
      Alcotest.(check bool)
        (Printf.sprintf "req %d: phase sum %.3f within wall %.3f"
           r.Serve.Access_log.req sum r.Serve.Access_log.wall_ms)
        true
        (sum <= (r.Serve.Access_log.wall_ms *. 1.05) +. 1.0))
    records;
  (* The resolve must attribute time to ground and solve. *)
  let resolve_phases =
    List.concat_map
      (fun (r : Serve.Access_log.record) ->
        if r.Serve.Access_log.verb = "resolve" then
          List.map fst r.Serve.Access_log.phases
        else [])
      records
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p ^ " attributed on resolve") true
        (List.mem p resolve_phases))
    [ "ground"; "solve" ];
  (* Live summary quantiles = analyzer quantiles, byte for byte: both
     sides are Obs.Json renderings of Obs.Histogram.quantile over
     the same record set. *)
  let s = Serve.Access_log.stats records in
  let metric_lines = String.split_on_char '\n' metrics in
  let live_value phase q =
    let prefix =
      Printf.sprintf "serve_request_phase_ms{phase=\"%s\",quantile=\"%s\"} "
        phase q
    in
    let n = String.length prefix in
    match
      List.find_opt
        (fun l -> String.length l > n && String.sub l 0 n = prefix)
        metric_lines
    with
    | Some l -> String.sub l n (String.length l - n)
    | None -> Alcotest.failf "no %s p%s row in metrics" phase q
  in
  Alcotest.(check bool)
    "analyzer saw phases" true
    (s.Serve.Access_log.phase_hists <> []);
  List.iter
    (fun (phase, h) ->
      List.iter
        (fun (qs, q) ->
          Alcotest.(check string)
            (Printf.sprintf "%s p%s: live = offline" phase qs)
            (Obs.Json.to_string (Obs.Json.Num (Obs.Histogram.quantile h q)))
            (live_value phase qs))
        [ ("0.5", 0.5); ("0.95", 0.95) ])
    s.Serve.Access_log.phase_hists;
  (* Per-session counters made it into the exposition. *)
  Alcotest.(check bool)
    "per-session counter exported" true
    (List.exists
       (fun l ->
         contains l "serve_session_requests_total{session=\"analyzer\"}")
       metric_lines)

(* The phases a traced request reports, by request: a durable edit has
   [journal], plus [fsync] when the policy synced it; a resolve that ran
   the engine has [ground] and [solve], a cache hit has neither. Every
   phase is in the taxonomy and the phases fit in the wall time. *)
let test_request_phases () =
  let phases_of ~fsync script =
    let state_dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tecore-serve-phases-%d" (Unix.getpid ()))
    in
    rm_rf state_dir;
    let config =
      {
        Serve.default_config with
        Serve.state_dir = Some state_dir;
        fsync;
        trace_every = 1;
      }
    in
    let server = Serve.start ~config (`Tcp 0) in
    Fun.protect
      ~finally:(fun () ->
        Serve.stop server;
        rm_rf state_dir)
      (fun () ->
        let c = connect server in
        List.iter (fun line -> ignore (expect_ok line (request c line))) script;
        close c;
        (* Stop first: the last record lands after its reply. *)
        Serve.stop server;
        let records = Serve.recent_records server in
        Alcotest.(check int) "one record per request" (List.length script)
          (List.length records);
        List.map
          (fun (r : Serve.Access_log.record) ->
            let phases = r.Serve.Access_log.phases in
            List.iter
              (fun (p, _) ->
                Alcotest.(check bool)
                  (p ^ " is in the taxonomy") true
                  (List.mem p Serve.Access_log.phase_names))
              phases;
            let sum = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. phases in
            Alcotest.(check bool)
              (Printf.sprintf "req %d: phases %.3f ms within wall %.3f ms"
                 r.Serve.Access_log.req sum r.Serve.Access_log.wall_ms)
              true
              (sum <= r.Serve.Access_log.wall_ms);
            List.map fst phases)
          records)
  in
  let has phases names = List.for_all (fun p -> List.mem p phases) names in
  let lacks phases names =
    List.for_all (fun p -> not (List.mem p phases)) names
  in
  let assert_line = "assert ex:P1 ex:playsFor ex:T1 [2000,2004] 0.9 ." in
  (match
     phases_of ~fsync:Serve.Journal.Always
       [
         "hello phases-always";
         "open";
         "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, z)@t2 ^ \
          y != z => disjoint(t, t2) .";
         assert_line;
         "resolve";
         "resolve";
         "assert ex:P1 ex:playsFor ex:T2 [2002,2006] 0.8 .";
         "resolve";
       ]
   with
  | [ _; _; _; edit; miss; hit; _; replay ] ->
      Alcotest.(check bool) "durable edit: journal and fsync" true
        (has edit [ "journal"; "fsync" ]);
      Alcotest.(check bool) "first resolve: ground and solve" true
        (has miss [ "ground"; "solve" ]);
      Alcotest.(check bool) "cache hit: no ground, no solve" true
        (lacks hit [ "ground"; "solve" ]);
      Alcotest.(check bool) "replay: ground and solve" true
        (has replay [ "ground"; "solve" ])
  | _ -> Alcotest.fail "unexpected record count");
  match
    phases_of ~fsync:Serve.Journal.Never
      [ "hello phases-never"; "open"; assert_line ]
  with
  | [ _; _; edit ] ->
      Alcotest.(check bool) "unsynced edit: journal, no fsync" true
        (has edit [ "journal" ] && lacks edit [ "fsync" ])
  | _ -> Alcotest.fail "unexpected record count"

(* ------------------------------------------------------------------ *)
(* Protocol rendering and the access log's phase helpers.              *)

module Protocol = Serve.Protocol

let test_response_lines () =
  Alcotest.(check string) "ok line, fields in order"
    "ok {\"session\":\"a\",\"facts\":3}"
    (Protocol.ok_line [ ("session", Obs.Json.Str "a"); ("facts", Obs.Json.Num 3.) ]);
  Alcotest.(check string) "err line"
    "err {\"kind\":\"timed_out\",\"line\":4,\"column\":1,\"message\":\"budget \\\"spent\\\"\"}"
    (Protocol.err_line (Protocol.error Protocol.Timed_out ~line:4 "budget \"spent\""));
  Alcotest.(check string) "request id spliced first"
    "ok {\"req\":7,\"pong\":true}"
    (Protocol.with_request_id ~req:7 "ok {\"pong\":true}");
  Alcotest.(check string) "into an empty object" "ok {\"req\":8}"
    (Protocol.with_request_id ~req:8 (Protocol.ok_line []));
  Alcotest.(check string) "no object: unchanged" "ok"
    (Protocol.with_request_id ~req:9 "ok")

(* The access log's [verb]: the request's first keyword, constraints
   reporting as [rule] like the command they parse to. *)
let test_request_verbs () =
  List.iter
    (fun (line, verb) ->
      match Protocol.parse_request ~line:1 line with
      | Ok r -> Alcotest.(check string) line verb (Protocol.request_verb r)
      | Error e -> Alcotest.failf "%S does not parse: %s" line e.Protocol.message)
    [
      ("hello a", "hello");
      ("open", "open");
      ("stat", "stat");
      ("ping", "ping");
      ("trace on", "trace");
      ("tail 3", "tail");
      ("assert a p b [1,2] 0.5 .", "assert");
      ("retract a p b [1,2] .", "retract");
      ("rule f 1: p(x, y)@t => q(x, y)@t .", "rule");
      ("constraint c: p(x, y)@t ^ p(x, z)@u ^ y != z => disjoint(t, u) .", "rule");
      ("unrule f", "unrule");
      ("resolve", "resolve");
      ("diff", "diff");
    ]

(* Per-phase histograms come back in the canonical phase order, not in
   the order the phases were first seen. *)
let test_phase_order () =
  Alcotest.(check (list string)) "taxonomy"
    [ "parse"; "queue"; "lock"; "ground"; "solve"; "journal"; "fsync"; "reply" ]
    Serve.Access_log.phase_names;
  let tbl = Hashtbl.create 8 in
  Serve.Access_log.add_phases tbl [ ("reply", 0.5); ("solve", 4.0) ];
  Serve.Access_log.add_phases tbl [ ("solve", 2.0); ("parse", 0.1) ];
  let ordered = Serve.Access_log.in_phase_order tbl in
  Alcotest.(check (list string)) "canonical order" [ "parse"; "solve"; "reply" ]
    (List.map fst ordered);
  Alcotest.(check (list int)) "observations per phase" [ 1; 2; 1 ]
    (List.map (fun (_, h) -> Obs.Histogram.count h) ordered);
  Alcotest.(check (float 1e-12)) "solve total" 6.0
    (Obs.Histogram.total (List.assoc "solve" ordered))

let () =
  Alcotest.run "serve"
    [
      ("differential oracle", differential_tests);
      ( "warm path",
        [ Alcotest.test_case "1-fact edits stay cached" `Quick test_warm_path ]
      );
      ( "memory",
        [
          Alcotest.test_case "an evicted session's symbols are freed" `Quick
            test_evicted_session_freed;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "live exposition validates" `Quick
            test_metrics_validate;
          Alcotest.test_case "serve exposition bytes pinned" `Quick
            test_metrics_pinned;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "request ids and zero-cost contract" `Quick
            test_request_ids_and_zero_cost;
          Alcotest.test_case "trace verb adjusts sampling" `Quick
            test_trace_verb_sampling;
          Alcotest.test_case "tail returns recent records" `Quick
            test_tail_verb;
          Alcotest.test_case "analyzer matches live summaries" `Quick
            test_access_log_analyzer_matches_live;
          Alcotest.test_case "request phases" `Quick test_request_phases;
          Alcotest.test_case "phases in canonical order" `Quick
            test_phase_order;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "response lines" `Quick test_response_lines;
          Alcotest.test_case "request verbs" `Quick test_request_verbs;
        ] );
    ]
