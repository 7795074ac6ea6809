(* The serve-mixed workload: a real [tecore serve] daemon in a child
   process (an in-process server would share the OCaml runtime lock with
   the client threads), two sessions, and two closed-loop clients on one
   connection each. Client A alternates a one-fact edit and a resolve;
   client B sends sixteen edits, then a resolve, until A is done, so the
   contention A sees stays constant. Each client walks its session's
   facts in a seeded order, so that the resolve times sample many
   components of the graph, not the one an edit happens to touch. *)

open Common

(* ---------------------------------------------------------------- *)
(* The daemon                                                         *)

type daemon = { pid : int; socket : string; mutable reaped : bool }

(* Settings a caller's environment could otherwise slip into the daemon
   or the engine; every workload runs with one job and one lane. *)
let shielded =
  [ "TECORE_JOBS"; "TECORE_LANES"; "TECORE_FAULTS"; "TECORE_TIMEOUT_MS";
    "TECORE_JOIN_PARTITIONS" ]

let shielded_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun k -> String.starts_with ~prefix:(k ^ "=") kv)
              shielded))
  |> Array.of_list

let spawn ~tecore ~dir ~access_log =
  let socket = Filename.concat dir "s.sock" in
  let args =
    [ tecore; "serve"; "--socket"; socket; "--state-dir";
      Filename.concat dir "state"; "--jobs"; "1"; "--lanes"; "1" ]
    @ match access_log with Some f -> [ "--access-log"; f ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process_env tecore (Array.of_list args) (shielded_env ())
          devnull devnull Unix.stderr)
  in
  { pid; socket; reaped = false }

(* SIGTERM asks the daemon for its clean shutdown; one that has not
   exited within ten seconds is killed. Either way it is reaped, once. *)
let stop d =
  if not d.reaped then begin
    d.reaped <- true;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

(* ---------------------------------------------------------------- *)
(* The wire                                                           *)

type conn = { fd : Unix.file_descr; ic : in_channel }

let connect socket =
  let deadline = now () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd }
    | exception (Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) as e)
      ->
        Unix.close fd;
        if now () > deadline then raise e;
        Unix.sleepf 0.01;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

let close c = close_in_noerr c.ic

let request c line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0;
  input_line c.ic

let parse_reply line =
  match String.index_opt line ' ' with
  | Some i when String.sub line 0 i = "ok" -> (
      match Obs.Json.parse (String.sub line (i + 1) (String.length line - i - 1)) with
      | Ok j -> Ok j
      | Error e -> Error ("unparsable reply: " ^ e))
  | _ -> Error line

let field name j = Obs.Json.member name j

let str_field name j =
  match field name j with Some (Obs.Json.Str s) -> Some s | _ -> None

let num_field name j =
  match field name j with Some (Obs.Json.Num x) -> Some x | _ -> None

(* A resolve reply without the fields that legitimately differ between
   an incremental and a fresh resolve of the same state. *)
let strip = function
  | Obs.Json.Obj fs ->
      Obs.Json.Obj
        (List.filter (fun (k, _) -> not (List.mem k [ "mode"; "cache"; "req" ])) fs)
  | j -> j

(* Per-client tallies. Each client thread owns its own. *)
type tally = {
  mutable ops : int;
  mutable fails : string list;
  mutable resolves : float list;
  mutable edits : float list;
  mutable reused : int;  (** resolves answered from the caches *)
  mutable reqs : int list;  (** request ids echoed by traced replies *)
  mutable edit_rtt : (int * float) list;  (** traced edit id -> round trip *)
}

let tally () =
  { ops = 0; fails = []; resolves = []; edits = []; reused = 0; reqs = [];
    edit_rtt = [] }

let send t c line =
  let reply, ms = time (fun () -> request c line) in
  t.ops <- t.ops + 1;
  match parse_reply reply with
  | Ok j ->
      (match num_field "req" j with
      | Some r -> t.reqs <- int_of_float r :: t.reqs
      | None -> ());
      Some (j, ms)
  | Error e ->
      t.fails <- Printf.sprintf "%s: %s" line e :: t.fails;
      None

let resolve t c line =
  match send t c line with
  | None -> None
  | Some (j, ms) ->
      t.resolves <- ms :: t.resolves;
      if str_field "status" j <> Some "completed" || num_field "hard_violations" j <> Some 0.
      then t.fails <- (line ^ ": " ^ Obs.Json.to_string j) :: t.fails;
      (match str_field "cache" j with
      | Some ("replay" | "hit") -> t.reused <- t.reused + 1
      | _ -> ());
      Some j

(* A group of facts edited together: all retracted, then all asserted
   back. *)
type group = { lines : string list; mutable present : bool }

let toggle t c g =
  List.iter
    (fun l ->
      match send t c ((if g.present then "retract " else "assert ") ^ l) with
      | Some (j, ms) -> (
          t.edits <- ms :: t.edits;
          match num_field "req" j with
          | Some r -> t.edit_rtt <- (int_of_float r, ms) :: t.edit_rtt
          | None -> ())
      | None -> ())
    g.lines;
  g.present <- not g.present

(* ---------------------------------------------------------------- *)
(* Sessions                                                           *)

type session = {
  name : string;
  file : string;
  groups : group array;  (** the groups this session's client edits, in turn *)
  mutable next : int;  (** the group being edited *)
  planted : (string, unit) Hashtbl.t;
      (** planted facts, rendered as the server renders removed facts *)
}

(* Retract the current group, or assert it back and move to the next. *)
let edit t c s =
  let g = s.groups.(s.next) in
  toggle t c g;
  if g.present then s.next <- (s.next + 1) mod Array.length s.groups

let rule_lines () =
  List.map
    (fun r ->
      String.map
        (fun ch -> if ch = '\n' then ' ' else ch)
        (Rulelang.Printer.rule_to_string r))
    (Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ())

let make_session ~dir ~seed ~quick ~edits name k =
  let d =
    Datagen.Footballdb.generate ~seed:((2 * seed) + k)
      ~players:(if quick then 40 else 400)
      ~noise_ratio:0.5 ()
  in
  let file = Filename.concat dir (name ^ ".tq") in
  Kg.Nquads.save_file file d.Datagen.Footballdb.graph;
  let ns = Kg.Namespace.create () in
  let loaded =
    match Kg.Nquads.parse_file ~namespace:ns file with
    | Ok g -> g
    | Error e -> failwith (Format.asprintf "%s: %a" file Kg.Nquads.pp_error e)
  in
  let planted = Hashtbl.create 256 in
  List.iter
    (fun id ->
      let q = Tecore.Json_out.of_quad ~namespace:ns (Kg.Graph.find loaded id) in
      match Obs.Json.parse q with
      | Ok j -> Hashtbl.replace planted (Obs.Json.to_string j) ()
      | Error e -> failwith e)
    d.Datagen.Footballdb.planted;
  let facts =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '@' && l.[0] <> '#')
    |> Array.of_list
  in
  let n = Array.length facts in
  let rng = Random.State.make [| seed; k |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = facts.(i) in
    facts.(i) <- facts.(j);
    facts.(j) <- x
  done;
  let groups =
    Array.init (max 1 (n / edits)) (fun gi ->
        { lines = List.init edits (fun i -> facts.(((gi * edits) + i) mod n)); present = true })
  in
  { name; file; groups; next = 0; planted }

(* ---------------------------------------------------------------- *)
(* The run                                                            *)

let expect_ok c line =
  match parse_reply (request c line) with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "set-up request %S: %s" line e)

(* One set-up: generate both sessions' inputs, start a daemon, load
   them, and resolve each once (cold). *)
let setup (o : opts) ~rep ~access_log =
  let dir = Filename.concat o.tmp (Printf.sprintf "daemon%d" rep) in
  mkdir_p dir;
  let sessions =
    [
      make_session ~dir ~seed:o.seed ~quick:o.quick ~edits:1 "a" 0;
      make_session ~dir ~seed:o.seed ~quick:o.quick ~edits:16 "b" 1;
    ]
  in
  let d = spawn ~tecore:o.tecore ~dir ~access_log:(Option.map (Filename.concat dir) access_log) in
  at_exit (fun () -> stop d);
  match
    List.map
      (fun s ->
        let c = connect d.socket in
        List.iter (expect_ok c)
          ((("hello " ^ s.name) :: ("load " ^ s.file) :: rule_lines ()) @ [ "resolve" ]);
        c)
      sessions
  with
  | conns -> (dir, d, List.combine sessions conns)
  | exception e ->
      stop d;
      raise e

(* Both clients for [seconds]: A alternates an edit and a resolve until
   the window closes; B edits sixteen facts and resolves until A is done.
   Each does at least one cycle, counted in its tally. Returns the wall
   time. *)
let mixed ~seconds (ta, tb) pairs =
  let (sa, ca), (sb, cb) =
    match pairs with [ a; b ] -> (a, b) | _ -> invalid_arg "mixed"
  in
  let a_done = Atomic.make false in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let cycle t c s () =
    edit t c s;
    ignore (resolve t c "resolve")
  in
  let a () =
    cycle ta ca sa ();
    while now () < t_end do cycle ta ca sa () done
  in
  let b () =
    cycle tb cb sb ();
    while not (Atomic.get a_done) do cycle tb cb sb () done
  in
  (* Either client failing ends the other's loop too. *)
  let client f t () =
    (try f () with e -> t.fails <- Printexc.to_string e :: t.fails);
    Atomic.set a_done true
  in
  List.iter Thread.join [ Thread.create (client a ta) (); Thread.create (client b tb) () ];
  now () -. t0

(* [mixed] for [seconds], in slices of one second, each after a
   calibration sample, taken while the daemon is idle, that scales the
   slice's times. Returns the wall seconds, and the resolve times and wall
   seconds at the reference host speed. *)
let calibrated cal ~seconds (ta, tb) pairs =
  let t_end = now () +. seconds and wall = ref 0. in
  let scaled = ref [] and scaled_wall = ref 0. in
  let fresh t n =
    let k = List.length t.resolves - n in
    List.filteri (fun i _ -> i < k) t.resolves
  in
  while !wall = 0. || now () < t_end do
    let na = List.length ta.resolves and nb = List.length tb.resolves in
    let (), w, w_scaled =
      Calibration.time cal (fun () ->
          ignore (mixed ~seconds:(Float.min 1. (t_end -. now ())) (ta, tb) pairs))
    in
    wall := !wall +. (w /. 1000.);
    scaled_wall := !scaled_wall +. (w_scaled /. 1000.);
    scaled := List.map (Calibration.at_reference cal) (fresh ta na @ fresh tb nb) @ !scaled
  done;
  (!wall, !scaled, !scaled_wall)

(* How the clients' window was run: timed, with its resolve times and
   wall seconds at the reference host speed, or traced, with the tallies
   of its traced half and the two halves' resolve medians at the
   reference speed. *)
type mode = Timed of float list * float | Traced of tally * tally * float * float

(* The facts a session's last resolve removed, scored against its planted
   noise: (removed facts, removed planted facts, planted facts). *)
let score t (s, c) =
  let removed =
    match send t c "result" with
    | Some (j, _) -> (
        match Option.bind (field "resolution" j) (field "removed") with
        | Some (Obs.Json.Arr items) -> List.map Obs.Json.to_string items
        | _ ->
            t.fails <- ("session " ^ s.name ^ ": no removed facts in result") :: t.fails;
            [])
    | None -> []
  in
  (removed, List.length (List.filter (Hashtbl.mem s.planted) removed), Hashtbl.length s.planted)

(* A session's resolution as it stands: the resolve reply with the digest
   of the facts it removed, and those facts scored against the planted
   noise. Taken on the freshly loaded state, it is the same on every run
   of a seed. After the clients' edits it is not: a re-asserted fact goes
   to the end of the session, and the order of the facts breaks ties
   between equally good resolutions. *)
let snapshot t (s, c) =
  let reply = resolve t c "resolve" in
  let removed, hits, planted = score t (s, c) in
  let fingerprint =
    match Option.map strip reply with
    | Some (Obs.Json.Obj fields) ->
        Obs.Json.Obj
          (fields
          @ [ ( "removed_digest",
                Obs.Json.Str
                  (Digest.to_hex
                     (Digest.string (String.concat "\n" (List.sort compare removed)))) ) ])
    | _ -> Obs.Json.Null
  in
  ((s.name, fingerprint), (hits, List.length removed, planted))

(* Restore every edited fact, then check Incremental ≡ Fresh. *)
let finish t (s, c) =
  let g = s.groups.(s.next) in
  if not g.present then toggle t c g;
  let inc = resolve t c "resolve" in
  let fresh = resolve t c "resolve fresh" in
  match (inc, fresh) with
  | Some i, Some f when strip i <> strip f ->
      t.fails <-
        Printf.sprintf "session %s: incremental %s differs from fresh %s" s.name
          (Obs.Json.to_string i) (Obs.Json.to_string f)
        :: t.fails
  | _ -> ()

let read_access_log path =
  let files =
    List.filter Sys.file_exists
      (List.init 4 (fun i -> if i = 0 then path else Printf.sprintf "%s.%d" path i))
  in
  List.concat_map
    (fun f ->
      let records, warnings = Serve.Access_log.read_file f in
      if warnings <> [] then
        failwith
          (f ^ ": " ^ String.concat "; " (List.map Serve.Access_log.warning_to_string warnings));
      records)
    files

(* Per-layer numbers from the traced half's access-log records, and for
   the results file the phase and wall totals behind them. *)
let layer_metrics (records : Serve.Access_log.record list) traced =
  let phase name (r : Serve.Access_log.record) =
    Option.value (List.assoc_opt name r.phases) ~default:0.
  in
  let phased (r : Serve.Access_log.record) =
    List.fold_left (fun acc (_, ms) -> acc +. ms) 0. r.phases
  in
  let resolves = List.filter (fun (r : Serve.Access_log.record) -> r.verb = "resolve") records in
  let edits =
    List.filter (fun (r : Serve.Access_log.record) -> r.verb = "assert" || r.verb = "retract") records
  in
  let wall = Hashtbl.create 1024 in
  List.iter (fun (r : Serve.Access_log.record) -> Hashtbl.replace wall r.req r.wall_ms) records;
  let wire =
    List.filter_map
      (fun (req, rtt) -> Option.map (fun w -> rtt -. w) (Hashtbl.find_opt wall req))
      (List.concat_map (fun t -> t.edit_rtt) traced)
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. (resolves @ edits) in
  let totals rs =
    Obs.Json.Obj
      (List.map
         (fun name -> (name, num (List.fold_left (fun acc r -> acc +. phase name r) 0. rs)))
         Serve.Access_log.phase_names
      @ [ ("wall", num (List.fold_left (fun acc (r : Serve.Access_log.record) -> acc +. r.wall_ms) 0. rs)) ])
  in
  ( [
    ("serve.queue_ms.p90", Stats.percentile 0.9 (List.map (phase "queue") resolves));
    ("serve.ground_ms.p50", Stats.median (List.map (phase "ground") resolves));
    ("serve.solve_ms.p50", Stats.median (List.map (phase "solve") resolves));
    ("serve.parse_ms.p50", Stats.median (List.map (phase "parse") edits));
    ("serve.journal_ms.p50", Stats.median (List.map (phase "journal") edits));
    ("serve.fsync_ms.p50", Stats.median (List.map (phase "fsync") edits));
    ("serve.reply_ms.p50", Stats.median (List.map (phase "reply") edits));
    ("serve.wire_ms.p50", Stats.median wire);
    ( "serve.edit_unphased_ms.p99",
      Stats.percentile 0.99
        (List.map (fun (r : Serve.Access_log.record) -> r.wall_ms -. phased r) edits) );
    ( "serve.unattributed_frac",
      1. -. (sum phased /. sum (fun (r : Serve.Access_log.record) -> r.wall_ms)) );
    ],
    [ ("traced_resolve_totals_ms", totals resolves); ("traced_edit_totals_ms", totals edits) ] )

let run (o : opts) =
  let access_log = if o.trace then Some "access.log" else None in
  let teardown (_, d, pairs) =
    List.iter (fun (_, c) -> close c) pairs;
    stop d
  in
  (* Earlier set-ups only time the cold start; the last one is measured. *)
  let rec setups rep acc =
    let s, ms = time (fun () -> setup o ~rep ~access_log) in
    if rep = 0 || o.trace then (s, ms :: acc)
    else begin
      teardown s;
      setups (rep - 1) (ms :: acc)
    end
  in
  let ((dir, d, pairs) as live), setup_ms = setups 2 [] in
  Fun.protect
    ~finally:(fun () -> teardown live)
    (fun () ->
      let final = tally () in
      let cold = List.map (snapshot final) pairs in
      let ta = tally () and tb = tally () in
      let cal = Calibration.create ~quick:o.quick in
      let wall_s, mode =
        if not o.trace then begin
          let wall, scaled, scaled_wall = calibrated cal ~seconds:o.seconds (ta, tb) pairs in
          (wall, Timed (scaled, scaled_wall))
        end
        else begin
          let _, ca = List.hd pairs in
          ignore (send final ca "trace off");
          let wall, untraced, _ = calibrated cal ~seconds:(o.seconds /. 2.) (ta, tb) pairs in
          ignore (send final ca "trace on");
          let xa = tally () and xb = tally () in
          let _, traced, _ = calibrated cal ~seconds:(o.seconds /. 2.) (xa, xb) pairs in
          (wall, Traced (xa, xb, Stats.median untraced, Stats.median traced))
        end
      in
      (* Read before the final checks, whose full-result rendering is
         not part of the workload. *)
      let rss = peak_rss_mb (string_of_int d.pid) in
      List.iter (finish final) pairs;
      let tallies = final :: ta :: tb :: (match mode with Traced (x, y, _, _) -> [ x; y ] | Timed _ -> []) in
      let resolves = ta.resolves @ tb.resolves and edits = ta.edits @ tb.edits in
      let share a b = float_of_int a /. float_of_int (max 1 b) in
      let seed_quality =
        let hits, removed, planted =
          List.fold_left
            (fun (a, b, c) (_, (x, y, z)) -> (a + x, b + y, c + z))
            (0, 0, 0) cold
        in
        let precision, recall = quality ~hits ~removed ~planted in
        [ ("seed_precision", num precision); ("seed_recall", num recall) ]
      in
      let metrics, traced_detail =
        match mode with
        | Timed (scaled, scaled_wall) ->
            (* Quality is scored on a third session, loaded with the
               inputs of the quality seed. *)
            let precision, recall =
              let q = make_session ~dir ~seed:quality_seed ~quick:o.quick ~edits:1 "q" 0 in
              let c = connect d.socket in
              Fun.protect
                ~finally:(fun () -> close c)
                (fun () ->
                  List.iter (expect_ok c) (("hello q" :: ("load " ^ q.file) :: rule_lines ()));
                  ignore (resolve final c "resolve");
                  let removed, hits, planted = score final (q, c) in
                  quality ~hits ~removed:(List.length removed) ~planted)
            in
            ( [
                ("setup_s", Stats.median setup_ms /. 1000. *. Calibration.scale cal);
                ("resolve_ms.p50", Stats.median scaled);
                ("resolves_per_s", float_of_int (List.length scaled) /. scaled_wall);
                ("peak_rss_mb", rss);
                ("removed_precision", precision);
                ("removed_recall", recall);
              ],
              seed_quality )
        | Traced (xa, xb, untraced_ms, traced_ms) ->
            stop d;
            let ids = Hashtbl.create 1024 in
            List.iter (fun t -> List.iter (fun r -> Hashtbl.replace ids r ()) t.reqs) [ xa; xb ];
            let records =
              List.filter
                (fun (r : Serve.Access_log.record) -> Hashtbl.mem ids r.req)
                (read_access_log (Filename.concat dir "access.log"))
            in
            let traced_resolves = xa.resolves @ xb.resolves in
            let layers, totals = layer_metrics records [ xa; xb ] in
            ( [
              ("serve.resolve_ms.p90", Stats.percentile 0.9 resolves);
              ("serve.edit_ms.p50", Stats.median edits);
              ("serve.edit_ms.p99", Stats.percentile 0.99 edits);
              ("serve.edits_per_s", float_of_int (List.length edits) /. wall_s);
              ( "serve.cache_reuse_frac",
                share (xa.reused + xb.reused) (List.length traced_resolves) );
              ("obs.trace_overhead_frac", (traced_ms /. untraced_ms) -. 1.);
              ]
              @ layers,
              totals @ seed_quality )
      in
      {
        attempted = List.fold_left (fun acc t -> acc + t.ops) 0 tallies;
        failures = List.concat_map (fun t -> List.rev t.fails) tallies;
        metrics;
        fingerprint = Obs.Json.Obj (List.map fst cold);
        detail =
          [
            ("resolve_ms", distribution resolves);
            ("edit_ms", distribution edits);
            ("edits_per_s", num (float_of_int (List.length edits) /. wall_s));
            ("cache_reused", num (share (ta.reused + tb.reused) (List.length resolves)));
            ("client_a_resolve_ms", distribution ta.resolves);
            ("client_b_resolve_ms", distribution tb.resolves);
            ("setup_ms", Obs.Json.Arr (List.map num setup_ms));
            ("calibration_ms", distribution cal.Calibration.samples);
          ]
          @ traced_detail;
      })
