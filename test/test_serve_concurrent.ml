(* Concurrency and isolation for [tecore serve].

   K clients drive K independent sessions through one live server at the
   same time, each with its own deterministic edit script. The whole
   exercise is then replayed sequentially (one client after another)
   against a second server: per-session isolation and determinism mean
   every client's transcript — every response byte, including resolve
   summaries and error locations — must be identical in both runs,
   regardless of how the concurrent run interleaved. A second case pins
   the same property with 4 worker domains in the shared pool.

   The lane-determinism oracle extends the same discipline to the
   multi-lane resolver: pipelined concurrent clients through a --lanes 4
   server must be byte-identical to a sequential replay on --lanes 1,
   across every solver backend — concurrency never changes bytes. A
   head-of-line case proves the lanes do something: a resolve stalled on
   one lane must not delay a sibling lane's session. *)

module Prng = Prelude.Prng
module Engine = Tecore.Engine

let () = Prelude.Deadline.Faults.clear ()

(* ------------------------------------------------------------------ *)
(* Loopback client                                                     *)
(* ------------------------------------------------------------------ *)

type client = { fd : Unix.file_descr; ic : in_channel }

let connect server =
  let fd = Serve.connect server in
  { fd; ic = Unix.in_channel_of_descr fd }

let close client = close_in_noerr client.ic

(* The [serve_sessions_open] gauge of the live exposition. *)
let sessions_open server =
  let prefix = "serve_sessions_open " in
  let n = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l > n && String.sub l 0 n = prefix)
      (String.split_on_char '\n' (Serve.metrics_text server))
  with
  | Some l -> int_of_string (String.sub l n (String.length l - n))
  | None -> Alcotest.fail "no serve_sessions_open gauge"

let post client line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write client.fd b off (n - off))
  in
  go 0

let request client line =
  post client line;
  match input_line client.ic with
  | resp -> resp
  | exception End_of_file ->
      Alcotest.failf "connection closed after %S" line

(* ------------------------------------------------------------------ *)
(* Deterministic per-client scripts                                    *)
(* ------------------------------------------------------------------ *)

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
  let out = ref [] in
  let push l = out := l :: !out in
  push "open";
  push
    "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, z)@t2 ^ y != \
     z => disjoint(t, t2) .";
  for _ = 1 to 4 do
    let f = fact () in
    push ("assert " ^ f);
    live := f :: !live
  done;
  push "resolve";
  for _ = 1 to ops do
    match Prng.int rng 5 with
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
    | _ -> push "resolve"
  done;
  push "resolve";
  push "stat";
  List.rev !out

(* ------------------------------------------------------------------ *)
(* The exercise                                                        *)
(* ------------------------------------------------------------------ *)

(* Run every script against a fresh server and return one transcript per
   client: the request/response lines in order. [concurrent] runs one
   thread per client over simultaneous connections; otherwise the same
   scripts run one client after another. [pipeline] fires a client's
   whole script before reading any response, so responses must come
   back in request order for the transcript to match a replay. *)
let run_exercise ?(engine = Engine.Auto) ?lanes ?(pipeline = false) ~jobs
    ~concurrent scripts =
  let lanes =
    match lanes with Some n -> n | None -> Serve.default_config.Serve.lanes
  in
  let config = { Serve.default_config with Serve.engine; jobs; lanes } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let run_one i script =
        let c = connect server in
        let lines = Printf.sprintf "hello client-%d" i :: script in
        let transcript =
          if pipeline then begin
            List.iter (post c) lines;
            List.map
              (fun line ->
                match input_line c.ic with
                | resp -> resp
                | exception End_of_file ->
                    Alcotest.failf "connection closed before reply to %S" line)
              lines
          end
          else List.map (request c) lines
        in
        close c;
        transcript
      in
      let results =
        if concurrent then begin
          let out = Array.make (List.length scripts) [] in
          let threads =
            List.mapi
              (fun i script ->
                Thread.create (fun () -> out.(i) <- run_one i script) ())
              scripts
          in
          List.iter Thread.join threads;
          Array.to_list out
        end
        else List.mapi run_one scripts
      in
      Alcotest.(check int)
        "one session per client" (List.length scripts)
        (sessions_open server);
      Alcotest.(check int) "nothing shed" 0 (Serve.shed_count server);
      results)

let check_interleaving ~jobs () =
  let scripts = List.init 5 (fun i -> gen_script ~seed:(100 + i) ~ops:8) in
  let concurrent = run_exercise ~jobs ~concurrent:true scripts in
  let sequential = run_exercise ~jobs ~concurrent:false scripts in
  List.iteri
    (fun i (got, want) ->
      List.iteri
        (fun j (g, w) ->
          if g <> w then
            Alcotest.failf
              "client %d diverged at response %d under concurrency:\n\
               concurrent: %s\nsequential: %s"
              i j g w)
        (List.combine got want))
    (List.combine concurrent sequential)

(* ------------------------------------------------------------------ *)
(* Lane-determinism oracle                                             *)
(* ------------------------------------------------------------------ *)

(* The backend matrix of test_serve.ml. *)
let engines =
  let mln = Mln.Map_inference.default_options in
  [
    ("mln-walk-cpi", Engine.Mln mln);
    ("mln-walk", Engine.Mln { mln with Mln.Map_inference.use_cpi = false });
    ( "mln-ilp",
      Engine.Mln
        {
          mln with
          Mln.Map_inference.solver = Mln.Map_inference.Ilp_exact;
          use_cpi = false;
        } );
    ( "mln-bb",
      Engine.Mln
        {
          mln with
          Mln.Map_inference.solver = Mln.Map_inference.Exact_bb;
          use_cpi = false;
        } );
    ("psl", Engine.Psl Psl.Npsl.default_options);
  ]

(* The one deliberate multi-lane response divergence: stat responses
   carry a "lane" field when lanes > 1. Strip it so the oracle can
   demand byte-identity on everything else. *)
let strip_lane_field resp =
  let marker = ",\"lane\":" in
  let mlen = String.length marker in
  let n = String.length resp in
  let rec find i =
    if i + mlen > n then None
    else if String.sub resp i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> resp
  | Some i ->
      let j = ref (i + mlen) in
      while !j < n && resp.[!j] <> '}' && resp.[!j] <> ',' do
        incr j
      done;
      String.sub resp 0 i ^ String.sub resp !j (n - !j)

(* Random wire scripts from K interleaved clients, pipelined through a
   live --lanes 4 server, must be byte-identical (modulo the lane stat
   field) to the same per-client scripts replayed sequentially on
   --lanes 1. Pipelining makes the per-session ordering guarantee load-
   bearing: responses read back in request order ARE the transcript
   that must match the replay. *)
let check_lane_oracle ~engine ~jobs () =
  let scripts = List.init 4 (fun i -> gen_script ~seed:(500 + i) ~ops:6) in
  let multi =
    run_exercise ~engine ~lanes:4 ~pipeline:true ~jobs ~concurrent:true
      scripts
  in
  let single = run_exercise ~engine ~lanes:1 ~jobs ~concurrent:false scripts in
  (* Every script ends with stat; on the 4-lane server that response
     must name the session's lane. *)
  List.iter
    (fun transcript ->
      let stat = List.nth transcript (List.length transcript - 1) in
      if strip_lane_field stat = stat then
        Alcotest.failf "expected a lane field in multi-lane stat %s" stat)
    multi;
  List.iteri
    (fun i (got, want) ->
      List.iteri
        (fun j (g, w) ->
          let g = strip_lane_field g in
          if g <> w then
            Alcotest.failf
              "client %d diverged at response %d across lane counts:\n\
               lanes=4: %s\nlanes=1: %s"
              i j g w)
        (List.combine got want))
    (List.combine multi single)

let check_lane_oracle_all_jobs ~engine () =
  List.iter (fun jobs -> check_lane_oracle ~engine ~jobs ()) [ Some 1; Some 4 ]

(* ------------------------------------------------------------------ *)
(* Head-of-line blocking                                               *)
(* ------------------------------------------------------------------ *)

(* Session A's resolve is stalled by the slow_resolve fault confined to
   A's lane. With 2 lanes, session B (pinned to the other lane) must
   complete its trivial resolve while A is still stalled; with 1 lane —
   A and B necessarily share it — B must wait behind A. Both directions
   are deterministic on a single core: the stall is a fault-injected
   sleep, not a scheduling race. *)
let check_head_of_line ~lanes ~expect_b_first () =
  Prelude.Deadline.Faults.clear ();
  let config = { Serve.default_config with Serve.lanes } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () ->
      Prelude.Deadline.Faults.clear ();
      Serve.stop server)
    (fun () ->
      (* Pick session ids pinned to the lanes the scenario needs: A on
         the stalled lane 0, B on lane 1 when there is one. *)
      let find_id prefix lane =
        let rec go k =
          let id = Printf.sprintf "%s%d" prefix k in
          if Serve.lane_of_session server id = lane then id else go (k + 1)
        in
        go 0
      in
      let id_a = find_id "hol-a-" 0 in
      let id_b = find_id "hol-b-" (min 1 (lanes - 1)) in
      let a = connect server and b = connect server in
      ignore (request a ("hello " ^ id_a));
      ignore (request a "open");
      ignore (request a "assert ex:P1 ex:playsFor ex:T1 [1901,1903] 0.7 .");
      ignore (request b ("hello " ^ id_b));
      ignore (request b "open");
      ignore (request b "assert ex:P2 ex:playsFor ex:T2 [1901,1903] 0.7 .");
      Prelude.Deadline.Faults.configure "slow_resolve:400,slow_resolve_lane:0";
      post a "resolve";
      (* Wait until A's job is actually stalling on its lane so B's
         resolve is submitted strictly after A's. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (Serve.busy server)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.002
      done;
      post b "resolve";
      let t_a = ref 0.0 and t_b = ref 0.0 in
      let read_reply c cell =
        Thread.create
          (fun () ->
            match input_line c.ic with
            | resp ->
                cell := Unix.gettimeofday ();
                if not (String.length resp >= 2 && String.sub resp 0 2 = "ok")
                then Alcotest.failf "expected an ok resolve, got %s" resp
            | exception End_of_file -> Alcotest.fail "connection closed")
          ()
      in
      let ra = read_reply a t_a and rb = read_reply b t_b in
      Thread.join ra;
      Thread.join rb;
      Prelude.Deadline.Faults.clear ();
      if expect_b_first then begin
        if not (!t_b < !t_a) then
          Alcotest.failf
            "2 lanes: B (done %.1f ms late) should beat stalled A (%.1f ms)"
            ((!t_b -. !t_a) *. 1000.) 0.
      end
      else if not (!t_a <= !t_b) then
        Alcotest.failf "1 lane: A should complete before queued B";
      close a;
      close b)

(* Interleaved edits on ONE shared session id still serialize: the final
   stat (facts, rules) must equal what K sequential clients would leave
   behind, whatever the interleaving — each connection's edits are
   applied under the session lock, and counting is order-independent. *)
let test_shared_session () =
  let server = Serve.start (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let k = 4 and per_client = 6 in
      let setup = connect server in
      ignore (request setup "hello shared");
      ignore (request setup "open");
      let threads =
        List.init k (fun i ->
            Thread.create
              (fun () ->
                let c = connect server in
                ignore (request c "hello shared");
                for j = 1 to per_client do
                  let lo = 1900 + (100 * i) + j in
                  ignore
                    (request c
                       (Printf.sprintf
                          "assert ex:P%d ex:playsFor ex:T%d [%d,%d] 0.7 ." i i
                          lo (lo + 1)))
                done;
                close c)
              ())
      in
      List.iter Thread.join threads;
      let stat = request setup "stat" in
      let expected = Printf.sprintf "\"facts\":%d" (k * per_client) in
      let contains affix =
        let n = String.length affix in
        let rec go i =
          i + n <= String.length stat
          && (String.sub stat i n = affix || go (i + 1))
        in
        go 0
      in
      if not (contains expected) then
        Alcotest.failf "expected %s in final stat %s" expected stat;
      Alcotest.(check int) "one shared session" 1 (sessions_open server);
      close setup)

let () =
  Alcotest.run "serve-concurrent"
    [
      ( "isolation",
        [
          Alcotest.test_case "K interleaved clients = sequential replay"
            `Quick
            (check_interleaving ~jobs:None);
          Alcotest.test_case "same under 4 worker domains" `Quick
            (check_interleaving ~jobs:(Some 4));
          Alcotest.test_case "interleaved edits on one shared session"
            `Quick test_shared_session;
        ] );
      ( "lane oracle",
        List.map
          (fun (name, engine) ->
            Alcotest.test_case
              (Printf.sprintf "lanes 4 = lanes 1 replay (%s, jobs 1 and 4)"
                 name)
              `Quick
              (check_lane_oracle_all_jobs ~engine))
          engines );
      ( "head of line",
        [
          Alcotest.test_case "2 lanes: stalled A does not block B" `Quick
            (check_head_of_line ~lanes:2 ~expect_b_first:true);
          Alcotest.test_case "1 lane: B queues behind stalled A" `Quick
            (check_head_of_line ~lanes:1 ~expect_b_first:false);
        ] );
    ]
