(* Durability tests for the write-ahead journal behind
   [tecore serve --state-dir] (lib/serve/journal.ml).

   Coverage: frame/codec units, append/recover round-trips, snapshot
   compaction, torn-tail truncation at EVERY byte boundary of a real
   journal, typed unrecoverable damage (manifest and snapshot), serve
   restart recovery, idle-TTL parking with transparent re-hello, and a
   SIGKILL crash oracle: the real CLI daemon is forked with a
   [journal_torn] fault injected into its environment, killed -9 while
   it stalls mid-frame, and the recovered session must resolve
   byte-identically to an uninterrupted reference session holding
   exactly the acked edit prefix — for every solver backend. *)

module Engine = Tecore.Engine
module Session = Tecore.Session
module Journal = Serve.Journal
module Prng = Prelude.Prng

(* This suite owns the fault registry: the crash oracle injects
   [journal_torn] into the child daemon's environment explicitly; the
   parent process must stay fault-free even under the CI fault sweep. *)
let () = Prelude.Deadline.Faults.clear ()

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                  *)
(* ------------------------------------------------------------------ *)

let dir_serial = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let with_state_dir name f =
  incr dir_serial;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tecore-journal-%s-%d-%d" name (Unix.getpid ())
         !dir_serial)
  in
  rm_rf d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc content)

let facts session =
  match Session.graph session with
  | Some g -> Kg.Graph.size g
  | None -> 0

let check_status name expected status =
  Alcotest.(check string) name expected (Journal.status_name status)

(* ------------------------------------------------------------------ *)
(* Shared edit lines                                                   *)
(* ------------------------------------------------------------------ *)

let constraint_line =
  "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, z)@t2 ^ y != z \
   => disjoint(t, t2) ."

let assert_line i =
  Printf.sprintf "assert ex:P%d ex:playsFor ex:T%d [%d,%d] 0.%d ." (i mod 4)
    (i mod 3) (1900 + i)
    (1901 + i)
    (5 + (i mod 5))

(* ------------------------------------------------------------------ *)
(* Units: CRC, id codec, fsync policy, replay                          *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  Alcotest.(check int) "empty string" 0 (Journal.crc32 "");
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Journal.crc32 "123456789");
  Alcotest.(check bool) "one-bit difference detected" true
    (Journal.crc32 "assert a" <> Journal.crc32 "assert b")

let test_id_codec () =
  List.iter
    (fun id ->
      Alcotest.(check (option string))
        (Printf.sprintf "roundtrip %S" id)
        (Some id)
        (Journal.decode_id (Journal.encode_id id)))
    [ "alice"; "A-z_09"; "weird id/with:chars"; "pct%40"; "\xc3\xbcber"; "" ];
  Alcotest.(check string)
    "plain ids are their own encoding" "a_B-9" (Journal.encode_id "a_B-9");
  Alcotest.(check (option string)) "bad hex" None (Journal.decode_id "%zz");
  Alcotest.(check (option string))
    "truncated escape" None (Journal.decode_id "abc%4");
  Alcotest.(check (option string))
    "raw specials refused" None
    (Journal.decode_id "a b")

let test_fsync_policy () =
  let ok name s expected =
    match Journal.fsync_policy_of_string s with
    | Ok p -> Alcotest.(check bool) name true (p = expected)
    | Error e -> Alcotest.failf "%s: unexpected error %s" name e
  in
  ok "always" "always" Journal.Always;
  ok "case-folded" "NEVER" Journal.Never;
  ok "every n" " 8 " (Journal.Every 8);
  List.iter
    (fun s ->
      match Journal.fsync_policy_of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid policy %S" s
      | Error _ -> ())
    [ "0"; "-2"; "banana"; "" ];
  Alcotest.(check string) "name always" "always"
    (Journal.fsync_policy_name Journal.Always);
  Alcotest.(check string) "name never" "never"
    (Journal.fsync_policy_name Journal.Never);
  Alcotest.(check string) "name every" "8"
    (Journal.fsync_policy_name (Journal.Every 8))

let test_replay_line () =
  let s = Session.create () in
  let ok line payload =
    match Journal.replay_line s ~line payload with
    | Ok () -> ()
    | Error m -> Alcotest.failf "replay %S failed: %s" payload m
  in
  ok 1 "open";
  ok 2 "@prefix foaf: <http://xmlns.com/foaf/0.1/> .";
  ok 3 constraint_line;
  ok 4 (assert_line 1);
  ok 5 (assert_line 2);
  Alcotest.(check int) "facts applied" 2 (facts s);
  ok 6 ("retract " ^ String.sub (assert_line 2) 7
          (String.length (assert_line 2) - 7));
  Alcotest.(check int) "retract applied" 1 (facts s);
  ok 7 "rule t_works 1.5: ex:playsFor(x, y)@t => ex:worksFor(x, y)@t .";
  Alcotest.(check int) "rules applied" 2 (List.length (Session.rules s));
  ok 8 "unrule t_works";
  Alcotest.(check int) "unrule applied" 1 (List.length (Session.rules s));
  (match Journal.replay_line s ~line:9 "assert not a quad" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "garbage payload replayed");
  match Journal.replay_line s ~line:10 "unrule no_such" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unrule of absent rule replayed"

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

let recover_full name ~state_dir ~fsync ~compact_every id =
  let r = Journal.recover ~state_dir ~fsync ~compact_every id in
  check_status name "full" r.Journal.status;
  r

let test_roundtrip_full () =
  with_state_dir "roundtrip" (fun state_dir ->
      let edits =
        "open" :: constraint_line :: List.init 3 (fun i -> assert_line (i + 1))
      in
      let j =
        Journal.create ~state_dir ~fsync:Journal.Always ~compact_every:0
          "alice"
      in
      List.iter (Journal.append j) edits;
      Alcotest.(check int) "record counter" 5
        (Journal.records_since_snapshot j);
      Alcotest.(check int) "append counter" 5 (Journal.appends j);
      Journal.close j;
      Journal.close j (* idempotent *);
      Alcotest.(check (list string))
        "listing" [ "alice" ]
        (Journal.list_sessions ~state_dir);
      let r =
        recover_full "clean tail" ~state_dir ~fsync:Journal.Always
          ~compact_every:0 "alice"
      in
      Alcotest.(check int) "facts recovered" 3 (facts r.Journal.session);
      Alcotest.(check int) "rules recovered" 1
        (List.length (Session.rules r.Journal.session));
      Alcotest.(check int) "tail counter restored" 5
        (Journal.records_since_snapshot r.Journal.journal);
      (* The recovered handle stays appendable. *)
      Journal.append r.Journal.journal (assert_line 4);
      Journal.close r.Journal.journal;
      let r2 =
        recover_full "after re-append" ~state_dir ~fsync:Journal.Always
          ~compact_every:0 "alice"
      in
      Alcotest.(check int) "fourth fact recovered" 4 (facts r2.Journal.session);
      Journal.close r2.Journal.journal)

let test_missing_dir_listing () =
  with_state_dir "empty" (fun state_dir ->
      Alcotest.(check (list string))
        "missing state dir lists nothing" []
        (Journal.list_sessions ~state_dir))

let session_files ~state_dir id =
  Sys.readdir (Journal.session_dir ~state_dir id)
  |> Array.to_list |> List.sort compare

let test_compaction () =
  with_state_dir "compact" (fun state_dir ->
      let session = Session.create () in
      let j =
        Journal.create ~state_dir ~fsync:Journal.Always ~compact_every:4
          "carol"
      in
      let edits =
        "open" :: constraint_line :: List.init 6 (fun i -> assert_line (i + 1))
      in
      let compactions = ref 0 in
      List.iteri
        (fun i line ->
          (match Journal.replay_line session ~line:(i + 1) line with
          | Ok () -> ()
          | Error m -> Alcotest.failf "mirror replay %S: %s" line m);
          Journal.append j line;
          if Journal.maybe_compact j (fun () -> Session.dump_state session)
          then incr compactions)
        edits;
      Alcotest.(check int) "size-triggered compactions" 2 !compactions;
      Alcotest.(check int) "tail counter reset" 0
        (Journal.records_since_snapshot j);
      Journal.close j;
      (* Exactly one generation's files survive. *)
      Alcotest.(check (list string))
        "old generations deleted"
        [ "MANIFEST"; "journal.2"; "snapshot.2" ]
        (session_files ~state_dir "carol");
      let r =
        recover_full "compacted" ~state_dir ~fsync:Journal.Always
          ~compact_every:4 "carol"
      in
      Alcotest.(check (list string))
        "state dump identical after compaction round-trip"
        (Session.dump_state session)
        (Session.dump_state r.Journal.session);
      Journal.close r.Journal.journal)

let test_explicit_compact () =
  with_state_dir "snapshot" (fun state_dir ->
      let session = Session.create () in
      let j =
        Journal.create ~state_dir ~fsync:Journal.Always ~compact_every:0 "dan"
      in
      let edits = [ "open"; assert_line 1; assert_line 2 ] in
      List.iteri
        (fun i line ->
          (match Journal.replay_line session ~line:(i + 1) line with
          | Ok () -> ()
          | Error m -> Alcotest.failf "mirror replay %S: %s" line m);
          Journal.append j line)
        edits;
      Journal.compact j (Session.dump_state session);
      Alcotest.(check int) "counter reset" 0
        (Journal.records_since_snapshot j);
      (* A post-snapshot record lands in the new generation. *)
      Journal.append j (assert_line 3);
      Journal.close j;
      let r =
        recover_full "snapshot + tail" ~state_dir ~fsync:Journal.Always
          ~compact_every:0 "dan"
      in
      Alcotest.(check int) "snapshot facts + tail fact" 3
        (facts r.Journal.session);
      Alcotest.(check int) "tail counter counts only the tail" 1
        (Journal.records_since_snapshot r.Journal.journal);
      Journal.close r.Journal.journal)

(* ------------------------------------------------------------------ *)
(* Torn tails: truncate a real journal at every byte boundary          *)
(* ------------------------------------------------------------------ *)

let test_torn_tail_every_boundary () =
  with_state_dir "torn" (fun template ->
      let edits = "open" :: List.init 5 (fun i -> assert_line (i + 1)) in
      let j =
        Journal.create ~state_dir:template ~fsync:Journal.Never
          ~compact_every:0 "t"
      in
      List.iter (Journal.append j) edits;
      Journal.close j;
      let tdir = Journal.session_dir ~state_dir:template "t" in
      let manifest = read_file (Filename.concat tdir "MANIFEST") in
      let data = read_file (Filename.concat tdir "journal.0") in
      (* Frame boundaries: length(4) + crc(4) + payload + '\n'. *)
      let boundaries =
        List.rev
          (List.fold_left
             (fun acc e -> (List.hd acc + 8 + String.length e + 1) :: acc)
             [ 0 ] edits)
      in
      Alcotest.(check int)
        "boundaries span the file" (String.length data)
        (List.nth boundaries (List.length edits));
      with_state_dir "torn-cut" (fun scratch ->
          for cut = 0 to String.length data do
            let state_dir =
              Filename.concat scratch (Printf.sprintf "cut%d" cut)
            in
            let dir = Journal.session_dir ~state_dir "t" in
            mkdir_p dir;
            write_file (Filename.concat dir "MANIFEST") manifest;
            write_file
              (Filename.concat dir "journal.0")
              (String.sub data 0 cut);
            let r =
              Journal.recover ~state_dir ~fsync:Journal.Never ~compact_every:0
                "t"
            in
            (* Whole frames before the cut replay; the torn remainder is
               dropped. *)
            let expect_replayed =
              List.fold_left
                (fun acc b -> if b <= cut && b > 0 then acc + 1 else acc)
                0 boundaries
            in
            let tag = Printf.sprintf "cut %d" cut in
            (match r.Journal.status with
            | Journal.Full ->
                Alcotest.(check bool)
                  (tag ^ ": full only at a frame boundary") true
                  (List.mem cut boundaries)
            | Journal.Partial { dropped_bytes; replayed } ->
                Alcotest.(check bool)
                  (tag ^ ": partial only off-boundary") false
                  (List.mem cut boundaries);
                Alcotest.(check int) (tag ^ ": replayed prefix")
                  expect_replayed replayed;
                Alcotest.(check int)
                  (tag ^ ": dropped bytes")
                  (cut - List.nth boundaries expect_replayed)
                  dropped_bytes
            | Journal.Unrecoverable reason ->
                Alcotest.failf "%s: unrecoverable: %s" tag reason);
            (* "open" is record 1; every later record adds one fact. *)
            Alcotest.(check int)
              (tag ^ ": facts")
              (max 0 (expect_replayed - 1))
              (facts r.Journal.session);
            Journal.close r.Journal.journal;
            (* Partial recovery self-heals by compacting: the second
               recovery of the same directory is always clean. *)
            let r2 =
              recover_full (tag ^ ": self-healed") ~state_dir
                ~fsync:Journal.Never ~compact_every:0 "t"
            in
            Alcotest.(check int)
              (tag ^ ": facts stable across self-heal")
              (max 0 (expect_replayed - 1))
              (facts r2.Journal.session);
            Journal.close r2.Journal.journal;
            rm_rf state_dir
          done))

(* ------------------------------------------------------------------ *)
(* Unrecoverable damage                                                *)
(* ------------------------------------------------------------------ *)

(* A journal that opens but cannot be read is an IO failure, not an
   empty tail: reading it as empty would report [Full] and let the next
   compaction drop acknowledged edits. A directory in the journal's
   place opens and then fails to read. *)
let test_unreadable_journal_raises () =
  with_state_dir "unreadable" (fun state_dir ->
      let j =
        Journal.create ~state_dir ~fsync:Journal.Always ~compact_every:0 "ivy"
      in
      List.iter (Journal.append j) [ "open"; assert_line 1 ];
      Journal.close j;
      let path =
        Filename.concat (Journal.session_dir ~state_dir "ivy") "journal.0"
      in
      Sys.remove path;
      Unix.mkdir path 0o755;
      match
        Journal.recover ~state_dir ~fsync:Journal.Always ~compact_every:0 "ivy"
      with
      | exception Sys_error _ -> ()
      | r ->
          Alcotest.failf "unreadable journal recovered with status %s"
            (Journal.status_name r.Journal.status))

let test_unrecoverable_manifest () =
  with_state_dir "badmanifest" (fun state_dir ->
      let j =
        Journal.create ~state_dir ~fsync:Journal.Always ~compact_every:0 "eve"
      in
      List.iter (Journal.append j) [ "open"; assert_line 1; assert_line 2 ];
      Journal.close j;
      let dir = Journal.session_dir ~state_dir "eve" in
      write_file (Filename.concat dir "MANIFEST") "not a manifest\n";
      let r =
        Journal.recover ~state_dir ~fsync:Journal.Always ~compact_every:0
          "eve"
      in
      check_status "typed status" "unrecoverable" r.Journal.status;
      Alcotest.(check int) "empty session" 0 (facts r.Journal.session);
      (* The damaged generation is left in place for inspection... *)
      Alcotest.(check bool) "damaged journal kept" true
        (Sys.file_exists (Filename.concat dir "journal.0"));
      (* ...and the handle is live at a fresh generation. *)
      Journal.append r.Journal.journal "open";
      Journal.append r.Journal.journal (assert_line 7);
      Journal.close r.Journal.journal;
      let r2 =
        recover_full "re-initialised" ~state_dir ~fsync:Journal.Always
          ~compact_every:0 "eve"
      in
      Alcotest.(check int) "post-damage edits recovered" 1
        (facts r2.Journal.session);
      Journal.close r2.Journal.journal)

let test_unrecoverable_snapshot () =
  with_state_dir "badsnapshot" (fun state_dir ->
      let session = Session.create () in
      let j =
        Journal.create ~state_dir ~fsync:Journal.Always ~compact_every:0
          "frank"
      in
      List.iteri
        (fun i line ->
          (match Journal.replay_line session ~line:(i + 1) line with
          | Ok () -> ()
          | Error m -> Alcotest.failf "mirror replay %S: %s" line m);
          Journal.append j line)
        [ "open"; constraint_line; assert_line 1; assert_line 2 ];
      Journal.compact j (Session.dump_state session);
      Journal.close j;
      let dir = Journal.session_dir ~state_dir "frank" in
      let snap_path = Filename.concat dir "snapshot.1" in
      let snap = Bytes.of_string (read_file snap_path) in
      let mid = Bytes.length snap / 2 in
      Bytes.set snap mid (Char.chr (Char.code (Bytes.get snap mid) lxor 0x40));
      write_file snap_path (Bytes.to_string snap);
      let r =
        Journal.recover ~state_dir ~fsync:Journal.Always ~compact_every:0
          "frank"
      in
      check_status "typed status" "unrecoverable" r.Journal.status;
      Alcotest.(check int)
        "half-applied snapshot restarts from empty" 0
        (facts r.Journal.session);
      Alcotest.(check bool) "damaged snapshot kept" true
        (Sys.file_exists snap_path);
      Journal.close r.Journal.journal;
      let r2 =
        recover_full "re-initialised cleanly" ~state_dir ~fsync:Journal.Always
          ~compact_every:0 "frank"
      in
      Journal.close r2.Journal.journal)

(* ------------------------------------------------------------------ *)
(* Loopback client (same shape as test_serve.ml)                       *)
(* ------------------------------------------------------------------ *)

type client = { fd : Unix.file_descr; ic : in_channel }

let connect server =
  let fd = Serve.connect server in
  { fd; ic = Unix.in_channel_of_descr fd }

let close client = close_in_noerr client.ic

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let request client line =
  send_line client.fd line;
  match input_line client.ic with
  | resp -> resp
  | exception End_of_file ->
      Alcotest.failf "connection closed after %S" line

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
  | _ ->
      Alcotest.failf "missing string field %S in %s" name (Obs.Json.to_string j)

let num_field j name =
  match List.assoc_opt name (fields j) with
  | Some (Obs.Json.Num n) -> n
  | _ ->
      Alcotest.failf "missing number field %S in %s" name (Obs.Json.to_string j)

let bool_field j name =
  match List.assoc_opt name (fields j) with
  | Some (Obs.Json.Bool b) -> b
  | _ ->
      Alcotest.failf "missing bool field %S in %s" name (Obs.Json.to_string j)

let expect_ok line resp =
  match parse_response resp with
  | `Ok j -> j
  | `Err j ->
      Alcotest.failf "request %S failed: %s" line (Obs.Json.to_string j)

(* A counter of the server's live exposition. *)
let counter server name =
  let prefix = name ^ " " in
  let n = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l > n && String.sub l 0 n = prefix)
      (String.split_on_char '\n' (Serve.metrics_text server))
  with
  | Some l -> int_of_string (String.sub l n (String.length l - n))
  | None -> Alcotest.failf "no %s in the exposition" name

let expect_err_kind name kind resp =
  match parse_response resp with
  | `Err j -> Alcotest.(check string) name kind (str_field j "kind")
  | `Ok j ->
      Alcotest.failf "%s: expected a %s error, got ok %s" name kind
        (Obs.Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Serve restart recovery                                              *)
(* ------------------------------------------------------------------ *)

let test_serve_restart () =
  with_state_dir "restart" (fun sd ->
      let config = { Serve.default_config with Serve.state_dir = Some sd } in
      let server = Serve.start ~config (`Tcp 0) in
      (let c = connect server in
       let ok line = expect_ok line (request c line) in
       let hj = ok "hello alice" in
       Alcotest.(check bool) "fresh session" true (bool_field hj "created");
       Alcotest.(check string) "no recovery" "none" (str_field hj "recovery");
       ignore (ok "open");
       ignore (ok constraint_line);
       for i = 1 to 3 do
         ignore (ok (assert_line i))
       done;
       let sj = ok "stat" in
       Alcotest.(check bool) "durable" true (bool_field sj "durable");
       Alcotest.(check (float 0.))
         "journal records" 5.
         (num_field sj "journal_records");
       close c;
       Serve.stop server);
      (* Same state dir, fresh daemon: the registry is rebuilt at
         start. *)
      let server = Serve.start ~config (`Tcp 0) in
      Fun.protect
        ~finally:(fun () -> Serve.stop server)
        (fun () ->
          Alcotest.(check int) "startup recovery counted" 1
            (counter server "serve_sessions_recovered_total");
          let c = connect server in
          let ok line = expect_ok line (request c line) in
          let hj = ok "hello alice" in
          Alcotest.(check bool)
            "attached, not created" false (bool_field hj "created");
          Alcotest.(check string) "full recovery" "full"
            (str_field hj "recovery");
          let sj = ok "stat" in
          Alcotest.(check (float 0.)) "facts survive" 3.
            (num_field sj "facts");
          Alcotest.(check (float 0.)) "rules survive" 1.
            (num_field sj "rules");
          ignore (ok "resolve");
          close c))

(* ------------------------------------------------------------------ *)
(* Idle-TTL expiry: parked with a state dir, discarded without         *)
(* ------------------------------------------------------------------ *)

let await_expired server =
  let expired () = counter server "serve_sessions_expired_total" in
  let deadline = Unix.gettimeofday () +. 5. in
  while expired () = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "janitor expired the session" true (expired () > 0)

let test_idle_ttl_parks_durable_sessions () =
  with_state_dir "ttl" (fun sd ->
      let config =
        {
          Serve.default_config with
          Serve.state_dir = Some sd;
          idle_ttl_s = Some 0.05;
        }
      in
      let server = Serve.start ~config (`Tcp 0) in
      Fun.protect
        ~finally:(fun () -> Serve.stop server)
        (fun () ->
          let c = connect server in
          let ok line = expect_ok line (request c line) in
          ignore (ok "hello bob");
          ignore (ok "open");
          ignore (ok (assert_line 1));
          await_expired server;
          (* The stale attachment gets a typed error, not a hang or a
             silent empty session. *)
          expect_err_kind "typed expired error" "expired" (request c "stat");
          (* Re-hello transparently recovers the parked state. *)
          let hj = ok "hello bob" in
          Alcotest.(check string) "parked session recovered" "full"
            (str_field hj "recovery");
          let sj = ok "stat" in
          Alcotest.(check (float 0.)) "parked fact survives" 1.
            (num_field sj "facts");
          close c))

let test_idle_ttl_discards_ephemeral_sessions () =
  let config = { Serve.default_config with Serve.idle_ttl_s = Some 0.05 } in
  let server = Serve.start ~config (`Tcp 0) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let c = connect server in
      let ok line = expect_ok line (request c line) in
      ignore (ok "hello ted");
      ignore (ok "open");
      ignore (ok (assert_line 1));
      await_expired server;
      expect_err_kind "typed expired error" "expired" (request c "stat");
      let hj = ok "hello ted" in
      Alcotest.(check bool)
        "no state dir: expired session is gone" true
        (bool_field hj "created");
      let sj = ok "stat" in
      Alcotest.(check (float 0.)) "fresh empty session" 0.
        (num_field sj "facts");
      close c)

(* ------------------------------------------------------------------ *)
(* SIGKILL crash oracle                                                *)
(* ------------------------------------------------------------------ *)

(* Random wire edit scripts — the generator of test_serve.ml, filtered
   to journaled edits (reads never reach the journal). *)
let gen_script ~seed ~ops =
  let rng = Prng.create seed in
  let serial = ref 0 in
  let fact () =
    incr serial;
    let lo = 1900 + !serial in
    Printf.sprintf "ex:P%d ex:playsFor ex:T%d [%d,%d] 0.%d ." (Prng.int rng 4)
      (Prng.int rng 3) lo
      (lo + 1 + Prng.int rng 4)
      (5 + Prng.int rng 5)
  in
  let live = ref [] in
  let rule_on = ref false in
  let out = ref [] in
  let push l = out := l :: !out in
  push "open";
  push constraint_line;
  for _ = 1 to 5 do
    let f = fact () in
    push ("assert " ^ f);
    live := f :: !live
  done;
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
    | _ ->
        if !rule_on then begin
          push "unrule t_worksfor";
          rule_on := false
        end
        else begin
          push
            "rule t_worksfor 1.5: ex:playsFor(x, y)@t => ex:worksFor(x, y)@t .";
          rule_on := true
        end
  done;
  List.rev !out

let resolution_payload session (r : Engine.result) =
  let s =
    Tecore.Json_out.of_resolution
      ~namespace:(Session.namespace session)
      r.Engine.resolution
  in
  match Obs.Json.parse s with
  | Ok j -> Obs.Json.to_string j
  | Error e -> Alcotest.failf "local resolution JSON does not parse: %s" e

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

(* The real daemon binary, located relative to this test executable in
   the _build tree (declared as a dune dep), so the test works from any
   cwd — dune runtest and dune exec differ. *)
let cli_binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "tecore_cli.exe"))

let spawn_daemon ?(extra_args = []) ?stderr ~socket ~state_dir ~faults () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let keep s =
    not
      (String.length s >= 14 && String.sub s 0 14 = "TECORE_FAULTS=")
  in
  let env =
    Array.of_list
      (("TECORE_FAULTS=" ^ faults)
      :: List.filter keep (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env cli_binary
      (Array.of_list
         ([ cli_binary; "serve"; "--socket"; socket; "--state-dir"; state_dir ]
         @ extra_args))
      env devnull devnull
      (Option.value stderr ~default:devnull)
  in
  Unix.close devnull;
  pid

let connect_unix path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go ()
  in
  go ()

(* Raw-fd line reader with a timeout: the stalled (fault-tripped)
   request must be detected, not waited out. *)
type raw = { rfd : Unix.file_descr; rbuf : Buffer.t }

let recv_line ~timeout raw =
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents raw.rbuf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear raw.rbuf;
        Buffer.add_string raw.rbuf
          (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        match Unix.select [ raw.rfd ] [] [] timeout with
        | [], _, _ -> None
        | _ -> (
            match Unix.read raw.rfd chunk 0 (Bytes.length chunk) with
            | 0 -> None
            | n ->
                Buffer.add_subbytes raw.rbuf chunk 0 n;
                go ()))
  in
  go ()

let starts_with_ok s = String.length s >= 3 && String.sub s 0 3 = "ok "

(* Fork the real daemon with a [journal_torn:K] fault in its
   environment, drive random edits until the K-th journal append stalls
   mid-frame, SIGKILL it there, and check every recovery surface:

   - [Journal.recover] reports [Partial] whose replayed prefix is
     exactly the acked edits and whose state dump matches a reference
     session that executed them uninterrupted;
   - a fresh [Serve.start] over the same state dir serves the session,
     reporting the partial recovery, and its wire-level resolve matches
     the reference byte for byte;
   - after the self-heal, direct resolves agree with the reference for
     every solver backend. *)
let test_sigkill_crash_oracle () =
  with_state_dir "crash" (fun sd ->
      mkdir_p sd (* the daemon binds its socket under here *);
      let socket = Filename.concat sd "daemon.sock" in
      let torn_at = 9 in
      let edits = gen_script ~seed:42 ~ops:16 in
      Alcotest.(check bool) "script reaches the fault point" true
        (List.length edits > torn_at);
      let pid =
        spawn_daemon ~socket ~state_dir:sd
          ~faults:(Printf.sprintf "journal_torn:%d" torn_at)
          ()
      in
      let acked = ref [] in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let fd = connect_unix socket in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let raw = { rfd = fd; rbuf = Buffer.create 256 } in
              send_line fd "hello crash";
              (match recv_line ~timeout:10. raw with
              | Some resp when starts_with_ok resp -> ()
              | Some resp -> Alcotest.failf "hello refused: %s" resp
              | None -> Alcotest.fail "daemon did not answer hello");
              let stalled = ref false in
              (try
                 List.iter
                   (fun line ->
                     send_line fd line;
                     match recv_line ~timeout:2. raw with
                     | Some resp when starts_with_ok resp ->
                         acked := line :: !acked
                     | Some resp ->
                         Alcotest.failf "daemon refused %S: %s" line resp
                     | None ->
                         (* The torn append is holding the frame's
                            second half back: kill it right here. *)
                         stalled := true;
                         raise Exit)
                   edits
               with Exit -> ());
              Alcotest.(check bool) "stalled at the torn append" true !stalled;
              Alcotest.(check int) "acked prefix before the stall"
                (torn_at - 1)
                (List.length !acked)));
      let acked = List.rev !acked in
      (* Reference: an uninterrupted session holding exactly the acked
         prefix. *)
      let reference = Session.create () in
      List.iteri
        (fun i line ->
          match Journal.replay_line reference ~line:(i + 1) line with
          | Ok () -> ()
          | Error m -> Alcotest.failf "reference replay %S: %s" line m)
        acked;
      (* Wire level: a fresh daemon over the same state dir recovers at
         start and serves the session. *)
      let config = { Serve.default_config with Serve.state_dir = Some sd } in
      let server = Serve.start ~config (`Tcp 0) in
      Fun.protect
        ~finally:(fun () -> Serve.stop server)
        (fun () ->
          let c = connect server in
          let ok line = expect_ok line (request c line) in
          let hj = ok "hello crash" in
          Alcotest.(check string) "torn tail surfaced as partial" "partial"
            (str_field hj "recovery");
          let sj = ok "stat" in
          Alcotest.(check (float 0.))
            "recovered facts = reference facts"
            (float_of_int (facts reference))
            (num_field sj "facts");
          Alcotest.(check (float 0.))
            "recovered rules = reference rules"
            (float_of_int (List.length (Session.rules reference)))
            (num_field sj "rules");
          (* The default-engine resolve, byte for byte over the wire. *)
          let rj = ok "resolve" in
          (match Session.resolve ~mode:`Fresh reference with
          | Error e ->
              Alcotest.failf "reference resolve: %s" (Session.error_message e)
          | Ok r ->
              Alcotest.(check (float 0.))
                "wire objective matches reference"
                r.Engine.stats.Engine.objective (num_field rj "objective");
              let res = ok "result" in
              let server_payload =
                match List.assoc_opt "resolution" (fields res) with
                | Some j -> Obs.Json.to_string j
                | None -> Alcotest.fail "result carries no resolution"
              in
              Alcotest.(check string)
                "wire resolution payload matches reference"
                (resolution_payload reference r)
                server_payload);
          close c);
      (* Journal level: the healed directory resolves identically to
         the reference under every solver backend. *)
      List.iter
        (fun (name, engine) ->
          let r =
            recover_full (name ^ ": healed recovery") ~state_dir:sd
              ~fsync:Journal.Always ~compact_every:256 "crash"
          in
          Alcotest.(check (list string))
            (name ^ ": recovered state dump")
            (Session.dump_state reference)
            (Session.dump_state r.Journal.session);
          let resolve tag session =
            match Session.resolve ~engine ~mode:`Fresh session with
            | Ok res -> res
            | Error e ->
                Alcotest.failf "%s: %s resolve failed: %s" name tag
                  (Session.error_message e)
          in
          let recovered = resolve "recovered" r.Journal.session in
          let expected = resolve "reference" reference in
          Alcotest.(check (float 0.))
            (name ^ ": objective")
            expected.Engine.stats.Engine.objective
            recovered.Engine.stats.Engine.objective;
          Alcotest.(check string)
            (name ^ ": resolution payload")
            (resolution_payload reference expected)
            (resolution_payload r.Journal.session recovered);
          Journal.close r.Journal.journal)
        engines)

(* ------------------------------------------------------------------ *)
(* Cross-session group commit                                          *)
(* ------------------------------------------------------------------ *)

(* Direct API: handles attached to one group pool their [Every n]
   budget — the threshold counts pending appends across the whole
   group, a flush pass resets every member, attach deduplicates, and
   [close] detaches. *)
let test_group_commit_pooling () =
  with_state_dir "group" (fun sd ->
      let open_j id =
        Journal.create ~state_dir:sd ~fsync:(Journal.Every 3) ~compact_every:0
          id
      in
      let g = Journal.create_group () in
      let ja = open_j "ga" and jb = open_j "gb" in
      Journal.attach ja g;
      Journal.attach ja g (* double attach must not double-count *);
      Journal.attach jb g;
      Alcotest.(check int) "no commits yet" 0 (Journal.group_commits g);
      Journal.append ja (assert_line 1);
      Journal.append jb (assert_line 2);
      Alcotest.(check int)
        "two pooled appends stay below the budget (attach deduplicates)" 0
        (Journal.group_commits g);
      Journal.append ja (assert_line 3);
      Alcotest.(check int) "third pooled append triggers a group commit" 1
        (Journal.group_commits g);
      (* The flush resets every member: the next budget starts from
         zero across the group. *)
      Journal.append jb (assert_line 4);
      Journal.append jb (assert_line 5);
      Alcotest.(check int) "flush reset the whole pool" 1
        (Journal.group_commits g);
      Journal.append ja (assert_line 6);
      Alcotest.(check int) "second group commit" 2 (Journal.group_commits g);
      (* [close] detaches: the survivor pools alone from then on. *)
      Journal.close ja;
      Journal.append jb (assert_line 7);
      Journal.append jb (assert_line 8);
      Journal.append jb (assert_line 9);
      Alcotest.(check int) "detached member no longer counts" 3
        (Journal.group_commits g);
      Journal.close jb;
      (* [Always] and [Never] members never trip the group budget. *)
      let g2 = Journal.create_group () in
      let jc =
        Journal.create ~state_dir:sd ~fsync:Journal.Always ~compact_every:0
          "gc"
      and jd =
        Journal.create ~state_dir:sd ~fsync:Journal.Never ~compact_every:0
          "gd"
      in
      Journal.attach jc g2;
      Journal.attach jd g2;
      for i = 1 to 4 do
        Journal.append jc (assert_line i);
        Journal.append jd (assert_line (i + 4))
      done;
      Alcotest.(check int) "always/never ignore the group" 0
        (Journal.group_commits g2);
      Journal.close jc;
      Journal.close jd)

(* Fork the real daemon multi-lane with a pooled fsync budget, drive
   edits on TWO sessions in strict alternation until session A's
   [torn_at]-th append stalls mid-frame (the fault index is
   per-handle, so the stall point is deterministic), SIGKILL it there —
   mid-group-commit, with acked-but-unsynced edits pending on both
   sessions under [Every n] — and check recovery per session: every
   acked edit present, the torn (unacked) one absent, for each fsync
   policy. SIGKILL preserves page-cache writes, so acked edits must
   survive even under [never]. *)
let test_group_commit_crash ~fsync () =
  with_state_dir ("gcrash-" ^ fsync) (fun sd ->
      mkdir_p sd (* the daemon binds its socket under here *);
      let socket = Filename.concat sd "daemon.sock" in
      let torn_at = 8 in
      let script_a = gen_script ~seed:71 ~ops:10 in
      let script_b = gen_script ~seed:72 ~ops:10 in
      Alcotest.(check bool) "scripts reach the fault point" true
        (List.length script_a > torn_at && List.length script_b > torn_at);
      let pid =
        spawn_daemon ~socket ~state_dir:sd
          ~extra_args:[ "--fsync"; fsync; "--lanes"; "2" ]
          ~faults:(Printf.sprintf "journal_torn:%d" torn_at)
          ()
      in
      let acked_a = ref [] and acked_b = ref [] in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let fd_a = connect_unix socket in
          let fd_b = connect_unix socket in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.close fd_a with Unix.Unix_error _ -> ());
              try Unix.close fd_b with Unix.Unix_error _ -> ())
            (fun () ->
              let raw_a = { rfd = fd_a; rbuf = Buffer.create 256 } in
              let raw_b = { rfd = fd_b; rbuf = Buffer.create 256 } in
              let hello raw fd id =
                send_line fd ("hello " ^ id);
                match recv_line ~timeout:10. raw with
                | Some resp when starts_with_ok resp -> ()
                | Some resp -> Alcotest.failf "hello %s refused: %s" id resp
                | None -> Alcotest.failf "daemon did not answer hello %s" id
              in
              hello raw_a fd_a "gc-a";
              hello raw_b fd_b "gc-b";
              let stalled = ref false in
              let step raw fd acked line =
                send_line fd line;
                match recv_line ~timeout:2. raw with
                | Some resp when starts_with_ok resp ->
                    acked := line :: !acked
                | Some resp -> Alcotest.failf "daemon refused %S: %s" line resp
                | None ->
                    stalled := true;
                    raise Exit
              in
              (try
                 List.iter2
                   (fun la lb ->
                     step raw_a fd_a acked_a la;
                     step raw_b fd_b acked_b lb)
                   (List.filteri (fun i _ -> i <= torn_at) script_a)
                   (List.filteri (fun i _ -> i <= torn_at) script_b)
               with Exit -> ());
              Alcotest.(check bool) "stalled at the torn append" true !stalled;
              Alcotest.(check int) "torn session acked prefix" (torn_at - 1)
                (List.length !acked_a);
              Alcotest.(check int) "sibling session acked prefix" (torn_at - 1)
                (List.length !acked_b)));
      (* Per-session references holding exactly the acked prefixes. *)
      let reference acked =
        let s = Session.create () in
        List.iteri
          (fun i line ->
            match Journal.replay_line s ~line:(i + 1) line with
            | Ok () -> ()
            | Error m -> Alcotest.failf "reference replay %S: %s" line m)
          acked;
        s
      in
      let ref_a = reference (List.rev !acked_a) in
      let ref_b = reference (List.rev !acked_b) in
      (* Wire level: a fresh daemon over the same state dir recovers
         both sessions — the torn one as [partial], the sibling clean —
         and serves exactly the acked facts for each. *)
      let config = { Serve.default_config with Serve.state_dir = Some sd } in
      let server = Serve.start ~config (`Tcp 0) in
      Fun.protect
        ~finally:(fun () -> Serve.stop server)
        (fun () ->
          let c = connect server in
          let ok line = expect_ok line (request c line) in
          let check_session id expected_recovery reference =
            let hj = ok ("hello " ^ id) in
            Alcotest.(check string)
              (id ^ ": recovery status")
              expected_recovery (str_field hj "recovery");
            let sj = ok "stat" in
            Alcotest.(check (float 0.))
              (id ^ ": recovered facts = acked facts")
              (float_of_int (facts reference))
              (num_field sj "facts");
            Alcotest.(check (float 0.))
              (id ^ ": recovered rules = acked rules")
              (float_of_int (List.length (Session.rules reference)))
              (num_field sj "rules")
          in
          check_session "gc-a" "partial" ref_a;
          check_session "gc-b" "full" ref_b;
          close c);
      (* Journal level: after the self-heal both directories replay to
         exactly the acked state, token for token. *)
      List.iter
        (fun (id, reference) ->
          let r =
            recover_full
              (id ^ ": healed recovery")
              ~state_dir:sd ~fsync:Journal.Always ~compact_every:256 id
          in
          Alcotest.(check (list string))
            (id ^ ": recovered state dump")
            (Session.dump_state reference)
            (Session.dump_state r.Journal.session);
          Journal.close r.Journal.journal)
        [ ("gc-a", ref_a); ("gc-b", ref_b) ])

(* The server's one write loop: a slice of a buffer far larger than a
   pipe's capacity arrives whole, in order, while a reader drains it. *)
let test_write_all () =
  let payload = Bytes.init 300_000 (fun i -> Char.chr (i * 7 mod 251)) in
  let ofs = 1234 and len = 250_000 in
  let r, w = Unix.pipe ~cloexec:true () in
  let reader =
    Domain.spawn (fun () ->
        let buf = Buffer.create len and chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read r chunk 0 (Bytes.length chunk) with
          | 0 -> Buffer.contents buf
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ())
  in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      Journal.write_all w payload ofs len;
      Unix.close w;
      let got = Domain.join reader in
      Alcotest.(check int) "every byte" len (String.length got);
      Alcotest.(check bool) "the slice, in order" true
        (String.equal got (Bytes.sub_string payload ofs len)))

(* A session whose startup recovery fails is skipped with one warning
   line on the daemon's stderr, and a later [hello] for it is refused
   with a [storage] error that says the recovery failed. A MANIFEST that
   is a directory fails to read even for root. *)
let test_failed_recovery_reported () =
  with_state_dir "badrecovery" (fun sd ->
      mkdir_p
        (Filename.concat (Journal.session_dir ~state_dir:sd "zed") "MANIFEST");
      let socket = Filename.concat sd "daemon.sock" in
      let err_path = Filename.concat sd "stderr.txt" in
      let err =
        Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let pid = spawn_daemon ~stderr:err ~socket ~state_dir:sd ~faults:"" () in
      Unix.close err;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let fd = connect_unix socket in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let raw = { rfd = fd; rbuf = Buffer.create 256 } in
              send_line fd "hello zed";
              match recv_line ~timeout:10. raw with
              | None -> Alcotest.fail "daemon did not answer hello"
              | Some resp -> (
                  match parse_response resp with
                  | `Err j ->
                      Alcotest.(check string) "kind" "storage"
                        (str_field j "kind");
                      Alcotest.(check string) "message"
                        "session recovery failed: Is a directory"
                        (str_field j "message")
                  | `Ok _ -> Alcotest.failf "hello accepted: %s" resp)));
      Alcotest.(check string) "one warning line"
        "warning: session \"zed\" not recovered: Is a directory\n"
        (read_file err_path))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "journal"
    [
      ( "units",
        [
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "write_all" `Quick test_write_all;
          Alcotest.test_case "session-id codec" `Quick test_id_codec;
          Alcotest.test_case "fsync policy parsing" `Quick test_fsync_policy;
          Alcotest.test_case "record replay" `Quick test_replay_line;
          Alcotest.test_case "group-commit pooling" `Quick
            test_group_commit_pooling;
        ] );
      ( "round trips",
        [
          Alcotest.test_case "append / recover" `Quick test_roundtrip_full;
          Alcotest.test_case "missing state dir" `Quick
            test_missing_dir_listing;
          Alcotest.test_case "size-triggered compaction" `Quick
            test_compaction;
          Alcotest.test_case "explicit snapshot + tail" `Quick
            test_explicit_compact;
        ] );
      ( "damage",
        [
          Alcotest.test_case "torn tail at every byte boundary" `Quick
            test_torn_tail_every_boundary;
          Alcotest.test_case "unreadable journal raises" `Quick
            test_unreadable_journal_raises;
          Alcotest.test_case "corrupt manifest" `Quick
            test_unrecoverable_manifest;
          Alcotest.test_case "corrupt snapshot" `Quick
            test_unrecoverable_snapshot;
        ] );
      ( "serve",
        [
          Alcotest.test_case "restart recovers the registry" `Quick
            test_serve_restart;
          Alcotest.test_case "failed startup recovery is reported" `Quick
            test_failed_recovery_reported;
          Alcotest.test_case "idle TTL parks durable sessions" `Quick
            test_idle_ttl_parks_durable_sessions;
          Alcotest.test_case "idle TTL discards ephemeral sessions" `Quick
            test_idle_ttl_discards_ephemeral_sessions;
        ] );
      ( "crash oracle",
        [
          Alcotest.test_case "SIGKILL mid-append, recover, re-resolve"
            `Quick test_sigkill_crash_oracle;
          Alcotest.test_case "group-commit SIGKILL, two sessions (always)"
            `Quick
            (test_group_commit_crash ~fsync:"always");
          Alcotest.test_case "group-commit SIGKILL, two sessions (every 5)"
            `Quick
            (test_group_commit_crash ~fsync:"5");
          Alcotest.test_case "group-commit SIGKILL, two sessions (never)"
            `Quick
            (test_group_commit_crash ~fsync:"never");
        ] );
    ]
