(* Per-session write-ahead journal: CRC-framed records of the wire edit
   language, generation-based snapshot compaction, and total recovery.
   See journal.mli for the crash model and on-disk layout. *)

type fsync_policy = Always | Every of int | Never

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok (Every n)
      | _ ->
          Error
            (Printf.sprintf
               "invalid fsync policy %S (expected always, never or a \
                positive integer)"
               s))

let fsync_policy_name = function
  | Always -> "always"
  | Never -> "never"
  | Every n -> string_of_int n

type status =
  | Full
  | Partial of { dropped_bytes : int; replayed : int }
  | Unrecoverable of string

let status_name = function
  | Full -> "full"
  | Partial _ -> "partial"
  | Unrecoverable _ -> "unrecoverable"

type t = {
  id : string;
  dir : string;
  fsync : fsync_policy;
  compact_every : int;
  mutable gen : int;
  mutable fd : Unix.file_descr option;
  mutable failed : string option;
      (* first environmental IO failure; sticky — the handle refuses
         further writes so the caller degrades to a typed storage
         error instead of silently losing records *)
  mutable since_snapshot : int;
  mutable appends : int;
  mutable unsynced : int;
  mutable group : group option;
      (* cross-session commit group this handle pools its [Every n]
         fsync budget with, when the server runs one *)
}

and group = {
  glock : Mutex.t;
      (* guards [members] and every member's [unsynced] counter while
         the handle belongs to the group *)
  mutable members : t list;
  commits : int Atomic.t;
}

type recovery = { session : Tecore.Session.t; journal : t; status : status }

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3)                                                 *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* A single corrupt length byte must not send recovery chasing a
   gigabyte allocation; no accepted wire line comes anywhere near
   this. *)
let max_record_bytes = 1 lsl 24

let header_bytes = 8

let frame_bytes payload = header_bytes + String.length payload + 1

let be32 b ofs v =
  Bytes.set b ofs (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (ofs + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (ofs + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (ofs + 3) (Char.chr (v land 0xff))

let read_be32 s ofs =
  (Char.code s.[ofs] lsl 24)
  lor (Char.code s.[ofs + 1] lsl 16)
  lor (Char.code s.[ofs + 2] lsl 8)
  lor Char.code s.[ofs + 3]

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (frame_bytes payload) in
  be32 b 0 len;
  be32 b 4 (crc32 payload);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.set b (header_bytes + len) '\n';
  b

(* Split a file's bytes into CRC-valid payloads. Returns the payloads
   of the longest valid prefix and whether that prefix reaches EOF. *)
let parse_frames data =
  let n = String.length data in
  let rec loop ofs acc =
    if ofs = n then (List.rev acc, true)
    else if n - ofs < header_bytes + 1 then (List.rev acc, false)
    else
      let len = read_be32 data ofs in
      if len < 0 || len > max_record_bytes || ofs + header_bytes + len + 1 > n
      then (List.rev acc, false)
      else
        let payload = String.sub data (ofs + header_bytes) len in
        if
          data.[ofs + header_bytes + len] <> '\n'
          || crc32 payload <> read_be32 data (ofs + 4)
        then (List.rev acc, false)
        else loop (ofs + header_bytes + len + 1) (payload :: acc)
  in
  loop 0 []

(* ------------------------------------------------------------------ *)
(* Session-id <-> directory-name encoding                              *)
(* ------------------------------------------------------------------ *)

let plain c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_'

let encode_id id =
  let b = Buffer.create (String.length id) in
  String.iter
    (fun c ->
      if plain c then Buffer.add_char b c
      else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    id;
  Buffer.contents b

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | _ -> None

let decode_id s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i = n then Some (Buffer.contents b)
    else if s.[i] = '%' then
      if i + 2 >= n then None
      else
        match (hex_val s.[i + 1], hex_val s.[i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char b (Char.chr ((hi lsl 4) lor lo));
            go (i + 3)
        | _ -> None
    else if plain s.[i] then begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
    else None
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Filesystem plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let sessions_root state_dir = Filename.concat state_dir "sessions"

let session_dir ~state_dir id =
  Filename.concat (sessions_root state_dir) (encode_id id)

let manifest_name = "MANIFEST"

let snapshot_name gen = "snapshot." ^ string_of_int gen

let journal_name gen = "journal." ^ string_of_int gen

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Make a rename/creation durable by fsyncing the containing
   directory. Best-effort: some filesystems refuse O_RDONLY fsync on
   directories, and losing it only narrows the durability window. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let write_all fd b ofs len =
  let rec go ofs len =
    if len > 0 then begin
      let n = Unix.write fd b ofs len in
      go (ofs + n) (len - n)
    end
  in
  go ofs len

(* Only a failed open means absent: a read that fails after the open
   raises, so recovery never mistakes an unreadable journal for an
   empty one. *)
let read_file_opt path =
  match In_channel.open_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> In_channel.close_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

(* tmp + fsync + rename + directory fsync: the file exists fully
   written or not at all. *)
let write_file_atomic ~dir name content =
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (Bytes.unsafe_of_string content) 0 (String.length content);
      Unix.fsync fd);
  Unix.rename tmp (Filename.concat dir name);
  fsync_dir dir

let manifest_magic = "tecore-journal 1"

let write_manifest dir gen =
  write_file_atomic ~dir manifest_name
    (Printf.sprintf "%s\ngen %d\n" manifest_magic gen)

let read_manifest dir =
  match read_file_opt (Filename.concat dir manifest_name) with
  | None -> Error "missing MANIFEST"
  | Some text -> (
      match String.split_on_char '\n' text with
      | magic :: gen_line :: _ when magic = manifest_magic -> (
          match String.split_on_char ' ' gen_line with
          | [ "gen"; n ] -> (
              match int_of_string_opt n with
              | Some gen when gen >= 0 -> Ok gen
              | _ -> Error "corrupt MANIFEST: bad generation")
          | _ -> Error "corrupt MANIFEST: bad generation line")
      | _ -> Error "corrupt MANIFEST: bad magic")

let list_sessions ~state_dir =
  match Sys.readdir (sessions_root state_dir) with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map decode_id
      |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* A record is an [open], an [@prefix] directive (both only in state
   dumps) or an edit-script line, which runs through the one executor
   the wire and [tecore session --script] use. *)
let replay_line session ~line payload =
  let trimmed = String.trim payload in
  if trimmed = "open" then begin
    Tecore.Session.load_graph session (Kg.Graph.create ());
    Ok ()
  end
  else
    match Kg.Nquads.parse_prefix trimmed with
    | Some (Ok (prefix, iri)) ->
        Kg.Namespace.add (Tecore.Session.namespace session) ~prefix ~iri;
        Ok ()
    | Some (Error msg) -> Error msg
    | None -> (
        match Tecore.Script.parse_command ~path:"journal" ~line trimmed with
        | Error e -> Error e.Tecore.Script.message
        | Ok None
        | Ok (Some { cmd = Tecore.Script.Resolve _ | Tecore.Script.Diff; _ })
          ->
            (* Reads never reach the journal; tolerate them in case a
               duplicated region smuggles one in. *)
            Ok ()
        | Ok (Some { cmd; _ }) ->
            Result.map ignore (Tecore.Script.apply session cmd))

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

let open_gen ~dir ~id ~fsync ~compact_every ~gen ~since =
  let fd =
    Unix.openfile
      (Filename.concat dir (journal_name gen))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  {
    id;
    dir;
    fsync;
    compact_every;
    gen;
    fd = Some fd;
    failed = None;
    since_snapshot = since;
    appends = 0;
    unsynced = 0;
    group = None;
  }

(* ------------------------------------------------------------------ *)
(* Cross-session group commit                                          *)
(* ------------------------------------------------------------------ *)

let create_group () =
  { glock = Mutex.create (); members = []; commits = Atomic.make 0 }

let group_commits g = Atomic.get g.commits

let attach t g =
  Mutex.lock g.glock;
  if not (List.memq t g.members) then g.members <- t :: g.members;
  t.group <- Some g;
  Mutex.unlock g.glock

let detach t =
  match t.group with
  | None -> ()
  | Some g ->
      Mutex.lock g.glock;
      g.members <- List.filter (fun m -> m != t) g.members;
      t.group <- None;
      Mutex.unlock g.glock

(* One coalesced flush pass: fsync every group member that still has
   unsynced appends. Sibling failures are swallowed (each handle's own
   appends keep surfacing its sticky error); called with [glock]
   held. *)
let group_flush g =
  List.iter
    (fun m ->
      if m.unsynced > 0 && m.failed = None then
        match m.fd with
        | Some fd -> (
            try
              Obs.phase "fsync" (fun () -> Unix.fsync fd);
              m.unsynced <- 0
            with Unix.Unix_error _ -> ())
        | None -> ())
    g.members;
  Atomic.incr g.commits

let create ~state_dir ~fsync ~compact_every id =
  let dir = session_dir ~state_dir id in
  mkdir_p dir;
  let t = open_gen ~dir ~id ~fsync ~compact_every ~gen:0 ~since:0 in
  fsync_dir dir;
  write_manifest dir 0;
  t

let fail t msg =
  t.failed <- Some msg;
  raise (Sys_error msg)

let live_fd t =
  (match t.failed with
  | Some msg -> raise (Sys_error msg)
  | None -> ());
  match t.fd with
  | Some fd -> fd
  | None -> raise (Sys_error (Printf.sprintf "journal %s: closed" t.id))

(* Count one completed append against the fsync policy. Handles
   attached to a {!group} pool their [Every n] budget: the threshold
   applies to the pending total across the whole group, and crossing it
   flushes every dirty member in one pass (group commit) — the
   server-wide bound on acked-but-unsynced edits is [n - 1] in total
   rather than per session. *)
let policy_fsync t fd =
  let sync () =
    Obs.phase "fsync" (fun () -> Unix.fsync fd);
    t.unsynced <- 0
  in
  match t.fsync with
  | Never -> t.unsynced <- t.unsynced + 1
  | Always ->
      t.unsynced <- t.unsynced + 1;
      sync ()
  | Every n -> (
      match t.group with
      | None ->
          t.unsynced <- t.unsynced + 1;
          if t.unsynced >= n then sync ()
      | Some g ->
          Mutex.lock g.glock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock g.glock)
            (fun () ->
              t.unsynced <- t.unsynced + 1;
              let total =
                List.fold_left (fun acc m -> acc + m.unsynced) 0 g.members
              in
              if total >= n then begin
                (* The appending handle syncs through the failing path
                   so its own IO errors stay sticky; the rest of the
                   group is flushed best-effort. *)
                sync ();
                group_flush g
              end))

let append t payload =
  let fd = live_fd t in
  let b = frame payload in
  t.appends <- t.appends + 1;
  (try
     if Prelude.Deadline.Faults.trip_at "journal_torn" ~index:t.appends then begin
       (* Torn-write window: flush a strict prefix of the frame, then
          stall so a crash test can SIGKILL the process mid-record.
          Harmless when nobody kills us — the rest follows. *)
       let half = max 1 (Bytes.length b / 2) in
       write_all fd b 0 half;
       Unix.sleepf 30.;
       write_all fd b half (Bytes.length b - half)
     end
     else Obs.phase "journal" (fun () -> write_all fd b 0 (Bytes.length b));
     policy_fsync t fd
   with Unix.Unix_error (e, fn, _) ->
     fail t
       (Printf.sprintf "journal %s: %s: %s" t.id fn (Unix.error_message e)));
  t.since_snapshot <- t.since_snapshot + 1

let records_since_snapshot t = t.since_snapshot

let appends t = t.appends

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let compact t lines =
  ignore (live_fd t);
  let gen' = t.gen + 1 in
  try
    let body = Buffer.create 4096 in
    List.iter (fun l -> Buffer.add_bytes body (frame l)) lines;
    write_file_atomic ~dir:t.dir (snapshot_name gen') (Buffer.contents body);
    let fd' =
      Unix.openfile
        (Filename.concat t.dir (journal_name gen'))
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
        0o644
    in
    (try Unix.fsync fd'
     with e ->
       Unix.close fd';
       raise e);
    fsync_dir t.dir;
    (* The flip: until this rename lands, recovery still replays the
       old generation in full. *)
    write_manifest t.dir gen';
    (match t.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    unlink_quiet (Filename.concat t.dir (snapshot_name t.gen));
    unlink_quiet (Filename.concat t.dir (journal_name t.gen));
    t.fd <- Some fd';
    t.gen <- gen';
    t.since_snapshot <- 0;
    t.unsynced <- 0
  with
  | Unix.Unix_error (e, fn, _) ->
      fail t
        (Printf.sprintf "journal %s: %s: %s" t.id fn (Unix.error_message e))
  | Sys_error msg -> fail t (Printf.sprintf "journal %s: %s" t.id msg)

let maybe_compact t dump =
  if t.compact_every > 0 && t.since_snapshot >= t.compact_every then begin
    compact t (dump ());
    true
  end
  else false

let sync t =
  match (t.failed, t.fd) with
  | None, Some fd -> (
      try
        if t.unsynced > 0 then begin
          Unix.fsync fd;
          t.unsynced <- 0
        end
      with Unix.Unix_error (e, fn, _) ->
        fail t
          (Printf.sprintf "journal %s: %s: %s" t.id fn (Unix.error_message e)))
  | _ -> ()

let close t =
  (try sync t with Sys_error _ -> ());
  detach t;
  match t.fd with
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let replay_records session records =
  (* Apply a clean-framed record list; a record that fails to apply
     marks everything from it on as garbage (same contract as a torn
     frame: keep the longest consistent prefix). *)
  let rec go i = function
    | [] -> Ok i
    | r :: rest -> (
        match replay_line session ~line:(i + 1) r with
        | Ok () -> go (i + 1) rest
        | Error msg -> Error (i, msg))
  in
  go 0 records

let scan_max_gen dir =
  (* For re-initialising after unrecoverable damage: never reuse a
     generation number that already has files on disk. *)
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc name ->
          match String.rindex_opt name '.' with
          | Some i -> (
              match int_of_string_opt
                      (String.sub name (i + 1) (String.length name - i - 1))
              with
              | Some g -> max acc g
              | None -> acc)
          | None -> acc)
        0 names

let recover ~state_dir ~fsync ~compact_every id =
  let dir = session_dir ~state_dir id in
  let fresh () = Tecore.Session.create () in
  (* Re-initialise after unrecoverable damage: flip the manifest to an
     unused generation with a snapshot of whatever state survived, and
     leave the damaged files in place for inspection. *)
  let reinit session reason =
    let gen = scan_max_gen dir + 1 in
    let body = Buffer.create 4096 in
    List.iter
      (fun l -> Buffer.add_bytes body (frame l))
      (Tecore.Session.dump_state session);
    write_file_atomic ~dir (snapshot_name gen) (Buffer.contents body);
    let t = open_gen ~dir ~id ~fsync ~compact_every ~gen ~since:0 in
    fsync_dir dir;
    write_manifest dir gen;
    { session; journal = t; status = Unrecoverable reason }
  in
  match read_manifest dir with
  | Error reason -> reinit (fresh ()) reason
  | Ok gen -> (
      let session = fresh () in
      let snapshot_ok =
        match
          read_file_opt (Filename.concat dir (snapshot_name gen))
        with
        | None ->
            (* Generation 0 starts from the empty session; at any
               later generation the snapshot is written before the
               manifest flips, so a missing one is real damage. *)
            if gen = 0 then Ok () else Error "missing snapshot"
        | Some data -> (
            let records, clean = parse_frames data in
            if not clean then Error "corrupt snapshot frame"
            else
              match replay_records session records with
              | Ok _ -> Ok ()
              | Error (i, msg) ->
                  Error
                    (Printf.sprintf "snapshot record %d: %s" (i + 1) msg))
      in
      match snapshot_ok with
      | Error reason ->
          (* A half-applied snapshot is not a consistent session;
             restart from empty. *)
          reinit (fresh ()) reason
      | Ok () -> (
          let journal_path = Filename.concat dir (journal_name gen) in
          let data =
            (* The journal file is created before the manifest flips,
               but tolerate its absence (adversarial deletion) as an
               empty tail. *)
            Option.value ~default:"" (read_file_opt journal_path)
          in
          let records, clean = parse_frames data in
          let applied, bad =
            match replay_records session records with
            | Ok n -> (n, None)
            | Error (i, msg) -> (i, Some msg)
          in
          match (clean, bad) with
          | true, None ->
              let t =
                open_gen ~dir ~id ~fsync ~compact_every ~gen
                  ~since:applied
              in
              { session; journal = t; status = Full }
          | _ ->
              (* Torn tail, corrupt frame, or a record that refused
                 to apply: keep the consistent prefix and compact it
                 into a clean next generation (which is also the
                 physical truncation). *)
              let consumed = ref 0 in
              List.iteri
                (fun i r ->
                  if i < applied then consumed := !consumed + frame_bytes r)
                records;
              let dropped_bytes = String.length data - !consumed in
              let t =
                open_gen ~dir ~id ~fsync ~compact_every ~gen
                  ~since:applied
              in
              compact t (Tecore.Session.dump_state session);
              {
                session;
                journal = t;
                status = Partial { dropped_bytes; replayed = applied };
              }))
