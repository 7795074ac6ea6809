module Session = Tecore.Session
module Engine = Tecore.Engine
module Deadline = Prelude.Deadline
module Journal = Journal
module Protocol = Protocol
module Access_log = Access_log

type config = {
  engine : Engine.engine;
  jobs : int option;
  queue_cap : int;
  request_timeout_ms : float option;
  max_line_bytes : int;
  allow_shutdown : bool;
  max_sessions : int option;
  state_dir : string option;
  fsync : Journal.fsync_policy;
  compact_every : int;
  idle_ttl_s : float option;
  access_log : string option;
  access_log_max_bytes : int;
  access_log_keep : int;
  trace_every : int;
  lanes : int;
}

let default_config =
  {
    engine = Engine.Auto;
    jobs = None;
    queue_cap = 64;
    request_timeout_ms = None;
    max_line_bytes = 1 lsl 20;
    allow_shutdown = false;
    max_sessions = None;
    state_dir = None;
    fsync = Journal.Always;
    compact_every = 256;
    idle_ttl_s = None;
    access_log = None;
    access_log_max_bytes = 4 * 1024 * 1024;
    access_log_keep = 3;
    trace_every = 0;
    lanes =
      (* TECORE_LANES mirrors TECORE_JOBS: it lets the whole serve test
         matrix re-run against a multi-lane resolver without touching
         each [start] call site. *)
      (match Sys.getenv_opt "TECORE_LANES" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> n
          | _ -> 1)
      | None -> 1);
  }

type listen = [ `Tcp of int | `Unix of string ]

(* ------------------------------------------------------------------ *)
(* Bounded line reader                                                 *)
(* ------------------------------------------------------------------ *)

(* A hand-rolled reader instead of [in_channel_of_descr]: we need a hard
   cap on line length (an attacker must not make the server buffer an
   unbounded frame) and we need [`Too_long] to consume the rest of the
   oversized line so the connection stays usable afterwards. *)
module Reader = struct
  type t = {
    fd : Unix.file_descr;
    max : int;
    mutable buf : Bytes.t;
    mutable len : int;
    chunk : Bytes.t;
  }

  let create ~max fd =
    { fd; max; buf = Bytes.create 4096; len = 0; chunk = Bytes.create 4096 }

  let refill t =
    match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> 0
    | n ->
        if t.len + n > Bytes.length t.buf then begin
          let cap = max (2 * Bytes.length t.buf) (t.len + n) in
          let grown = Bytes.create cap in
          Bytes.blit t.buf 0 grown 0 t.len;
          t.buf <- grown
        end;
        Bytes.blit t.chunk 0 t.buf t.len n;
        t.len <- t.len + n;
        n
    | exception Unix.Unix_error _ -> 0
    | exception _ -> 0

  let take t upto =
    let line = Bytes.sub_string t.buf 0 upto in
    let rest = t.len - upto - 1 in
    if rest > 0 then Bytes.blit t.buf (upto + 1) t.buf 0 rest;
    t.len <- max rest 0;
    line

  (* Read one LF-terminated line. [`Line s] (without the LF), [`Too_long]
     when the line exceeded [max] (the remainder has been discarded), or
     [`Eof]. A final unterminated chunk is returned as a line. *)
  let read_line t =
    let rec discard_to_newline () =
      match Bytes.index_opt (Bytes.sub t.buf 0 t.len) '\n' with
      | Some i ->
          ignore (take t i);
          `Too_long
      | None ->
          t.len <- 0;
          if refill t = 0 then `Too_long else discard_to_newline ()
    in
    let rec go scanned =
      let limit = t.len in
      let nl = ref (-1) in
      (try
         for i = scanned to limit - 1 do
           if Bytes.get t.buf i = '\n' then begin
             nl := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !nl > t.max then begin
        ignore (take t !nl);
        `Too_long
      end
      else if !nl >= 0 then `Line (take t !nl)
      else if t.len > t.max then discard_to_newline ()
      else if refill t = 0 then
        if t.len > 0 then begin
          let line = Bytes.sub_string t.buf 0 t.len in
          t.len <- 0;
          `Line line
        end
        else `Eof
      else go limit
    in
    go 0
end

let send_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  Journal.write_all fd b 0 (Bytes.length b)

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type entry = {
  id : string;
  session : Session.t;
  lock : Mutex.t;
  mutable last_used : int;  (** registry clock tick, for LRU eviction *)
  mutable last_wall : float;  (** wall-clock of last use, for idle TTL *)
  mutable evicted : bool;
      (** set when LRU-evicted; connections still holding the entry get
          a typed [evicted] error on their next use *)
  mutable expired : bool;
      (** set when the idle-TTL janitor parked (or discarded) the
          session; connections still holding the entry get a typed
          [expired] error and re-attach with [hello] *)
  mutable journal : Journal.t option;
      (** the session's write-ahead journal when [--state-dir] is set *)
  mutable recovery : string option;
      (** {!Journal.status_name} when the session came back from disk *)
  served : int Atomic.t;
      (** requests attributed to this session, for the per-session
          exposition counters *)
}

(* A traced request's phase timings, (phase, elapsed-ms) newest first.
   The connection thread owns it; a resolve hands it to the resolver
   lane with the job and gets it back with the reply. *)
type trace = { mutable phases : (string * float) list }

type job = {
  entry : entry;
  mode : [ `Fresh | `Incremental ];
  deadline : Deadline.t;
  job_line : int;
  trace : trace option;  (** the submitting request's phases, when traced *)
  submitted_ms : float;  (** enqueue timestamp, for the queue-wait phase *)
  mutable reply : (string, Protocol.error) result option;
  jm : Mutex.t;
  jcv : Condition.t;
}

(* A resolver lane: a FIFO sub-queue plus the thread draining it.
   Sessions are affinity-pinned to a lane by a stable hash of their id,
   so one session's resolves always run on one lane — per-session FIFO
   ordering holds by construction, while independent sessions on
   different lanes no longer head-of-line-block each other. All lanes'
   queues are guarded by the server's single [queue_lock]; only the
   condition variable is per-lane, so a submit wakes exactly the lane
   it fed. *)
type lane = {
  lane_index : int;
  lqueue : job Queue.t;
  lcv : Condition.t;
  mutable lrunning : int;  (** jobs executing on this lane (0 or 1) *)
  lserved : int Atomic.t;
      (** resolves completed by this lane, for the per-lane exposition
          counters *)
  mutable lthread : Thread.t option;
}

(* Request outcomes, for the by-outcome counters. *)
let outcomes =
  [|
    "ok"; "parse"; "exec"; "rejected"; "overloaded"; "timed_out"; "evicted";
    "expired"; "storage"; "shutting_down"; "internal";
  |]

let outcome_index = function
  | Ok _ -> 0
  | Error (e : Protocol.error) -> (
      match e.Protocol.kind with
      | Protocol.Parse -> 1
      | Protocol.Exec -> 2
      | Protocol.Rejected -> 3
      | Protocol.Overloaded -> 4
      | Protocol.Timed_out -> 5
      | Protocol.Evicted -> 6
      | Protocol.Expired -> 7
      | Protocol.Storage -> 8
      | Protocol.Shutting_down -> 9
      | Protocol.Internal -> 10)

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  sockaddr : Unix.sockaddr;
  addr_str : string;
  sessions : (string, entry) Hashtbl.t;
  registry_lock : Mutex.t;
  mutable registry_clock : int;  (** bumps on every session use (LRU) *)
  evicted_total : int Atomic.t;
  expired_total : int Atomic.t;
  recovered_total : int Atomic.t;
  lanes : lane array;
  queue_lock : Mutex.t;  (** guards every lane's queue and running flag *)
  solve_lock : Mutex.t;
      (** serialises the solve itself across lanes: the shared domain
          pool stays single-tenant, so engine results (and their bytes)
          are independent of the lane count. Uncontended (and skipped)
          on single-lane servers. *)
  journal_group : Journal.group option;
      (** cross-session commit group pooling the [Every n] fsync budget
          (see {!Journal.attach}), when [--state-dir] is set *)
  shed : int Atomic.t;
  counters : int Atomic.t array;  (** indexed like [outcomes] *)
  requests : int Atomic.t;
  start_wall : float;  (** Unix epoch seconds at {!start} *)
  trace_period : int Atomic.t;
      (** request-trace sampling period: 0 off, N = every Nth request *)
  access_writer : Access_log.writer option;
  trace_lock : Mutex.t;
      (** orders histogram updates, the recent ring and log writes, so
          the offline analyzer sees exactly what the live summaries saw *)
  phase_hists : (string, Obs.Histogram.t) Hashtbl.t;
  recent : Access_log.record option array;  (** ring of traced requests *)
  mutable recent_head : int;  (** next write position *)
  mutable recent_len : int;
  stop_requested : bool Atomic.t;
  mutable stopped : bool;
  conns_lock : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable janitor_thread : Thread.t option;
}

let lane_count t = Array.length t.lanes

(* FNV-1a (32-bit): a stable, platform-independent hash of the session
   id. Lane pinning must not depend on [Hashtbl.hash]'s
   version-specific behaviour — a restarted server has to route a
   recovered session to the same lane its journal group saw. Total for
   any byte string, including empty, huge and non-ASCII ids. *)
let fnv1a_32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

(* The lane named by a fault point's argument, modulo the lane count. *)
let fault_lane t point =
  let n = lane_count t in
  ((Deadline.Faults.arg point mod n) + n) mod n

(* Which lane serves a session id. The [lane_collide:L] fault point
   (TECORE_FAULTS) pins every session to lane [L mod lanes], the test
   hook for forcing hash collisions. *)
let lane_of_session t id =
  if Deadline.Faults.active "lane_collide" then fault_lane t "lane_collide"
  else fnv1a_32 id mod lane_count t

let sessions_open t =
  Mutex.lock t.registry_lock;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.registry_lock;
  n

(* [f] summed over the lanes; called with [queue_lock] held. *)
let sum_lanes t f = Array.fold_left (fun acc l -> acc + f l) 0 t.lanes

let queued l = Queue.length l.lqueue

let lane_pending l = queued l + l.lrunning

let queue_depth t =
  Mutex.lock t.queue_lock;
  let n = sum_lanes t queued in
  Mutex.unlock t.queue_lock;
  n

let busy t =
  Mutex.lock t.queue_lock;
  let b = Array.exists (fun l -> l.lrunning > 0) t.lanes in
  Mutex.unlock t.queue_lock;
  b

let shed_count t = Atomic.get t.shed

let requests_total t = Atomic.get t.requests

(* Traced requests still in the ring, oldest first. *)
let recent_records t =
  Mutex.lock t.trace_lock;
  let n = t.recent_len in
  let cap = Array.length t.recent in
  let out = ref [] in
  for i = 0 to n - 1 do
    match t.recent.((t.recent_head - 1 - i + (2 * cap)) mod cap) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  Mutex.unlock t.trace_lock;
  !out

(* Fold one completed traced request into every live view: the
   per-phase histograms behind [serve_request_phase_ms], the [tail]
   ring, and the access log. One lock so their contents never diverge —
   the analyzer ≡ live-summary equivalence the tests pin depends on
   seeing the same record set everywhere. *)
let record_trace t (r : Access_log.record) =
  Mutex.lock t.trace_lock;
  Access_log.add_phases t.phase_hists r.Access_log.phases;
  let cap = Array.length t.recent in
  t.recent.(t.recent_head) <- Some r;
  t.recent_head <- (t.recent_head + 1) mod cap;
  t.recent_len <- min (t.recent_len + 1) cap;
  (match t.access_writer with
  | Some w -> (
      try Access_log.write w r
      with Unix.Unix_error _ | Sys_error _ ->
        (* A failing access log must never take a connection down. *)
        ())
  | None -> ());
  Mutex.unlock t.trace_lock

let touch t entry =
  Mutex.lock t.registry_lock;
  t.registry_clock <- t.registry_clock + 1;
  entry.last_used <- t.registry_clock;
  entry.last_wall <- Unix.gettimeofday ();
  Mutex.unlock t.registry_lock

let address t = t.addr_str

let count_outcome t result =
  Atomic.incr t.counters.(outcome_index result)

(* ------------------------------------------------------------------ *)
(* Live metrics                                                        *)
(* ------------------------------------------------------------------ *)

let metrics_text t =
  let report = Obs.Report.capture () in
  Mutex.lock t.queue_lock;
  let lanes =
    List.mapi
      (fun i l -> (string_of_int i, (lane_pending l, Atomic.get l.lserved)))
      (Array.to_list t.lanes)
  in
  Mutex.unlock t.queue_lock;
  (* Quantiles computed exactly like {!Access_log.stats}, so the offline
     analyzer's renderings compare byte-for-byte. *)
  Mutex.lock t.trace_lock;
  let phase_rows =
    List.concat_map
      (fun (p, h) ->
        Obs.Export.summary_rows ~quantiles:[ 0.5; 0.95 ] [ ("phase", p) ] h)
      (Access_log.in_phase_order t.phase_hists)
  in
  Mutex.unlock t.trace_lock;
  Mutex.lock t.registry_lock;
  let sessions =
    Hashtbl.fold
      (fun id e acc -> (id, Atomic.get e.served) :: acc)
      t.sessions []
  in
  Mutex.unlock t.registry_lock;
  let num n = float_of_int n in
  let family name kind rows = { Obs.Export.name; kind; rows } in
  let single name kind v = family name kind [ ("", [], v) ] in
  let labelled label values =
    List.map (fun (l, v) -> ("", [ (label, l) ], num v)) values
  in
  let outcome_counts =
    Array.to_list
      (Array.mapi (fun i o -> (o, Atomic.get t.counters.(i))) outcomes)
  in
  Obs.Export.open_metrics report
    ~families:
      [
        single "serve_sessions_open" "gauge" (num (sessions_open t));
        single "serve_queue_depth" "gauge" (num (queue_depth t));
        (* Per-lane pending work (queued + running) and completed
           resolves, so a stuck or hot lane is visible. *)
        family "serve_lane_depth" "gauge"
          (labelled "lane" (List.map (fun (i, (d, _)) -> (i, d)) lanes));
        family "serve_lane_requests_total" "counter"
          (labelled "lane" (List.map (fun (i, (_, n)) -> (i, n)) lanes));
        family "serve_requests_total" "counter"
          (labelled "outcome" outcome_counts);
        single "serve_shed_total" "counter" (num (Atomic.get t.shed));
        single "serve_sessions_evicted_total" "counter"
          (num (Atomic.get t.evicted_total));
        single "serve_sessions_expired_total" "counter"
          (num (Atomic.get t.expired_total));
        single "serve_sessions_recovered_total" "counter"
          (num (Atomic.get t.recovered_total));
        single "serve_uptime_seconds" "gauge"
          (Unix.gettimeofday () -. t.start_wall);
        family "serve_request_phase_ms" "summary" phase_rows;
        family "serve_session_requests_total" "counter"
          (labelled "session" (List.sort compare sessions));
      ]

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let json_num n = Obs.Json.Num (float_of_int n)

let exec_error ~line message = Protocol.error Protocol.Exec ~line message

let expired_error ~line id =
  Protocol.error Protocol.Expired ~line
    (Printf.sprintf
       "session %S expired after idle TTL; send: hello <client-id> to \
        re-attach"
       id)

let storage_error ~line msg =
  Protocol.error Protocol.Storage ~line
    ("journal write failed; session is no longer durable: " ^ msg)

let recovery_error ~line msg =
  Protocol.error Protocol.Storage ~line ("session recovery failed: " ^ msg)

(* The message of an environmental (filesystem) failure. *)
let io_message = function
  | Sys_error msg -> Some msg
  | Unix.Unix_error (e, fn, _) -> Some (fn ^ ": " ^ Unix.error_message e)
  | _ -> None

let shutting_down ~line =
  Protocol.error Protocol.Shutting_down ~line "server is shutting down"

let entry_of t id ?journal ?recovery session =
  {
    id;
    session;
    lock = Mutex.create ();
    last_used = t.registry_clock;
    last_wall = Unix.gettimeofday ();
    evicted = false;
    expired = false;
    journal;
    recovery;
    served = Atomic.make 0;
  }

(* Join a session's journal to the cross-session commit group. *)
let grouped t j =
  Option.iter (Journal.attach j) t.journal_group;
  j

(* Rebuild a registry entry from the session's directory under the
   state dir (replaying its snapshot and journal). *)
let recover_entry t ~state_dir id =
  let r =
    Journal.recover ~state_dir ~fsync:t.config.fsync
      ~compact_every:t.config.compact_every id
  in
  Atomic.incr t.recovered_total;
  entry_of t id r.Journal.session
    ~journal:(grouped t r.Journal.journal)
    ~recovery:(Journal.status_name r.Journal.status)

(* A registry entry for a [hello] of an unregistered id: recovered when
   the session has a directory under the state dir, fresh otherwise
   (with a generation-0 journal when the server is durable). A
   filesystem failure is a typed [storage] error that says whether the
   recovery or the new journal failed. *)
let open_entry t ~line id =
  let guard error f =
    match f () with
    | e -> Ok e
    | exception exn -> (
        match io_message exn with
        | Some msg -> Error (error ~line msg)
        | None -> raise exn)
  in
  match t.config.state_dir with
  | None -> Ok (entry_of t id (Session.create ()))
  | Some state_dir when Sys.file_exists (Journal.session_dir ~state_dir id) ->
      guard recovery_error (fun () -> recover_entry t ~state_dir id)
  | Some state_dir ->
      guard storage_error (fun () ->
          let journal =
            Journal.create ~state_dir ~fsync:t.config.fsync
              ~compact_every:t.config.compact_every id
          in
          entry_of t id (Session.create ()) ~journal:(grouped t journal))

(* Close a retired entry's journal once any in-flight edit on it has
   finished (acked edits are already on disk), so the fd is released
   and a later [hello] can recover the session. *)
let release_journal e =
  Mutex.lock e.lock;
  Option.iter Journal.close e.journal;
  e.journal <- None;
  Mutex.unlock e.lock

(* Record [ms] as phase [name] of a traced request. *)
let note trace name ms =
  Option.iter (fun tr -> tr.phases <- (name, ms) :: tr.phases) trace

(* Run [f], recording its wall time as phase [name] when traced. *)
let timed trace name f =
  match trace with
  | None -> f ()
  | Some _ ->
      let r, ms = Prelude.Timing.time f in
      note trace name ms;
      r

(* Write-ahead persistence of one accepted edit; called with the entry
   lock held, after the edit applied. An IO failure surfaces as a typed
   [storage] error: the edit stays applied in memory but is no longer
   durable, and the journal stays failed (sticky) so every later edit
   says so too. *)
let persist entry ~line ~trace ~raw ok =
  match entry.journal with
  | None -> Ok ok
  | Some j -> (
      try
        let w = Journal.append j raw in
        note trace "journal" w.Journal.write_ms;
        Option.iter (note trace "fsync") w.Journal.fsync_ms;
        (try
           ignore
             (Journal.maybe_compact j (fun () ->
                  Session.dump_state entry.session))
         with Sys_error _ ->
           (* The record itself is durable in the old generation; a
              failed compaction only defers truncation. *)
           ());
        Ok ok
      with Sys_error msg -> Error (storage_error ~line msg))

(* [load FILE] is never journaled — the file can change or vanish
   before a replay. Snapshot the loaded state instead, so recovery is
   self-contained. *)
let persist_snapshot entry ~line ok =
  match entry.journal with
  | None -> Ok ok
  | Some j -> (
      try
        Journal.compact j (Session.dump_state entry.session);
        Ok ok
      with Sys_error msg -> Error (storage_error ~line msg))

(* Hand a job its reply and wake the connection waiting on it. *)
let answer job reply =
  Mutex.lock job.jm;
  job.reply <- Some reply;
  Condition.signal job.jcv;
  Mutex.unlock job.jm

(* The queue-side half of a resolve: admission control, hand-off to the
   session's resolver lane, and the wait for its reply. Admission is
   global — the pending count spans every lane, so [--queue] bounds the
   server, not each lane. *)
let submit_resolve t ~line ~trace entry mode =
  let deadline = Deadline.of_timeout_ms t.config.request_timeout_ms in
  let job =
    {
      entry;
      mode;
      deadline;
      job_line = line;
      trace;
      submitted_ms = Prelude.Timing.now_ms ();
      reply = None;
      jm = Mutex.create ();
      jcv = Condition.create ();
    }
  in
  let lane = t.lanes.(lane_of_session t entry.id) in
  Mutex.lock t.queue_lock;
  let pending = sum_lanes t lane_pending in
  if t.stopped || Atomic.get t.stop_requested then begin
    Mutex.unlock t.queue_lock;
    Error (shutting_down ~line)
  end
  else if pending > t.config.queue_cap then begin
    Atomic.incr t.shed;
    Mutex.unlock t.queue_lock;
    Error
      (Protocol.error Protocol.Overloaded ~line
         (Printf.sprintf
            "overloaded: %d resolve(s) pending (queue bound %d); retry later"
            pending t.config.queue_cap))
  end
  else begin
    Queue.add job lane.lqueue;
    Condition.signal lane.lcv;
    Mutex.unlock t.queue_lock;
    Mutex.lock job.jm;
    while job.reply = None do
      Condition.wait job.jcv job.jm
    done;
    let reply = Option.get job.reply in
    Mutex.unlock job.jm;
    reply
  end

let resolve_summary session (r : Engine.result) mode =
  let res = r.Engine.resolution in
  let cache =
    match Session.cache_outcome session with
    | Some o -> Engine.outcome_name o
    | None -> "none"
  in
  [
    ( "mode",
      Obs.Json.Str
        (match mode with `Fresh -> "fresh" | `Incremental -> "incremental")
    );
    ("cache", Obs.Json.Str cache);
    ("engine", Obs.Json.Str (Engine.choice_name r.Engine.stats.Engine.engine_used));
    ("kept", json_num res.Tecore.Conflict.kept);
    ("removed", json_num (List.length res.Tecore.Conflict.removed));
    ("derived", json_num (List.length res.Tecore.Conflict.derived));
    ("conflicting", json_num (List.length res.Tecore.Conflict.conflicting));
    ("objective", Obs.Json.Num r.Engine.stats.Engine.objective);
    ("hard_violations", json_num r.Engine.stats.Engine.hard_violations);
    ( "status",
      Obs.Json.Str (Deadline.status_name r.Engine.stats.Engine.status) );
  ]

(* Runs on the resolver thread, session lock held by the caller. A
   resolve that ran the engine (anything but a cache hit, which returns
   the previous result as it was) reports its grounding as the [ground]
   phase and the rest (encode, solve, interpret) as [solve]. *)
let run_resolve config job =
  let entry = job.entry in
  let session = entry.session in
  match
    Session.resolve ~engine:config.engine ?jobs:config.jobs
      ~deadline:job.deadline ~mode:job.mode session
  with
  | Ok r ->
      let s = r.Engine.stats in
      if Session.cache_outcome session <> Some Engine.Hit then begin
        note job.trace "ground" s.Engine.ground_ms;
        note job.trace "solve" (s.Engine.total_ms -. s.Engine.ground_ms)
      end;
      Ok (Protocol.ok_line (resolve_summary session r job.mode))
  | Error (Session.Rejected report) ->
      Error
        (Protocol.error Protocol.Rejected ~line:job.job_line
           (Format.asprintf "%a" Tecore.Translator.pp_report report))
  | Error e -> Error (exec_error ~line:job.job_line (Session.error_message e))

(* One dequeued job on [lane]: shed when the server is draining or the
   budget expired while queued, else resolve under the entry lock. *)
let run_job t lane ~draining job =
  let line = job.job_line in
  if draining then Error (shutting_down ~line)
  else if Deadline.expired job.deadline then
    Error
      (Protocol.error Protocol.Timed_out ~line
         "request budget expired while queued")
  else begin
    (* Deterministic slow-resolve injection for the overload and
       head-of-line tests: TECORE_FAULTS=slow_resolve:MS stretches the
       busy window. Adding slow_resolve_lane:L confines the stall to
       lane [L mod lanes], so a sibling lane's progress past a stalled
       one is observable (and deterministic) even on a single core. *)
    if
      (not (Deadline.Faults.active "slow_resolve_lane"))
      || fault_lane t "slow_resolve_lane" = lane.lane_index
    then Deadline.Faults.delay "slow_resolve";
    timed job.trace "lock" (fun () -> Mutex.lock job.entry.lock);
    Fun.protect
      ~finally:(fun () -> Mutex.unlock job.entry.lock)
      (fun () ->
        let run () =
          try run_resolve t.config job
          with e ->
            Error
              (Protocol.error Protocol.Internal ~line
                 ("resolve failed: " ^ Printexc.to_string e))
        in
        (* Single-lane servers skip the solve lock entirely: their
           execution path (and byte traffic) is exactly the previous
           single-resolver release's. The wait for a contended solve
           lock lands in the "lock" phase (entries sum at emission). *)
        if lane_count t = 1 then run ()
        else begin
          timed job.trace "lock" (fun () -> Mutex.lock t.solve_lock);
          Fun.protect ~finally:(fun () -> Mutex.unlock t.solve_lock) run
        end)
  end

(* One lane's resolver thread: drain the lane's sub-queue in FIFO
   order. Within the request, everything but the solve itself (queue
   wait, deadline shedding, fault windows, session locking, the reply
   hand-off) overlaps freely with the other lanes; the solve takes
   [solve_lock] so the shared domain pool stays single-tenant. *)
let lane_loop t lane =
  let rec loop () =
    Mutex.lock t.queue_lock;
    while Queue.is_empty lane.lqueue && not (Atomic.get t.stop_requested) do
      Condition.wait lane.lcv t.queue_lock
    done;
    if Queue.is_empty lane.lqueue then
      (* Stop requested and nothing left to drain. *)
      Mutex.unlock t.queue_lock
    else begin
      let job = Queue.pop lane.lqueue in
      let draining = Atomic.get t.stop_requested in
      lane.lrunning <- 1;
      Mutex.unlock t.queue_lock;
      note job.trace "queue" (Prelude.Timing.now_ms () -. job.submitted_ms);
      answer job (run_job t lane ~draining job);
      Mutex.lock t.queue_lock;
      lane.lrunning <- 0;
      Mutex.unlock t.queue_lock;
      Atomic.incr lane.lserved;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

(* Run [k] on the entry unless it has been retired — LRU-evicted, or
   parked by the idle-TTL janitor. *)
let if_live ~line entry k =
  if entry.evicted then
    Error
      (Protocol.error Protocol.Evicted ~line
         (Printf.sprintf
            "session %S was evicted (server at --max-sessions capacity); \
             send: hello <client-id> to start over"
            entry.id))
  else if entry.expired then Error (expired_error ~line entry.id)
  else k entry

let with_entry t conn_state ~line k =
  match !conn_state with
  | Some entry ->
      if_live ~line entry (fun entry ->
          touch t entry;
          k entry)
  | None ->
      Error (exec_error ~line "no session selected (send: hello <client-id>)")

let locked t conn_state ~line ~trace k =
  with_entry t conn_state ~line (fun entry ->
      timed trace "lock" (fun () -> Mutex.lock entry.lock);
      Fun.protect
        ~finally:(fun () -> Mutex.unlock entry.lock)
        (fun () ->
          (* Re-check under the lock: the entry may have been retired
             between [with_entry] and here. *)
          if_live ~line entry k))

let with_graph t conn_state ~line ~trace k =
  locked t conn_state ~line ~trace (fun entry ->
      match Session.graph entry.session with
      | Some _ -> k entry
      | None ->
          Error
            (exec_error ~line "no graph loaded (send: load FILE, or: open)"))

(* Fields that exist only on servers configured for them (a state dir,
   several lanes, tracing), so plain servers keep their exact response
   bytes. *)
let only cond fields = if cond then fields else []

let facts session =
  match Session.graph session with Some g -> Kg.Graph.size g | None -> 0

let tail t k =
  let records = recent_records t in
  let skip = max 0 (List.length records - k) in
  let records = List.filteri (fun i _ -> i >= skip) records in
  Ok
    (Protocol.ok_line
       [
         ( "requests",
           Obs.Json.Arr (List.map Access_log.record_to_json records) );
       ])

(* [hello ID]: attach the connection to session [ID], registering it
   (fresh or recovered from disk) when it is not in the registry. *)
let hello t conn_state ~line ~trace id =
  Mutex.lock t.registry_lock;
  t.registry_clock <- t.registry_clock + 1;
  let evicted_entries = ref [] in
  let attach =
    match Hashtbl.find_opt t.sessions id with
    | Some e ->
        e.last_used <- t.registry_clock;
        e.last_wall <- Unix.gettimeofday ();
        Ok (e, false)
    | None -> (
        (* LRU eviction: creating one past [max_sessions] drops the
           least-recently-used session. The evicted entry is only
           unlinked here — connections still holding it are told with a
           typed [evicted] error on their next use, and a resolve
           already running on it is left to finish. *)
        (match t.config.max_sessions with
        | Some cap ->
            while Hashtbl.length t.sessions >= max cap 1 do
              let lru =
                Hashtbl.fold
                  (fun _ e acc ->
                    match acc with
                    | Some best when best.last_used <= e.last_used -> acc
                    | _ -> Some e)
                  t.sessions None
              in
              match lru with
              | None -> assert false (* loop guard: non-empty *)
              | Some e ->
                  e.evicted <- true;
                  Hashtbl.remove t.sessions e.id;
                  evicted_entries := e :: !evicted_entries
            done
        | None -> ());
        open_entry t ~line id
        |> Result.map (fun e ->
               Hashtbl.add t.sessions id e;
               (e, true)))
  in
  Mutex.unlock t.registry_lock;
  (* Park evicted sessions' durable state outside the registry lock. *)
  List.iter
    (fun old ->
      release_journal old;
      Atomic.incr t.evicted_total)
    !evicted_entries;
  match attach with
  | Error e -> Error e
  | Ok (entry, created) ->
      conn_state := Some entry;
      Ok
        (Protocol.ok_line
           ([ ("session", Obs.Json.Str id); ("created", Obs.Json.Bool created) ]
           @ only (t.config.state_dir <> None)
               [
                 ( "recovery",
                   Obs.Json.Str (Option.value ~default:"none" entry.recovery)
                 );
               ]
           @ only (trace <> None) [ ("started", Obs.Json.Num t.start_wall) ]))

let open_graph ~line ~trace ~raw entry =
  Session.load_graph entry.session (Kg.Graph.create ());
  persist entry ~line ~trace ~raw
    (Protocol.ok_line [ ("opened", Obs.Json.Bool true); ("facts", json_num 0) ])

let stat t entry =
  let session = entry.session in
  let cache = Engine.cache_stats (Session.engine_state session) in
  Ok
    (Protocol.ok_line
       ([
          ("session", Obs.Json.Str entry.id);
          ("facts", json_num (facts session));
          ("rules", json_num (List.length (Session.rules session)));
          ("pending_edits", json_num (Session.pending_edits session));
          ("rules_dirty", Obs.Json.Bool (Session.rules_dirty session));
          ("resolved", Obs.Json.Bool (Session.last_result session <> None));
          ("cache_entries", json_num cache.Engine.solve_entries);
          ("cache_hits", json_num cache.Engine.solve_hits);
          ("cache_misses", json_num cache.Engine.solve_misses);
        ]
       @ only (t.config.state_dir <> None)
           [
             ("durable", Obs.Json.Bool (entry.journal <> None));
             ( "recovery",
               Obs.Json.Str (Option.value ~default:"none" entry.recovery) );
             ( "journal_records",
               json_num
                 (match entry.journal with
                 | Some j -> Journal.records_since_snapshot j
                 | None -> 0) );
           ]
       @ only (lane_count t > 1)
           [ ("lane", json_num (lane_of_session t entry.id)) ]))

let last_result ~line entry =
  let session = entry.session in
  match Session.last_result session with
  | None -> Error (exec_error ~line "no resolution yet")
  | Some r ->
      let stats = r.Engine.stats in
      Ok
        (Protocol.ok_line
           [
             ( "engine",
               Obs.Json.Str (Engine.choice_name stats.Engine.engine_used) );
             ("objective", Obs.Json.Num stats.Engine.objective);
             ( "status",
               Obs.Json.Str (Deadline.status_name stats.Engine.status) );
             ("hard_violations", json_num stats.Engine.hard_violations);
             ( "resolution",
               Tecore.Json_out.of_resolution
                 ~namespace:(Session.namespace session)
                 r.Engine.resolution );
           ])

(* [load], [assert], [retract], [rule]/[constraint] and [unrule]: the
   edit language's one executor, then the write-ahead record. *)
let edit ~line ~trace ~raw cmd entry =
  let str s = Obs.Json.Str s in
  let journaled field v =
    persist entry ~line ~trace ~raw (Protocol.ok_line [ (field, v) ])
  in
  match Tecore.Script.apply entry.session cmd with
  | Error msg -> Error (exec_error ~line msg)
  | Ok (Tecore.Script.Loaded { path; facts }) ->
      persist_snapshot entry ~line
        (Protocol.ok_line [ ("loaded", str path); ("facts", json_num facts) ])
  | Ok (Tecore.Script.Asserted q) ->
      journaled "asserted" (str (Kg.Quad.to_string q))
  | Ok (Tecore.Script.Retracted q) ->
      journaled "retracted" (str (Kg.Quad.to_string q))
  | Ok (Tecore.Script.Added rules) ->
      journaled "added"
        (Obs.Json.Arr
           (List.map (fun (r : Logic.Rule.t) -> str r.Logic.Rule.name) rules))
  | Ok (Tecore.Script.Removed name) -> journaled "removed" (str name)

let diff entry =
  let session = entry.session in
  let text =
    match (Session.graph session, Session.last_result session) with
    | Some g, Some r ->
        Format.asprintf "%a" Tecore.Diff.pp
          (Tecore.Diff.diff g r.Engine.resolution.Tecore.Conflict.consistent)
    | _ -> "no resolution yet"
  in
  Ok (Protocol.ok_line [ ("diff", Obs.Json.Str text) ])

(* One parsed request, executed. [trace] is the request's phases when
   it was sampled — its presence also gates the trace-only response
   fields, so untraced servers keep their exact response bytes. *)
let handle_request t conn_state ~line ~trace parsed raw =
  let locked k = locked t conn_state ~line ~trace k in
  let raw = Protocol.strip_cr raw in
  let ok field v = Ok (Protocol.ok_line [ (field, v) ]) in
  let result =
    match parsed with
    | Error e -> Error e
    | Ok Protocol.Ping -> ok "pong" (Obs.Json.Bool true)
    | Ok Protocol.Quit -> ok "bye" (Obs.Json.Bool true)
    | Ok Protocol.Shutdown when t.config.allow_shutdown ->
        ok "stopping" (Obs.Json.Bool true)
    | Ok Protocol.Shutdown ->
        Error (exec_error ~line "shutdown is disabled on this server")
    | Ok Protocol.Metrics -> ok "metrics" (Obs.Json.Str (metrics_text t))
    | Ok (Protocol.Trace n) ->
        Atomic.set t.trace_period n;
        ok "trace" (json_num n)
    | Ok (Protocol.Tail k) -> tail t k
    | Ok (Protocol.Hello id) -> hello t conn_state ~line ~trace id
    | Ok Protocol.Open_ -> locked (open_graph ~line ~trace ~raw)
    | Ok Protocol.Stat -> locked (stat t)
    | Ok Protocol.Result_ -> locked (last_result ~line)
    | Ok (Protocol.Cmd cmd) -> (
        match cmd with
        | Tecore.Script.Resolve mode ->
            with_entry t conn_state ~line (fun entry ->
                submit_resolve t ~line ~trace entry mode)
        | Tecore.Script.Assert_ _ | Tecore.Script.Retract _ ->
            with_graph t conn_state ~line ~trace (edit ~line ~trace ~raw cmd)
        | Tecore.Script.Load _ | Tecore.Script.Rule _ | Tecore.Script.Unrule _
          ->
            locked (edit ~line ~trace ~raw cmd)
        | Tecore.Script.Diff -> locked diff)
  in
  count_outcome t result;
  result

(* ------------------------------------------------------------------ *)
(* Connection and accept loops                                         *)
(* ------------------------------------------------------------------ *)

let remove_conn t fd =
  Mutex.lock t.conns_lock;
  t.conns <- List.filter (fun c -> c != fd) t.conns;
  Mutex.unlock t.conns_lock;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* A request's phases in the canonical taxonomy: repeated phases sum
   (the session and solve locks of one resolve), and phases that never
   occurred stay absent. *)
let canonical_phases tr =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (n, ms) ->
      Hashtbl.replace tbl n
        (ms +. Option.value ~default:0.0 (Hashtbl.find_opt tbl n)))
    tr.phases;
  Access_log.in_phase_order tbl

let emit_trace t ~req ~session ~parsed ~result ~wall tr =
  let verb =
    match parsed with
    | Ok r -> Protocol.request_verb r
    | Error _ -> "invalid"
  in
  let lane =
    (* Like the stat field: lane ids ride traced records only on
       multi-lane servers, so single-lane logs keep their exact
       previous schema. *)
    match session with
    | Some id when lane_count t > 1 -> Some (lane_of_session t id)
    | _ -> None
  in
  record_trace t
    {
      Access_log.req;
      ts = Unix.gettimeofday ();
      session;
      lane;
      verb;
      outcome = outcomes.(outcome_index result);
      wall_ms = wall;
      phases = canonical_phases tr;
    }

let connection_loop t fd =
  let reader = Reader.create ~max:t.config.max_line_bytes fd in
  let conn_state = ref None in
  let line = ref 0 in
  let rec loop () =
    match Reader.read_line reader with
    | `Eof -> ()
    | `Too_long ->
        incr line;
        Atomic.incr t.requests;
        let e =
          Protocol.error Protocol.Parse ~line:!line
            (Printf.sprintf "request exceeds %d bytes" t.config.max_line_bytes)
        in
        count_outcome t (Error e);
        send_line fd (Protocol.err_line e);
        loop ()
    | `Line raw -> (
        incr line;
        (* Request ids are unique and monotone across all connections:
           the fetch-and-add is the same counter behind
           [serve_requests_total]. *)
        let req = 1 + Atomic.fetch_and_add t.requests 1 in
        let period = Atomic.get t.trace_period in
        let trace =
          if period > 0 && (period = 1 || req mod period = 0) then
            Some { phases = [] }
          else None
        in
        let t_start =
          match trace with Some _ -> Prelude.Timing.now_ms () | None -> 0.0
        in
        let parsed =
          timed trace "parse" (fun () -> Protocol.parse_request ~line:!line raw)
        in
        let result =
          (* Nothing a request does may escape the loop: any unexpected
             exception is contained as a typed internal error and the
             connection keeps serving. *)
          try handle_request t conn_state ~line:!line ~trace parsed raw
          with e ->
            let err =
              Protocol.error Protocol.Internal ~line:!line
                ("internal error: " ^ Printexc.to_string e)
            in
            count_outcome t (Error err);
            Error err
        in
        (match !conn_state with
        | Some entry -> Atomic.incr entry.served
        | None -> ());
        let response =
          match result with Ok s -> s | Error e -> Protocol.err_line e
        in
        let response =
          match trace with
          | Some _ -> Protocol.with_request_id ~req response
          | None -> response
        in
        timed trace "reply" (fun () -> send_line fd response);
        Option.iter
          (fun tr ->
            let wall = Prelude.Timing.now_ms () -. t_start in
            let session = Option.map (fun e -> e.id) !conn_state in
            emit_trace t ~req ~session ~parsed ~result ~wall tr)
          trace;
        match parsed with
        | Ok Protocol.Quit -> ()
        | Ok Protocol.Shutdown when t.config.allow_shutdown ->
            Atomic.set t.stop_requested true;
            Mutex.lock t.queue_lock;
            Array.iter (fun l -> Condition.broadcast l.lcv) t.lanes;
            Mutex.unlock t.queue_lock
        | _ -> loop ())
  in
  (try loop () with _ -> ());
  remove_conn t fd

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop_requested then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              Mutex.lock t.conns_lock;
              t.conns <- fd :: t.conns;
              let th = Thread.create (fun () -> connection_loop t fd) () in
              t.conn_threads <- th :: t.conn_threads;
              Mutex.unlock t.conns_lock
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Idle-session TTL                                                    *)
(* ------------------------------------------------------------------ *)

(* Expire sessions idle past the TTL. With a state dir this parks them:
   the journal is closed (all acked edits are already on disk) and a
   later [hello] transparently recovers the session; without one the
   in-memory state is discarded. Connections still attached get a typed
   [expired] error on their next request. *)
let janitor_loop t ttl =
  let period = Float.max 0.02 (Float.min (ttl /. 4.) 0.5) in
  while not (Atomic.get t.stop_requested) do
    Thread.delay period;
    let now = Unix.gettimeofday () in
    Mutex.lock t.registry_lock;
    let stale =
      Hashtbl.fold
        (fun _ e acc -> if now -. e.last_wall > ttl then e :: acc else acc)
        t.sessions []
    in
    List.iter
      (fun e ->
        e.expired <- true;
        Hashtbl.remove t.sessions e.id)
      stale;
    Mutex.unlock t.registry_lock;
    List.iter
      (fun e ->
        release_journal e;
        Atomic.incr t.expired_total)
      stale
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) (listen : listen) =
  let domain, sockaddr =
    match listen with
    | `Tcp port ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    | `Unix path ->
        (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ());
        (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd sockaddr;
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let sockaddr = Unix.getsockname fd in
  let addr_str =
    match sockaddr with
    | Unix.ADDR_INET (_, p) -> Printf.sprintf "127.0.0.1:%d" p
    | Unix.ADDR_UNIX path -> path
  in
  let access_writer =
    match config.access_log with
    | None -> None
    | Some path -> (
        try
          Some
            (Access_log.open_writer ~path
               ~max_bytes:config.access_log_max_bytes
               ~keep:config.access_log_keep)
        with e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e)
  in
  (* An access log without an explicit sampling period traces every
     request — an empty log from `--access-log` would be a trap. *)
  let trace_every =
    if config.trace_every = 0 && access_writer <> None then 1
    else config.trace_every
  in
  let t =
    {
      config;
      listen_fd = fd;
      sockaddr;
      addr_str;
      sessions = Hashtbl.create 64;
      registry_lock = Mutex.create ();
      registry_clock = 0;
      evicted_total = Atomic.make 0;
      expired_total = Atomic.make 0;
      recovered_total = Atomic.make 0;
      lanes =
        Array.init (max 1 config.lanes) (fun i ->
            {
              lane_index = i;
              lqueue = Queue.create ();
              lcv = Condition.create ();
              lrunning = 0;
              lserved = Atomic.make 0;
              lthread = None;
            });
      queue_lock = Mutex.create ();
      solve_lock = Mutex.create ();
      journal_group =
        (match config.state_dir with
        | None -> None
        | Some _ -> Some (Journal.create_group ()));
      shed = Atomic.make 0;
      counters = Array.map (fun _ -> Atomic.make 0) outcomes;
      requests = Atomic.make 0;
      start_wall = Unix.gettimeofday ();
      trace_period = Atomic.make (max 0 trace_every);
      access_writer;
      trace_lock = Mutex.create ();
      phase_hists = Hashtbl.create 8;
      recent = Array.make 64 None;
      recent_head = 0;
      recent_len = 0;
      stop_requested = Atomic.make false;
      stopped = false;
      conns_lock = Mutex.create ();
      conns = [];
      conn_threads = [];
      accept_thread = None;
      janitor_thread = None;
    }
  in
  (* Startup recovery: rebuild the registry from every session directory
     under the state dir before accepting connections. A session whose
     recovery fails is skipped with a warning on stderr, never fatal; a
     later [hello] retries it. *)
  (match config.state_dir with
  | None -> ()
  | Some state_dir ->
      List.iter
        (fun id ->
          t.registry_clock <- t.registry_clock + 1;
          match recover_entry t ~state_dir id with
          | e -> Hashtbl.replace t.sessions id e
          | exception e ->
              Printf.eprintf "warning: session %S not recovered: %s\n%!" id
                (Option.value (io_message e) ~default:(Printexc.to_string e)))
        (Journal.list_sessions ~state_dir));
  Array.iter
    (fun lane ->
      lane.lthread <- Some (Thread.create (fun () -> lane_loop t lane) ()))
    t.lanes;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  (match config.idle_ttl_s with
  | Some ttl when ttl > 0. ->
      t.janitor_thread <- Some (Thread.create (fun () -> janitor_loop t ttl) ())
  | _ -> ());
  t

let connect t =
  let domain =
    match t.sockaddr with
    | Unix.ADDR_INET _ -> Unix.PF_INET
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd t.sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let request_stop t = Atomic.set t.stop_requested true

let stop t =
  Atomic.set t.stop_requested true;
  Mutex.lock t.queue_lock;
  let already = t.stopped in
  t.stopped <- true;
  Array.iter (fun l -> Condition.broadcast l.lcv) t.lanes;
  Mutex.unlock t.queue_lock;
  if not already then begin
    (* Wake blocked readers: a shutdown makes every connection thread's
       next read return EOF. *)
    Mutex.lock t.conns_lock;
    let conns = t.conns in
    Mutex.unlock t.conns_lock;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    Array.iter
      (fun l ->
        match l.lthread with Some th -> Thread.join th | None -> ())
      t.lanes;
    (match t.janitor_thread with Some th -> Thread.join th | None -> ());
    (* Every lane has exited; answer whatever is still queued on any of
       them. *)
    Mutex.lock t.queue_lock;
    Array.iter
      (fun l ->
        Queue.iter
          (fun job -> answer job (Error (shutting_down ~line:job.job_line)))
          l.lqueue;
        Queue.clear l.lqueue)
      t.lanes;
    Mutex.unlock t.queue_lock;
    let rec drain () =
      Mutex.lock t.conns_lock;
      let ths = t.conn_threads in
      t.conn_threads <- [];
      Mutex.unlock t.conns_lock;
      match ths with
      | [] -> ()
      | ths ->
          List.iter Thread.join ths;
          drain ()
    in
    drain ();
    (* Every connection thread has exited: no append can be in flight.
       Flush and release the journals for a clean next start. *)
    Mutex.lock t.registry_lock;
    let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.sessions [] in
    Mutex.unlock t.registry_lock;
    List.iter release_journal entries;
    (match t.access_writer with
    | Some w -> Access_log.close_writer w
    | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match t.sockaddr with
    | Unix.ADDR_UNIX path -> (
        try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ())
    | _ -> ()
  end

let wait t =
  while not (Atomic.get t.stop_requested) do
    Thread.delay 0.1
  done;
  stop t

(* ------------------------------------------------------------------ *)
(* Scripted loopback driver                                            *)
(* ------------------------------------------------------------------ *)

module Driver = struct
  type client = { fd : Unix.file_descr; reader : Reader.t }

  type dcmd =
    | Connect of string
    | Send of string * string
    | Post of string * string
    | Recv of string
    | Await_busy
    | Await_idle
    | Close of string

  let parse_line ~path ~line raw =
    let raw = Protocol.strip_cr raw in
    let keyword, payload, col_kw, col_arg = Tecore.Script.split_keyword raw in
    let err column message =
      Error { Tecore.Script.path; line; column; message }
    in
    let name_and_rest what k =
      let name, rest, _, _ = Tecore.Script.split_keyword payload in
      if name = "" then err col_arg (what ^ ": missing client name")
      else k name rest
    in
    if keyword = "" || keyword.[0] = '#' then Ok None
    else
      match keyword with
      | "connect" ->
          name_and_rest "connect" (fun name rest ->
              if rest = "" then Ok (Some (Connect name))
              else err col_arg "connect takes only a client name")
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
      | other -> err col_kw (Printf.sprintf "unknown driver command %S" other)

  let run ~server fmt ~path text =
    let exception Halt of Tecore.Script.error in
    let clients : (string, client) Hashtbl.t = Hashtbl.create 8 in
    let fail ~line column message =
      raise (Halt { Tecore.Script.path; line; column; message })
    in
    let client ~line name =
      match Hashtbl.find_opt clients name with
      | Some c -> c
      | None ->
          fail ~line 1 (Printf.sprintf "no connected client named %S" name)
    in
    let out fmt_str = Format.fprintf fmt fmt_str in
    let await ~line what cond =
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec go () =
        if cond () then ()
        else if Unix.gettimeofday () > deadline then
          fail ~line 1 (what ^ ": timed out after 10 s")
        else begin
          Thread.delay 0.002;
          go ()
        end
      in
      go ()
    in
    let recv ~line name c =
      match Reader.read_line c.reader with
      | `Line resp -> out "%s< %s@." name resp
      | `Too_long -> fail ~line 1 (name ^ ": oversized response")
      | `Eof -> out "%s< (connection closed)@." name
    in
    let exec ~line cmd =
      match cmd with
      | Connect name ->
          if Hashtbl.mem clients name then
            fail ~line 1 (Printf.sprintf "client %S already connected" name);
          let fd = connect server in
          Hashtbl.replace clients name
            { fd; reader = Reader.create ~max:(1 lsl 22) fd };
          out "%s connected@." name
      | Send (name, req) ->
          let c = client ~line name in
          out "%s> %s@." name req;
          send_line c.fd req;
          recv ~line name c
      | Post (name, req) ->
          let c = client ~line name in
          out "%s> %s@." name req;
          send_line c.fd req
      | Recv name -> recv ~line name (client ~line name)
      | Await_busy -> await ~line "await-busy" (fun () -> busy server)
      | Await_idle ->
          await ~line "await-idle" (fun () ->
              (not (busy server)) && queue_depth server = 0)
      | Close name ->
          let c = client ~line name in
          (try Unix.close c.fd with Unix.Unix_error _ -> ());
          Hashtbl.remove clients name;
          out "%s closed@." name
    in
    let lines = String.split_on_char '\n' text in
    let result =
      try
        List.iteri
          (fun i raw ->
            let line = i + 1 in
            match parse_line ~path ~line raw with
            | Ok None -> ()
            | Ok (Some cmd) -> exec ~line cmd
            | Error e -> raise (Halt e))
          lines;
        Ok ()
      with Halt e -> Error e
    in
    Hashtbl.iter
      (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      clients;
    result
end
