(* Structured JSON-lines access log for [tecore serve]: one record per
   traced request, a size-rotated writer shared by all connection
   threads, and a crash-tolerant reader/analyzer. Like the journal, the
   file is append-only and a SIGKILL mid-write can only damage the last
   line; unlike the journal the lines carry no CRC, so "torn" simply
   means the final line does not parse and the reader skips it with a
   typed warning. *)

type record = {
  req : int;
  ts : float; (* Unix epoch seconds at request completion *)
  session : string option;
  lane : int option; (* resolver lane of the session, on multi-lane servers *)
  verb : string;
  outcome : string; (* "ok" or the typed error kind *)
  wall_ms : float;
  phases : (string * float) list; (* canonical order, ms *)
}

(* The phase taxonomy, in reporting order. A record carries only the
   phases that actually occurred (a cache-hit resolve has no ground or
   solve entry), so consumers must treat absence as zero. *)
let phase_names =
  [ "parse"; "queue"; "lock"; "ground"; "solve"; "journal"; "fsync"; "reply" ]

let record_to_json r =
  Obs.Json.Obj
    ([
       ("req", Obs.Json.Num (float_of_int r.req));
       ("ts", Obs.Json.Num r.ts);
     ]
    @ (match r.session with
      | Some s -> [ ("session", Obs.Json.Str s) ]
      | None -> [])
    @ (match r.lane with
      | Some l -> [ ("lane", Obs.Json.Num (float_of_int l)) ]
      | None -> [])
    @ [
        ("verb", Obs.Json.Str r.verb);
        ("outcome", Obs.Json.Str r.outcome);
        ("wall_ms", Obs.Json.Num r.wall_ms);
        ( "phases",
          Obs.Json.Obj
            (List.map (fun (p, ms) -> (p, Obs.Json.Num ms)) r.phases) );
      ])

let record_to_line r = Obs.Json.to_string (record_to_json r)

let record_of_json j =
  let ( let* ) = Result.bind in
  let num name =
    match Obs.Json.member name j with
    | Some (Obs.Json.Num v) -> Ok v
    | _ -> Error (Printf.sprintf "missing numeric field %S" name)
  in
  let str name =
    match Obs.Json.member name j with
    | Some (Obs.Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" name)
  in
  let* req = num "req" in
  let* ts = num "ts" in
  let session =
    match Obs.Json.member "session" j with
    | Some (Obs.Json.Str s) -> Some s
    | _ -> None
  in
  let lane =
    match Obs.Json.member "lane" j with
    | Some (Obs.Json.Num v)
      when v >= 0.0 && Float.of_int (Float.to_int v) = v ->
        Some (Float.to_int v)
    | _ -> None
  in
  let* verb = str "verb" in
  let* outcome = str "outcome" in
  let* wall_ms = num "wall_ms" in
  let* phases =
    match Obs.Json.member "phases" j with
    | Some (Obs.Json.Obj fields) ->
        List.fold_left
          (fun acc (p, v) ->
            let* acc = acc in
            match v with
            | Obs.Json.Num ms when ms >= 0.0 -> Ok ((p, ms) :: acc)
            | Obs.Json.Num _ ->
                Error (Printf.sprintf "negative phase %S" p)
            | _ -> Error (Printf.sprintf "non-numeric phase %S" p))
          (Ok []) fields
        |> Result.map List.rev
    | _ -> Error "missing object field \"phases\""
  in
  if req < 1.0 || Float.of_int (Float.to_int req) <> req then
    Error "field \"req\" is not a positive integer"
  else if wall_ms < 0.0 then Error "negative \"wall_ms\""
  else
    Ok
      {
        req = Float.to_int req;
        ts;
        session;
        lane;
        verb;
        outcome;
        wall_ms;
        phases;
      }

let record_of_line line =
  match Obs.Json.parse line with
  | Error e -> Error e
  | Ok j -> record_of_json j

(* ------------------------------------------------------------------ *)
(* Writer.                                                             *)

type writer = {
  path : string;
  max_bytes : int;
  keep : int;
  wlock : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable bytes : int;
}

let open_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

let open_writer ~path ~max_bytes ~keep =
  let fd = open_fd path in
  {
    path;
    max_bytes = max 1024 max_bytes;
    keep = max 1 keep;
    wlock = Mutex.create ();
    fd;
    bytes = (Unix.fstat fd).Unix.st_size;
  }

let rotated_path w k = Printf.sprintf "%s.%d" w.path k

(* FILE -> FILE.1 -> ... -> FILE.keep; the oldest rotated file is
   discarded. Called with the writer lock held. *)
let rotate w =
  Unix.close w.fd;
  (try Unix.unlink (rotated_path w w.keep) with Unix.Unix_error _ -> ());
  for k = w.keep - 1 downto 1 do
    try Unix.rename (rotated_path w k) (rotated_path w (k + 1))
    with Unix.Unix_error _ -> ()
  done;
  (try Unix.rename w.path (rotated_path w 1) with Unix.Unix_error _ -> ());
  w.fd <- open_fd w.path;
  w.bytes <- 0

let write w r =
  let b = Bytes.of_string (record_to_line r ^ "\n") in
  let len = Bytes.length b in
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      (* Rotate before the write that would overflow, but never leave
         the live file empty: a record larger than [max_bytes] still
         lands somewhere. *)
      if w.bytes > 0 && w.bytes + len > w.max_bytes then rotate w;
      Journal.write_all w.fd b 0 len;
      w.bytes <- w.bytes + len)

let close_writer w =
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () -> try Unix.close w.fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Reader / analyzer.                                                  *)

type warning =
  | Torn_tail of { line : int }
  | Bad_record of { line : int; reason : string }

let warning_to_string = function
  | Torn_tail { line } ->
      Printf.sprintf "torn tail: line %d is incomplete and was skipped" line
  | Bad_record { line; reason } ->
      Printf.sprintf "bad record at line %d: %s" line reason

let read_file path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let lines = String.split_on_char '\n' contents in
  (* A well-formed log ends with '\n', so the split yields a trailing
     "" sentinel; its absence already means the tail was torn. *)
  let rec go n acc warns = function
    | [] | [ "" ] -> (List.rev acc, List.rev warns)
    | [ last ] -> (
        match record_of_line last with
        | Ok r -> (List.rev (r :: acc), List.rev warns)
        | Error _ ->
            (* Interrupted final write (SIGKILL mid-append): skip it. *)
            (List.rev acc, List.rev (Torn_tail { line = n } :: warns)))
    | line :: rest -> (
        match record_of_line line with
        | Ok r -> go (n + 1) (r :: acc) warns rest
        | Error reason ->
            go (n + 1) acc (Bad_record { line = n; reason } :: warns) rest)
  in
  go 1 [] [] lines

(* ------------------------------------------------------------------ *)
(* Offline statistics — same [Obs.Histogram] machinery as the server's
   live [serve_request_phase_ms] summaries, so quantiles computed here
   from a complete log are identical to the scraped ones. *)

type stats = {
  total : int;
  wall : Obs.Histogram.t;
  phase_hists : (string * Obs.Histogram.t) list; (* canonical order *)
  slowest : record list; (* slowest first *)
}

let add_phases tbl phases =
  List.iter
    (fun (p, ms) ->
      let h =
        match Hashtbl.find_opt tbl p with
        | Some h -> h
        | None ->
            let h = Obs.Histogram.create () in
            Hashtbl.add tbl p h;
            h
      in
      Obs.Histogram.add h ms)
    phases

let in_phase_order tbl =
  List.filter_map
    (fun p -> Option.map (fun v -> (p, v)) (Hashtbl.find_opt tbl p))
    phase_names

let stats ?(top = 10) records =
  let wall = Obs.Histogram.create () in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Obs.Histogram.add wall r.wall_ms;
      add_phases tbl r.phases)
    records;
  let phase_hists = in_phase_order tbl in
  let slowest =
    List.stable_sort (fun a b -> Float.compare b.wall_ms a.wall_ms) records
    |> List.filteri (fun i _ -> i < max 0 top)
  in
  { total = List.length records; wall; phase_hists; slowest }
