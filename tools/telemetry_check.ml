(* Validate telemetry export files produced by `tecore resolve`:

     telemetry_check trace FILE [--min-lanes N]
       FILE must parse as JSON and pass the Chrome trace_event checks
       (complete "X" events with name/cat/ph/ts/dur/pid/tid, at least N
       distinct lanes).

     telemetry_check metrics FILE
       FILE must pass the OpenMetrics text-exposition grammar check.

     telemetry_check accesslog FILE
       FILE must be a tecore serve access log: every line a valid
       JSON-lines request record whose phases are all named in the
       phase taxonomy and whose per-phase durations sum to at most the
       recorded wall time (within tolerance). A torn final
       line — the signature of a crash mid-append — is tolerated with
       a warning; any other malformed line fails.

   Exit status 0 when valid, 1 with a diagnostic on stderr otherwise.
   Used by scripts/ci.sh to gate the telemetry smoke run. *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "telemetry_check: %s\n" msg;
    exit 1

let fail fmt = Printf.ksprintf (fun msg ->
    Printf.eprintf "telemetry_check: %s\n" msg;
    exit 1)
  fmt

let usage () =
  prerr_endline
    "usage: telemetry_check trace FILE [--min-lanes N]\n\
    \       telemetry_check metrics FILE\n\
    \       telemetry_check accesslog FILE";
  exit 1

let check_trace path min_lanes =
  let text = read_file path in
  let json =
    match Obs.Json.parse text with
    | Ok json -> json
    | Error msg -> fail "%s: %s" path msg
  in
  match Obs.Export.validate_trace ~min_lanes json with
  | Ok () -> Printf.printf "%s: valid Chrome trace\n" path
  | Error msg -> fail "%s: %s" path msg

let check_metrics path =
  match Obs.Export.validate_metrics (read_file path) with
  | Ok () -> Printf.printf "%s: valid OpenMetrics exposition\n" path
  | Error msg -> fail "%s: %s" path msg

(* Phase durations are disjoint intervals inside the request's wall
   time, so their sum can only exceed it by timer quantisation noise:
   allow 5% plus a fixed millisecond. *)
let phase_sum_tolerable ~wall sum = sum <= (wall *. 1.05) +. 1.0

let check_accesslog path =
  let records, warnings =
    try Serve.Access_log.read_file path
    with Sys_error msg -> fail "%s" msg
  in
  List.iter
    (fun w ->
      match w with
      | Serve.Access_log.Torn_tail _ ->
          Printf.printf "%s: warning: %s\n" path
            (Serve.Access_log.warning_to_string w)
      | Serve.Access_log.Bad_record _ ->
          fail "%s: %s" path (Serve.Access_log.warning_to_string w))
    warnings;
  List.iter
    (fun (r : Serve.Access_log.record) ->
      List.iter
        (fun (p, _) ->
          if not (List.mem p Serve.Access_log.phase_names) then
            fail "%s: req %d: phase %S is not in the taxonomy" path r.req p)
        r.phases;
      let sum =
        List.fold_left (fun acc (_, ms) -> acc +. ms) 0. r.phases
      in
      if not (phase_sum_tolerable ~wall:r.wall_ms sum) then
        fail
          "%s: req %d: phase durations sum to %.3f ms, exceeding the \
           %.3f ms wall time"
          path r.req sum r.wall_ms)
    records;
  Printf.printf "%s: valid access log (%d records)\n" path
    (List.length records)

let () =
  match Array.to_list Sys.argv with
  | [ _; "trace"; path ] -> check_trace path 1
  | [ _; "trace"; path; "--min-lanes"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> check_trace path n
      | _ -> fail "--min-lanes expects a positive integer, got %S" n)
  | [ _; "metrics"; path ] -> check_metrics path
  | [ _; "accesslog"; path ] -> check_accesslog path
  | _ -> usage ()
