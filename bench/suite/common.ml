(* Types and helpers shared by the workloads. *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;  (** measurement window *)
  trace : bool;  (** per-layer run instead of the end-to-end one *)
  quick : bool;  (** toy-size inputs, for the self-test *)
  tecore : string;  (** the [tecore] CLI binary, for the serve daemon *)
  tmp : string;  (** this run's scratch directory *)
}

(* What one workload run reports. [failures] holds one message per failed
   operation or check; [metrics] is keyed by the names in BENCHMARK.json;
   [fingerprint] is the deterministic summary of the outputs that must not
   change from run to run; [detail] goes to the results file only. *)
type outcome = {
  attempted : int;
  failures : string list;
  metrics : (string * float) list;
  fingerprint : Obs.Json.t;
  detail : (string * Obs.Json.t) list;
}

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

let num x = Obs.Json.Num x
let int n = Obs.Json.Num (float_of_int n)

(* Peak resident set of a process ([VmHWM], in MB), read from procfs. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        match String.split_on_char ':' line with
        | [ "VmHWM"; rest ] ->
            Scanf.sscanf (String.trim rest) "%d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      try scan ()
      with End_of_file -> failwith ("no VmHWM line in " ^ path))

(* The quality metrics score the inputs of this seed, whatever [--seed]
   is. Scored on the run's own inputs they would move with the seed, and
   then no bound tighter than that spread could gate them; on fixed
   inputs they are exact, so any loss of quality shows. *)
let quality_seed = 1

(* Removed facts scored against the planted noise: precision is the
   share of removed facts that were planted, recall the share of planted
   facts that were removed. [hits] counts the facts that were both. *)
let quality ~hits ~removed ~planted =
  let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  (share hits removed, share hits planted)

(* A latency distribution for the results file: sample count, median,
   the highest percentile with at least ten samples beyond it, and the
   samples in the order they were taken. *)
let distribution xs =
  let n = List.length xs in
  Obs.Json.Obj
    ([ ("n", int n); ("p50", num (Stats.median xs)) ]
    @ (match Stats.tail_percentile n with
      | Some p when p > 0.5 ->
          [ ("tail_q", num p); ("tail", num (Stats.percentile p xs)) ]
      | _ -> [])
    @ [ ("samples", Obs.Json.Arr (List.rev_map num xs)) ])

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
