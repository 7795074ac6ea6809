(* TeCoRe benchmark suite: one seeded, layer-attributed benchmark.

     suite.exe run --workload W --seed N [--seconds S] --trace 0|1
     suite.exe test                 # statistics units + quick pass
     suite.exe study                # repeatability study
     suite.exe table                # README tables: study and E3

   [run] measures one workload and prints each metric of BENCHMARK.json
   by name and unit, then, as its last line, one JSON object with
   [correct], [attempted], [failed] and [metrics]; the end-to-end metrics
   with [--trace 0], the per-layer ones with [--trace 1]. It exits 1 when
   an output was wrong and 2 when the run could not complete. A run
   without [--seconds], and every run of [study] and [table], measures for
   BENCHMARK.json's [run_seconds]. See README.md in this directory. *)

open Common

(* Each workload with the layers its traced run goes through, as metric
   name prefixes. The traced run must measure every per-layer metric of
   those layers, nonzero; the others it reports as 0. *)
let workloads =
  [
    ("fb-mln", [ "grounder."; "mln."; "tecore."; "obs." ]);
    ("fb-psl", [ "grounder."; "psl."; "tecore."; "obs." ]);
    ("wd-psl", [ "grounder."; "psl."; "tecore."; "obs." ]);
    ("serve-mixed", [ "serve."; "obs." ]);
  ]

let workload_names = List.map fst workloads

(* ---------------------------------------------------------------- *)
(* BENCHMARK.json                                                     *)

type metric_def = { name : string; unit_ : string; better : Stats.better; bound : float }

let read_json path =
  match Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let metric_defs bench key =
  match Obs.Json.member key bench with
  | Some (Obs.Json.Arr items) ->
      List.map
        (fun m ->
          let str k =
            match Obs.Json.member k m with
            | Some (Obs.Json.Str s) -> s
            | _ -> failwith (Printf.sprintf "BENCHMARK.json: %s entry without %s" key k)
          in
          {
            name = str "name";
            unit_ = str "unit";
            better =
              (match Stats.better_of_string (str "better") with
              | Some b -> b
              | None -> failwith ("BENCHMARK.json: bad direction for " ^ str "name"));
            bound =
              (match Obs.Json.member "bound" m with Some (Obs.Json.Num b) -> b | _ -> 0.);
          })
        items
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* Whether a run of [workload] must measure metric [d]: every end-to-end
   metric, and the per-layer metrics of the layers the workload runs. *)
let required ~workload ~trace d =
  (not trace)
  || List.exists
       (fun prefix -> String.starts_with ~prefix d.name)
       (List.assoc workload workloads)

(* Each metric of [defs] with the value a run reports for it, and what is
   wrong with [measured]: a required metric that is missing, 0 or not
   finite, or a measured one that is not required or not in [defs]. A
   metric that is not required is reported as 0. *)
let settle ~required defs measured =
  let problems = ref [] in
  let problem m = problems := m :: !problems in
  let metrics =
    List.map
      (fun d ->
        match List.assoc_opt d.name measured with
        | None ->
            if required d then problem (d.name ^ " was not measured");
            (d, 0.)
        | Some v ->
            if not (required d) then problem (d.name ^ " was measured but is not required")
            else if not (Float.is_finite v) then problem (d.name ^ " is not finite")
            else if v = 0. then problem (d.name ^ " is 0");
            (d, v))
      defs
  in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun d -> d.name = n) defs) then
        problem ("metric " ^ n ^ " is not in BENCHMARK.json"))
    measured;
  (metrics, List.rev !problems)

(* ---------------------------------------------------------------- *)
(* Flags                                                              *)

(* Each subcommand's flags, with their defaults. The four of [common]
   locate the inputs and are passed on to child runs. *)
let common =
  [
    ("tecore", "_build/default/bin/tecore_cli.exe");
    ("expected", "bench/suite/expected.json");
    ("benchmark", "BENCHMARK.json");
    ("workdir", ".bench_suite");
  ]

let own_flags = function
  | "run" -> [ ("workload", ""); ("seed", "1"); ("seconds", ""); ("trace", "0"); ("quick", "false") ]
  | "study" -> [ ("out", ""); ("baseline", "") ]
  | _ -> []

let settings : (string * string ref) list ref = ref []
let get name = !(List.assoc name !settings)

let seconds () =
  match List.assoc_opt "seconds" !settings with
  | Some { contents = s } when s <> "" -> s
  | _ -> (
      match Obs.Json.member "run_seconds" (read_json (get "benchmark")) with
      | Some (Obs.Json.Num s) -> Printf.sprintf "%g" s
      | _ -> failwith "BENCHMARK.json: no run_seconds")

(* ---------------------------------------------------------------- *)
(* run                                                                *)

let pinned_key (o : opts) = o.workload ^ if o.quick then "/quick" else ""

let results_path ~workdir (o : opts) =
  Filename.concat (Filename.concat workdir "results")
    (Printf.sprintf "%s%s%s.json" o.workload
       (if o.quick then "-quick" else "")
       (if o.trace then "-trace" else ""))

let run_workload (o : opts) =
  match o.workload with
  | "fb-mln" -> Batch.run (Batch.footballdb (Tecore.Engine.Mln Mln.Map_inference.default_options)) o
  | "fb-psl" -> Batch.run (Batch.footballdb (Tecore.Engine.Psl Psl.Npsl.default_options)) o
  | "wd-psl" -> Batch.run Batch.wikidata o
  | "serve-mixed" -> Serve_mixed.run o
  | w -> invalid_arg ("run_workload " ^ w)

let run () =
  let bench = read_json (get "benchmark") in
  let workdir = get "workdir" in
  let o =
    {
      workload = get "workload";
      seed = int_of_string (get "seed");
      seconds = float_of_string (seconds ());
      trace =
        (match get "trace" with
        | "0" -> false
        | "1" -> true
        | t -> failwith ("--trace takes 0 or 1, not " ^ t));
      quick = get "quick" = "true";
      tecore = get "tecore";
      tmp = Filename.concat workdir (Printf.sprintf "tmp-%d" (Unix.getpid ()));
    }
  in
  if not (List.mem_assoc o.workload workloads) then
    failwith
      (Printf.sprintf "unknown workload %S (known: %s)" o.workload
         (String.concat ", " workload_names));
  let defs = metric_defs bench (if o.trace then "per_layer" else "end_to_end") in
  mkdir_p o.tmp;
  at_exit (fun () -> remove_tree o.tmp);
  let outcome = run_workload o in
  let pin_failures =
    if o.seed <> 1 then []
    else
      match Obs.Json.member (pinned_key o) (read_json (get "expected")) with
      | Some pinned when pinned = outcome.fingerprint -> []
      | Some pinned ->
          [ Printf.sprintf "fingerprint %s differs from the pinned %s"
              (Obs.Json.to_string outcome.fingerprint) (Obs.Json.to_string pinned) ]
      | None -> [ "no pinned fingerprint for " ^ pinned_key o ]
  in
  let metrics, metric_failures =
    settle ~required:(required ~workload:o.workload ~trace:o.trace) defs outcome.metrics
  in
  let failures = outcome.failures @ pin_failures @ metric_failures in
  let failed = min outcome.attempted (List.length failures) in
  let correct = failures = [] in
  List.iter prerr_endline failures;
  let metrics_json =
    Obs.Json.Obj
      (List.map
         (fun (d, v) ->
           (d.name, Obs.Json.Obj [ ("value", num v); ("unit", Obs.Json.Str d.unit_) ]))
         metrics)
  in
  let path = results_path ~workdir o in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("schema", Obs.Json.Str "tecore-bench-suite/1");
                ("workload", Obs.Json.Str o.workload);
                ("seed", int o.seed);
                ("seconds", num o.seconds);
                ("trace", Obs.Json.Bool o.trace);
                ("quick", Obs.Json.Bool o.quick);
                ("correct", Obs.Json.Bool correct);
                ("attempted", int outcome.attempted);
                ("failed", int failed);
                ("failures", Obs.Json.Arr (List.map (fun s -> Obs.Json.Str s) failures));
                ("metrics", metrics_json);
                ("fingerprint", outcome.fingerprint);
                ("detail", Obs.Json.Obj outcome.detail);
              ]));
      output_char oc '\n');
  List.iter (fun (d, v) -> Printf.printf "%-28s %14.4f %s\n" d.name v d.unit_) metrics;
  Printf.printf "results: %s\n" path;
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", int outcome.attempted);
            ("failed", int failed);
            ("metrics", metrics_json);
          ]));
  if not correct then exit 1

(* ---------------------------------------------------------------- *)
(* Child runs, for test / study / table                               *)

(* Run this executable's [run] on one workload in a fresh process and
   return its exit status and standard output. *)
let child_run ?(extra = []) ?(stderr = Unix.stderr) ~workload ~seed ~seconds ~trace () =
  let args =
    [ Sys.executable_name; "run"; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; seconds; "--trace"; (if trace then "1" else "0") ]
    @ List.concat_map (fun (k, _) -> [ "--" ^ k; get k ]) common
    @ extra
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  (status, out)

let last_line out =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

(* ---------------------------------------------------------------- *)
(* test                                                               *)

let test () =
  let failures = ref 0 in
  let check what ok =
    if not ok then begin
      incr failures;
      Printf.printf "FAIL %s\n%!" what
    end
  in
  let close a b = Float.abs (a -. b) < 1e-9 in
  (* Statistics. Reference quartiles are Python's
     statistics.quantiles(values, n=4). *)
  check "median odd" (Stats.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "percentile nearest rank"
    (Stats.percentile 0.9 (List.init 10 (fun i -> float_of_int (i + 1))) = 9.);
  check "tail: 9 samples support nothing" (Stats.tail_percentile 9 = None);
  check "tail: 20 samples support p50" (Stats.tail_percentile 20 = Some 0.5);
  check "tail: 100 samples support p90" (Stats.tail_percentile 100 = Some 0.9);
  check "tail: 999 samples support p90 only" (Stats.tail_percentile 999 = Some 0.9);
  check "tail: 1000 samples support p99" (Stats.tail_percentile 1000 = Some 0.99);
  check "tail: 10000 samples support p99.9" (Stats.tail_percentile 10000 = Some 0.999);
  let q1, q3 = Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check "quartiles of 1..10" (close q1 2.75 && close q3 8.25);
  let q1, q3 = Stats.quartiles [ 10.; 12.; 11.; 13. ] in
  check "quartiles of four" (close q1 10.25 && close q3 12.75);
  check "quartiles of one" (Stats.quartiles [ 5. ] = (5., 5.));
  check "iqr share" (close (Stats.iqr_frac [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]) (5.5 /. 5.5));
  check "iqr of a constant" (Stats.iqr_frac [ 2.; 2.; 2. ] = 0.);
  check "lower: within bound" (not (Stats.regressed ~better:Stats.Lower ~bound:0.1 ~base:100. 109.));
  check "lower: beyond bound" (Stats.regressed ~better:Stats.Lower ~bound:0.1 ~base:100. 111.);
  check "lower: improvement" (not (Stats.regressed ~better:Stats.Lower ~bound:0.1 ~base:100. 50.));
  check "higher: beyond bound" (Stats.regressed ~better:Stats.Higher ~bound:0.05 ~base:1. 0.9);
  check "higher: within bound" (not (Stats.regressed ~better:Stats.Higher ~bound:0.05 ~base:1. 0.96));
  check "zero bound" (Stats.regressed ~better:Stats.Higher ~bound:0. ~base:1. 0.999);
  (* A required metric that is missing, 0 or not finite is a failure; so
     is a measured one that is not required. An Obs counter that is not
     found reads as nan, so a renamed counter fails the run. *)
  let def name = { name; unit_ = "count"; better = Stats.Lower; bound = 0. } in
  let defs = [ def "a.x"; def "a.y"; def "b.z" ] in
  let req d = String.starts_with ~prefix:"a." d.name in
  let problems measured = List.length (snd (settle ~required:req defs measured)) in
  check "settle: all required measured" (problems [ ("a.x", 1.); ("a.y", 2.) ] = 0);
  check "settle: unrequired reads 0"
    (List.assoc_opt "b.z"
       (List.map (fun (d, v) -> (d.name, v)) (fst (settle ~required:req defs [ ("a.x", 1.); ("a.y", 2.) ])))
    = Some 0.);
  check "settle: required missing" (problems [ ("a.x", 1.) ] = 1);
  check "settle: required 0" (problems [ ("a.x", 1.); ("a.y", 0.) ] = 1);
  check "settle: required nan" (problems [ ("a.x", 1.); ("a.y", Float.nan) ] = 1);
  check "settle: unrequired measured" (problems [ ("a.x", 1.); ("a.y", 2.); ("b.z", 3.) ] = 1);
  check "settle: unknown name" (problems [ ("a.x", 1.); ("a.y", 2.); ("c", 3.) ] = 1);
  Obs.reset ();
  check "missing Obs counter reads nan"
    (Float.is_nan (Batch.counters (Obs.Report.capture ()) "walksat.flips"));
  (* Quick pass: every workload at toy size, both modes, through the
     same command line the benchmark uses. *)
  let bench = read_json (get "benchmark") in
  let validate ~workload ~trace (status, out) =
    let what = Printf.sprintf "%s trace=%b" workload trace in
    let defs = metric_defs bench (if trace then "per_layer" else "end_to_end") in
    check (what ^ ": exit 0") (status = Unix.WEXITED 0);
    match Obs.Json.parse (last_line out) with
    | Error e -> check (what ^ ": last line is JSON (" ^ e ^ ")") false
    | Ok (Obs.Json.Obj fields as j) ->
        check (what ^ ": keys")
          (List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ]);
        check (what ^ ": correct") (Obs.Json.member "correct" j = Some (Obs.Json.Bool true));
        check (what ^ ": failed = 0") (Obs.Json.member "failed" j = Some (Obs.Json.Num 0.));
        (match Obs.Json.member "attempted" j with
        | Some (Obs.Json.Num n) -> check (what ^ ": attempted >= 1") (n >= 1. && Float.is_integer n)
        | _ -> check (what ^ ": attempted") false);
        (match Obs.Json.member "metrics" j with
        | Some (Obs.Json.Obj ms) ->
            check (what ^ ": metric names") (List.map fst ms = List.map (fun d -> d.name) defs);
            List.iter
              (fun d ->
                match Option.bind (List.assoc_opt d.name ms) (Obs.Json.member "value") with
                | Some (Obs.Json.Num v) ->
                    check (what ^ ": " ^ d.name ^ " unit")
                      (Option.bind (List.assoc_opt d.name ms) (Obs.Json.member "unit")
                      = Some (Obs.Json.Str d.unit_));
                    if required ~workload ~trace d then
                      check (what ^ ": " ^ d.name ^ " nonzero") (v <> 0.)
                | _ -> check (what ^ ": " ^ d.name ^ " value") false)
              defs
        | _ -> check (what ^ ": metrics object") false)
    | Ok _ -> check (what ^ ": last line is an object") false
  in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          validate ~workload ~trace
            (child_run ~workload ~seed:1 ~seconds:"0.1" ~trace ~extra:[ "--quick"; "true" ] ()))
        [ false; true ])
    workload_names;
  (* The correctness check can fail: a pinned fingerprint that does not
     match must give correct=false and exit 1. *)
  let tampered = Filename.concat (get "workdir") "tampered.json" in
  mkdir_p (get "workdir");
  Out_channel.with_open_bin tampered (fun oc ->
      output_string oc {|{"fb-psl/quick":{"removed":0}}|});
  let status, out =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        (* A later --expected overrides the one child_run passes. *)
        child_run ~workload:"fb-psl" ~seed:1 ~seconds:"0.1" ~trace:false ~stderr:devnull
          ~extra:[ "--quick"; "true"; "--expected"; tampered ] ())
  in
  Sys.remove tampered;
  check "tampered pin: exit 1" (status = Unix.WEXITED 1);
  check "tampered pin: correct=false"
    (match Obs.Json.parse (last_line out) with
    | Ok j -> Obs.Json.member "correct" j = Some (Obs.Json.Bool false)
    | Error _ -> false);
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "bench suite self-test: ok"

(* ---------------------------------------------------------------- *)
(* study                                                              *)

let metric_values out =
  match Obs.Json.parse (last_line out) with
  | Ok j -> (
      match Obs.Json.member "metrics" j with
      | Some (Obs.Json.Obj ms) ->
          List.filter_map
            (fun (n, m) ->
              match Obs.Json.member "value" m with
              | Some (Obs.Json.Num v) -> Some (n, v)
              | _ -> None)
            ms
      | _ -> [])
  | Error _ -> []

(* Run every workload ten times on seeds 100-109, report each end-to-end
   metric's median and quartile spread against its bound, and optionally
   compare the medians with an earlier study. *)
let study () =
  let defs = metric_defs (read_json (get "benchmark")) "end_to_end" in
  let runs = 10 and seed0 = 100 and seconds = seconds () in
  let baseline = match get "baseline" with "" -> None | p -> Some (read_json p) in
  let problems = ref 0 in
  let rows =
    List.map
      (fun workload ->
        let samples =
          List.init runs (fun i ->
              let status, out =
                child_run ~workload ~seed:(seed0 + i) ~seconds ~trace:false ()
              in
              if status <> Unix.WEXITED 0 then begin
                incr problems;
                Printf.printf "%s seed %d: run failed\n%!" workload (seed0 + i)
              end;
              metric_values out)
        in
        let per_metric =
          List.map
            (fun d ->
              let values = List.filter_map (List.assoc_opt d.name) samples in
              let q1, q3 = Stats.quartiles values and median = Stats.median values in
              let spread = Stats.iqr_frac values in
              let regressed =
                match baseline with
                | None -> false
                | Some b -> (
                    match
                      Option.bind (Obs.Json.member "workloads" b) (fun w ->
                          Option.bind (Obs.Json.member workload w) (fun m ->
                              Option.bind (Obs.Json.member d.name m) (Obs.Json.member "median")))
                    with
                    | Some (Obs.Json.Num base) ->
                        Stats.regressed ~better:d.better ~bound:d.bound ~base median
                    | _ -> true)
              in
              let wide = d.name <> "setup_s" && spread > d.bound in
              if regressed || wide then incr problems;
              Printf.printf "%-12s %-20s median %12.4f  iqr/median %.4f  bound %.2f%s%s\n%!"
                workload d.name median spread d.bound
                (if wide then "  SPREAD ABOVE BOUND" else "")
                (if regressed then "  WORSE THAN BASELINE" else "");
              ( d.name,
                Obs.Json.Obj
                  [
                    ("median", num median); ("q1", num q1); ("q3", num q3);
                    ("iqr_frac", num spread); ("bound", num d.bound);
                    ("values", Obs.Json.Arr (List.map num values));
                  ] ))
            defs
        in
        (workload, Obs.Json.Obj per_metric))
      workload_names
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "tecore-bench-suite-study/1");
        ("runs", int runs);
        ("first_seed", int seed0);
        ("seconds", num (float_of_string seconds));
        ("workloads", Obs.Json.Obj rows);
      ]
  in
  (match get "out" with
  | "" -> ()
  | path -> Out_channel.with_open_bin path (fun oc -> output_string oc (Obs.Json.to_string doc ^ "\n")));
  if !problems > 0 then begin
    Printf.printf "%d problem(s)\n" !problems;
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* table                                                              *)

(* Replace what lies between the README's [<!-- NAME:start -->] and
   [<!-- NAME:end -->] markers. *)
let splice ~readme name lines =
  let text = In_channel.with_open_bin readme In_channel.input_all in
  let find sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then failwith (readme ^ ": missing " ^ sub)
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  let start_marker = Printf.sprintf "<!-- %s:start -->" name in
  let a = find start_marker + String.length start_marker
  and b = find (Printf.sprintf "<!-- %s:end -->" name) in
  let body = "\n" ^ String.concat "\n" lines ^ "\n" in
  Out_channel.with_open_bin readme (fun oc ->
      output_string oc (String.sub text 0 a ^ body ^ String.sub text b (String.length text - b)));
  print_string body

let rec lookup doc = function
  | [] -> ( match doc with Obs.Json.Num v -> Some v | _ -> None)
  | k :: rest -> Option.bind (Obs.Json.member k doc) (fun j -> lookup j rest)

let cell = function
  | Some v when Float.is_integer v || Float.abs v >= 100. -> Printf.sprintf "%.0f" v
  | Some v -> Printf.sprintf "%.3g" v
  | None -> "—"

(* The committed study as a table: median and spread per metric and
   workload. *)
let study_table doc =
  let defs = metric_defs (read_json (get "benchmark")) "end_to_end" in
  ("| metric | bound | " ^ String.concat " | " workload_names ^ " |")
  :: ("|---|---:|" ^ String.concat "" (List.map (fun _ -> "---:|") workload_names))
  :: List.map
       (fun d ->
         Printf.sprintf "| `%s` | %.2f | %s |" d.name d.bound
           (String.concat " | "
              (List.map
                 (fun w ->
                   let v k = lookup doc [ "workloads"; w; d.name; k ] in
                   Printf.sprintf "%s (%s)" (cell (v "median"))
                     (cell (Option.map (fun f -> f *. 100.) (v "iqr_frac")) ^ "%"))
                 workload_names)))
       defs
  @ [ ""; "Each cell is the median over the ten runs, with the interquartile range as a percentage of it." ]

(* The E3 attribution table: fb-mln against fb-psl per layer, from the
   traced runs' results files. *)
let e3_table () =
  let result workload =
    let status, _ = child_run ~workload ~seed:1 ~seconds:(seconds ()) ~trace:true () in
    if status <> Unix.WEXITED 0 then failwith (workload ^ ": traced run failed");
    read_json
      (Filename.concat (Filename.concat (get "workdir") "results") (workload ^ "-trace.json"))
  in
  let mln = result "fb-mln" and psl = result "fb-psl" in
  let metric doc name = lookup doc [ "metrics"; name; "value" ] in
  let row label m p = Printf.sprintf "| %s | %s | %s |" label (cell m) (cell p) in
  let both label name = row label (metric mln ("mln." ^ name)) (metric psl ("psl." ^ name)) in
  let same label name = row label (metric mln name) (metric psl name) in
  let untraced doc = lookup doc [ "detail"; "resolve_ms_at_reference"; "p50" ] in
  let percent doc name = Option.map (fun f -> f *. 100.) (metric doc name) in
  [
    "| layer (ms unless noted) | fb-mln | fb-psl |";
    "|---|---:|---:|";
    same "`Translator.analyse`" "tecore.analyse_ms";
    same "`Atom_store.of_graph`" "grounder.store_ms";
    same "`Ground.run`" "grounder.ground_ms";
    both "encode (`Network.build` / `Hlmrf.build`)" "encode_ms";
    both "solve (`run_ground` minus encode)" "solve_ms";
    same "`Conflict.interpret`" "tecore.interpret_ms";
    row "unattributed (%)" (percent mln "tecore.unattributed_frac") (percent psl "tecore.unattributed_frac");
    row "**`Engine.resolve`, untraced median**" (untraced mln) (untraced psl);
    same "ground atoms" "grounder.atoms";
    same "rule instances" "grounder.instances";
    row "clauses / potentials" (metric mln "mln.clauses") (metric psl "psl.potentials");
    both "components" "components";
    row "MaxWalkSAT flips / ADMM iterations" (metric mln "mln.flips") (metric psl "psl.admm_iterations");
    both "allocated in encode + solve (Mwords)" "alloc_mwords";
  ]

(* Regenerate the README's tables: the committed study, and E3 from two
   fresh traced runs. *)
let table () =
  let readme = "bench/suite/README.md" in
  splice ~readme "study" (study_table (read_json "bench/suite/repeatability.json"));
  splice ~readme "e3-table" (e3_table ())

(* ---------------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 2));
  let command = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  settings := List.map (fun (k, v) -> (k, ref v)) (own_flags command @ common);
  let specs =
    List.map
      (fun (name, r) ->
        ("--" ^ name, Arg.Set_string r, Printf.sprintf "VALUE (default %S)" !r))
      !settings
  in
  let usage = "suite.exe (run|test|study|table) [options]" in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  try
    match command with
    | "run" -> run ()
    | "test" -> test ()
    | "study" -> study ()
    | "table" -> table ()
    | _ ->
        Arg.usage specs usage;
        exit 2
  with
  | Failure msg | Sys_error msg ->
      prerr_endline ("suite: " ^ msg);
      exit 2
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "suite: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 2
