(* tecore — command-line front-end reproducing the demo workflow of the
   TeCoRe Web UI: select a UTKG, choose rules and constraints, run MAP
   inference, browse consistent and conflicting statements, inspect
   statistics, and generate the synthetic datasets. *)

open Cmdliner

let engine_of_string = function
  | "mln" -> Ok (Tecore.Engine.Mln Mln.Map_inference.default_options)
  | "mln-exact" ->
      Ok
        (Tecore.Engine.Mln
           {
             Mln.Map_inference.default_options with
             Mln.Map_inference.solver = Mln.Map_inference.Ilp_exact;
             use_cpi = false;
           })
  | "psl" -> Ok (Tecore.Engine.Psl Psl.Npsl.default_options)
  | "auto" -> Ok Tecore.Engine.Auto
  | s -> Error (Printf.sprintf "unknown engine %S (mln|mln-exact|psl|auto)" s)

let engine_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (engine_of_string s) in
  let print ppf _ = Format.pp_print_string ppf "<engine>" in
  Arg.conv (parse, print)

let data_arg =
  let doc = "UTKG file in the temporal-quads format." in
  Arg.(
    required & opt (some string) None & info [ "d"; "data" ] ~docv:"FILE" ~doc)

let rules_arg =
  let doc = "Rules/constraints file in the rule language." in
  Arg.(
    value & opt (some string) None & info [ "r"; "rules" ] ~docv:"FILE" ~doc)

let engine_arg =
  let doc = "Inference engine: mln, mln-exact, psl or auto." in
  Arg.(value & opt engine_conv Tecore.Engine.Auto & info [ "e"; "engine" ] ~doc)

let threshold_arg =
  let doc = "Drop derived facts below this confidence." in
  Arg.(value & opt (some float) None & info [ "t"; "threshold" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the grounding joins (0 = all cores); every \
     component is solved on the calling domain. Defaults to \
     $(b,TECORE_JOBS), else 1. Results are identical at every job count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Exit-code contract (documented in [--help] via [Cmd.Exit.info]):
   0 success, 1 generic failure, 2 translator rejection, 3 deadline
   expired under [--on-timeout fail], 4 input/output error. *)
exception Cli_error of int * string

let exit_rejected = 2
let exit_timeout = 3
let exit_io = 4

(* A whole file, or the exit-4 IO error. Reads to end of file rather
   than by length, so pipes and procfs files work too. *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> raise (Cli_error (exit_io, msg))

let load_session ?rules_file data_file =
  let session = Tecore.Session.create () in
  (match Tecore.Session.load session data_file with
  | Ok () -> ()
  | Error (Tecore.Session.Io_error msg) -> raise (Cli_error (exit_io, msg))
  | Error e -> failwith (Tecore.Session.error_message e));
  (match rules_file with
  | None -> ()
  | Some path ->
      (match Tecore.Session.add_rules session (read_file path) with
      | Ok _ -> ()
      | Error e -> failwith (Printf.sprintf "%s: %s" path e)));
  session

let handle f =
  try
    f ();
    0
  with
  | Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Cli_error (code, msg) ->
      Printf.eprintf "error: %s\n" msg;
      code

(* The resolve pipeline's wall-clock budget: [--timeout] in seconds,
   falling back to the TECORE_TIMEOUT_MS environment variable. *)
let deadline_of ~timeout =
  match timeout with
  | Some secs -> Prelude.Deadline.after ~ms:(secs *. 1000.)
  | None -> Prelude.Deadline.of_timeout_ms (Prelude.Deadline.env_timeout_ms ())

(* ------------------------------------------------------------------ *)

(* Write [text] to [path], surfacing filesystem problems on the IO exit
   code like every other output path of the CLI. *)
let write_file path text =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text)
  with Sys_error msg -> raise (Cli_error (exit_io, msg))

let resolve data rules engine jobs threshold timeout on_timeout output
    verbose explain json stats trace log_level trace_out metrics_out =
  handle (fun () ->
      (* Any telemetry consumer flips observability on; a plain run keeps
         it off so the output stays byte-identical to earlier releases. *)
      let observing =
        stats || trace || log_level <> None || trace_out <> None
        || metrics_out <> None
      in
      if observing then begin
        Obs.reset ();
        Obs.set_enabled true
      end;
      if trace then
        Obs.set_trace
          (Some
             (fun ~depth name ms ->
               Printf.eprintf "[trace] %s%s %.3f ms\n%!"
                 (String.make (2 * depth) ' ')
                 name ms));
      (match log_level with
      | None -> ()
      | Some level ->
          let min_severity = Obs.Events.severity level in
          Obs.set_event_hook
            (Some
               (fun (e : Obs.Events.event) ->
                 if Obs.Events.severity e.Obs.Events.level >= min_severity
                 then
                   Printf.eprintf "[%s] %8.1f ms %s%s\n%!"
                     (Obs.Events.level_name e.Obs.Events.level)
                     e.Obs.Events.t_ms e.Obs.Events.name
                     (String.concat ""
                        (List.map
                           (fun (k, v) ->
                             Printf.sprintf " %s=%s" k
                               (Obs.Events.value_to_string v))
                           e.Obs.Events.fields)))));
      let session = load_session ?rules_file:rules data in
      (* Start the clock once the inputs are in memory: the budget is
         for the resolve pipeline (grounding + solving), not file IO. *)
      let deadline = deadline_of ~timeout in
      (* Telemetry exports share one captured report with --stats/--json
         so every consumer sees the same numbers. *)
      let export_telemetry obs =
        (match (trace_out, obs) with
        | Some path, Some r ->
            write_file path
              (Obs.Json.to_string (Obs.Export.chrome_trace r) ^ "\n")
        | _ -> ());
        match (metrics_out, obs) with
        | Some path, Some r -> write_file path (Obs.Export.open_metrics r)
        | _ -> ()
      in
      match
        Tecore.Session.resolve ~engine ?jobs ?threshold ~deadline ~on_timeout
          session
      with
      | Error e ->
          let code =
            match e with
            | Tecore.Session.Rejected _ -> exit_rejected
            | Tecore.Session.Ground_timeout _ -> exit_timeout
            | Tecore.Session.Io_error _ -> exit_io
            | Tecore.Session.Parse_error _ | Tecore.Session.No_graph
            | Tecore.Session.Absent_fact _ -> 1
          in
          raise (Cli_error (code, Tecore.Session.error_message e))
      | Ok result
        when on_timeout = `Fail
             && result.Tecore.Engine.stats.Tecore.Engine.status
                <> Prelude.Deadline.Completed ->
          raise
            (Cli_error
               ( exit_timeout,
                 Printf.sprintf
                   "deadline expired before inference completed (status: \
                    %s); re-run with --on-timeout best-effort to accept \
                    the anytime result"
                   (Prelude.Deadline.status_name
                      result.Tecore.Engine.stats.Tecore.Engine.status) ))
      | Ok result when json ->
          let obs = if observing then Some (Obs.Report.capture ()) else None in
          export_telemetry obs;
          print_endline
            (Tecore.Json_out.of_result
               ~namespace:(Tecore.Session.namespace session)
               ~deadline ?obs result)
      | Ok result ->
          print_endline (Tecore.Session.statistics session);
          (if explain then
             match Tecore.Session.graph session with
             | None -> ()
             | Some graph ->
                 let removals, derivations =
                   Tecore.Explain.of_result graph result
                 in
                 print_endline "-- explanations --";
                 List.iter
                   (fun r -> Format.printf "%a@." Tecore.Explain.pp_removal r)
                   removals;
                 List.iter
                   (fun d -> Format.printf "%a@." Tecore.Explain.pp_derivation d)
                   derivations);
          if verbose then begin
            print_endline "-- removed (conflicting) statements --";
            List.iter
              (fun q -> Format.printf "%a@." Kg.Quad.pp q)
              (Tecore.Session.conflicting_statements session);
            print_endline "-- derived statements --";
            let resolution = result.Tecore.Engine.resolution in
            List.iter
              (fun (d : Tecore.Conflict.derived_fact) ->
                Format.printf "%a  %.3f@." Logic.Atom.Ground.pp
                  (Tecore.Conflict.derived_atom resolution d)
                  d.Tecore.Conflict.confidence)
              resolution.Tecore.Conflict.derived
          end;
          (match output with
          | None -> ()
          | Some path ->
              Kg.Nquads.save_file
                ~namespace:(Tecore.Session.namespace session)
                path
                result.Tecore.Engine.resolution.Tecore.Conflict.consistent;
              Printf.printf "consistent KG written to %s\n" path);
          let obs = if observing then Some (Obs.Report.capture ()) else None in
          export_telemetry obs;
          (match obs with
          | Some r when stats ->
              print_endline "-- observability --";
              Format.printf "%a@." Obs.Report.pp r
          | _ -> ()))

let timeout_arg =
  let doc =
    "Wall-clock budget in seconds for the resolve pipeline (grounding \
     and solving, fractions allowed). When it expires the engine \
     returns its best feasible assignment so far and tags the run \
     $(b,timed_out) (or $(b,degraded)). Defaults to \
     $(b,TECORE_TIMEOUT_MS) (milliseconds) when set, else no limit."
  in
  Arg.(
    value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let on_timeout_arg =
  let doc =
    "Policy when the budget expires: $(b,best-effort) (default) keeps \
     grounding to completion, gives the solver the remaining budget \
     and reports the anytime result with its completion status; \
     $(b,fail) enforces the budget everywhere (including grounding) \
     and aborts with exit status 3 when it runs out."
  in
  Arg.(
    value
    & opt
        (Arg.enum [ ("best-effort", `Best_effort); ("fail", `Fail) ])
        `Best_effort
    & info [ "on-timeout" ] ~docv:"POLICY" ~doc)

let io_exits =
  Cmd.Exit.info 1 ~doc:"on failure (malformed input, unknown names, \
                        runtime errors)."
  :: Cmd.Exit.info exit_io
       ~doc:"on input/output errors (unreadable data or rules file)."
  :: Cmd.Exit.defaults

let resolve_exits =
  Cmd.Exit.info 1 ~doc:"on failure (malformed input, unknown names, \
                        runtime errors)."
  :: Cmd.Exit.info exit_rejected
       ~doc:"when the translator rejects the program (error-level notes \
             in the verification report)."
  :: Cmd.Exit.info exit_timeout
       ~doc:"when the time budget expires under $(b,--on-timeout) \
             $(b,fail) (during grounding or solving)."
  :: Cmd.Exit.info exit_io
       ~doc:"on input/output errors (unreadable data or rules file)."
  :: Cmd.Exit.defaults

let resolve_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Write the consistent KG here.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"List removed and derived facts.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the full result as JSON.")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Explain every removal (clash partners, weights) and \
                   derivation (firing rules).")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print a per-stage timing and counter report (span tree) \
                   after resolving.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Stream span close events to stderr as they happen.")
  in
  let log_level =
    Arg.(
      value
      & opt
          (some
             (Arg.enum
                [
                  ("debug", Obs.Events.Debug);
                  ("info", Obs.Events.Info);
                  ("warn", Obs.Events.Warn);
                  ("error", Obs.Events.Error);
                ]))
          None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Stream structured pipeline events at or above LEVEL \
                (debug, info, warn, error) to stderr as they happen; the \
                full event log also lands in $(b,--json) and the \
                $(b,--stats) report.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event JSON timeline of the resolve \
                pipeline (per-stage spans, one lane per worker domain) to \
                FILE; load it in chrome://tracing or Perfetto.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write all counters, gauges, histogram quantiles and \
                convergence series in OpenMetrics (Prometheus) text \
                exposition format to FILE.")
  in
  Cmd.v
    (Cmd.info "resolve" ~exits:resolve_exits
       ~doc:"Compute the most probable conflict-free temporal KG")
    Term.(
      const resolve $ data_arg $ rules_arg $ engine_arg $ jobs_arg
      $ threshold_arg $ timeout_arg $ on_timeout_arg $ output $ verbose
      $ explain $ json $ stats $ trace $ log_level $ trace_out
      $ metrics_out)

(* ------------------------------------------------------------------ *)

let analyse data rules =
  handle (fun () ->
      let session = load_session ?rules_file:rules data in
      match Tecore.Session.analyse session with
      | Ok report -> Format.printf "%a@." Tecore.Translator.pp_report report
      | Error e -> failwith e)

let analyse_cmd =
  Cmd.v
    (Cmd.info "analyse" ~exits:io_exits
       ~doc:"Run the translator's verification pass without solving")
    Term.(const analyse $ data_arg $ rules_arg)

(* ------------------------------------------------------------------ *)

let complete data prefix =
  handle (fun () ->
      let session = load_session data in
      List.iter print_endline (Tecore.Session.complete_predicate session prefix))

let complete_cmd =
  let prefix =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PREFIX" ~doc:"Predicate prefix to complete.")
  in
  Cmd.v
    (Cmd.info "complete" ~exits:io_exits
       ~doc:"Predicate auto-completion (the constraint editor's helper)")
    Term.(const complete $ data_arg $ prefix)

(* ------------------------------------------------------------------ *)

let generate dataset output seed players noise total conflicts =
  handle (fun () ->
      let graph, summary =
        match dataset with
        | "footballdb" ->
            let d =
              Datagen.Footballdb.generate ~seed ~players ~noise_ratio:noise ()
            in
            ( d.Datagen.Footballdb.graph,
              Printf.sprintf "footballdb: %d facts (%d planted errors)"
                (Kg.Graph.size d.Datagen.Footballdb.graph)
                (List.length d.Datagen.Footballdb.planted) )
        | "wikidata" ->
            let d =
              Datagen.Wikidata.generate ~seed ~total_facts:total
                ~conflict_rate:conflicts ()
            in
            ( d.Datagen.Wikidata.graph,
              Printf.sprintf "wikidata: %d facts (%d planted conflicts)"
                (Kg.Graph.size d.Datagen.Wikidata.graph)
                (List.length d.Datagen.Wikidata.planted) )
        | other -> failwith (Printf.sprintf "unknown dataset %S" other)
      in
      Kg.Nquads.save_file output graph;
      Printf.printf "%s -> %s\n" summary output)

let generate_cmd =
  let dataset =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DATASET" ~doc:"footballdb or wikidata.")
  in
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let players =
    Arg.(value & opt int 6500 & info [ "players" ] ~doc:"footballdb players.")
  in
  let noise =
    Arg.(value & opt float 0.0
         & info [ "noise" ] ~doc:"footballdb erroneous/correct ratio.")
  in
  let total =
    Arg.(value & opt int 63_000 & info [ "total" ] ~doc:"wikidata fact count.")
  in
  let conflicts =
    Arg.(value & opt float 0.0
         & info [ "conflicts" ] ~doc:"wikidata planted conflict rate.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic UTKG dataset")
    Term.(
      const generate $ dataset $ output $ seed $ players $ noise $ total
      $ conflicts)

(* ------------------------------------------------------------------ *)

let query data query_text =
  handle (fun () ->
      let session = load_session data in
      match Tecore.Session.graph session with
      | None -> failwith "no graph"
      | Some graph -> (
          match
            Tecore.Query.run
              ~namespace:(Tecore.Session.namespace session)
              graph query_text
          with
          | Error e -> failwith e
          | Ok answers ->
              Printf.printf "%d answers\n" (List.length answers);
              List.iter
                (fun a ->
                  Format.printf "%a@." (Tecore.Query.pp_answer graph) a)
                answers))

let query_cmd =
  let text =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERY"
             ~doc:"Temporal conjunctive query, e.g. \"coach(x,y)@t ^ coach(x,z)@t2 ^ y != z ^ intersects(t,t2)\".")
  in
  Cmd.v
    (Cmd.info "query" ~exits:io_exits
       ~doc:"Evaluate a temporal conjunctive query on a UTKG")
    Term.(const query $ data_arg $ text)

(* ------------------------------------------------------------------ *)

let suggest data min_ratio min_support =
  handle (fun () ->
      let session = load_session data in
      match Tecore.Session.graph session with
      | None -> failwith "no graph"
      | Some graph ->
          let config =
            { Tecore.Suggest.default_config with
              Tecore.Suggest.min_ratio; min_support }
          in
          let suggestions = Tecore.Suggest.mine ~config graph in
          Printf.printf "%d suggested constraints\n" (List.length suggestions);
          List.iter
            (fun s -> Format.printf "%a@.@." Tecore.Suggest.pp_suggestion s)
            suggestions)

let suggest_cmd =
  let min_ratio =
    Arg.(value & opt float 0.9
         & info [ "min-ratio" ] ~doc:"Acceptance threshold on the support ratio.")
  in
  let min_support =
    Arg.(value & opt int 20
         & info [ "min-support" ] ~doc:"Minimum fact pairs before suggesting.")
  in
  Cmd.v
    (Cmd.info "suggest" ~exits:io_exits
       ~doc:"Mine candidate temporal constraints from the selected UTKG")
    Term.(const suggest $ data_arg $ min_ratio $ min_support)

(* ------------------------------------------------------------------ *)

let export data rules target output =
  handle (fun () ->
      let session = load_session ?rules_file:rules data in
      let text =
        match target with
        | "mln" -> Tecore.Export.to_mln (Tecore.Session.rules session)
        | "psl" -> Tecore.Export.to_psl (Tecore.Session.rules session)
        | "evidence" -> (
            match Tecore.Session.graph session with
            | Some g -> Tecore.Export.to_mln_evidence g
            | None -> failwith "no graph")
        | other -> failwith (Printf.sprintf "unknown target %S (mln|psl|evidence)" other)
      in
      match output with
      | None -> print_string text
      | Some path ->
          Tecore.Export.save ~path text;
          Printf.printf "written to %s\n" path)

let export_cmd =
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TARGET" ~doc:"mln, psl or evidence.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "export" ~exits:io_exits
       ~doc:"Render the program in a solver's native syntax (translator output)")
    Term.(const export $ data_arg $ rules_arg $ target $ output)

(* ------------------------------------------------------------------ *)

let coalesce data output =
  handle (fun () ->
      let session = load_session data in
      match Tecore.Session.graph session with
      | None -> failwith "no graph"
      | Some graph ->
          let merged = Kg.Coalesce.coalesce graph in
          Printf.printf "%d facts -> %d after coalescing\n"
            (Kg.Graph.size graph) (Kg.Graph.size merged);
          (match output with
          | None -> ()
          | Some path ->
              Kg.Nquads.save_file
                ~namespace:(Tecore.Session.namespace session)
                path merged;
              Printf.printf "written to %s\n" path))

let coalesce_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "coalesce" ~exits:io_exits
       ~doc:"Merge same-statement facts with adjacent or overlapping intervals")
    Term.(const coalesce $ data_arg $ output)

(* ------------------------------------------------------------------ *)

let diff_cmd =
  let load path =
    match Kg.Nquads.parse_file path with
    | Ok g -> g
    | Error e -> failwith (Format.asprintf "%s: %a" path Kg.Nquads.pp_error e)
  in
  let run left right =
    handle (fun () ->
        let d = Tecore.Diff.diff (load left) (load right) in
        Format.printf "%a@." Tecore.Diff.pp d;
        if not (Tecore.Diff.is_empty d) then raise Exit)
  in
  let run left right = try run left right with Exit -> 1 in
  let left =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LEFT" ~doc:"Left UTKG.")
  in
  let right =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"RIGHT" ~doc:"Right UTKG.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two UTKGs (exit status 1 when they differ)")
    Term.(const run $ left $ right)

(* ------------------------------------------------------------------ *)

let learn data rules iterations =
  handle (fun () ->
      let session = load_session ?rules_file:(Some rules) data in
      match Tecore.Session.graph session with
      | None -> failwith "no graph"
      | Some graph ->
          let rule_set = Tecore.Session.rules session in
          let store = Grounder.Atom_store.of_graph graph in
          let ground = Grounder.Ground.run store rule_set in
          let options =
            { Mln.Learn.default_options with Mln.Learn.iterations }
          in
          let result =
            Mln.Learn.learn ~options store ground.Grounder.Ground.instances
              rule_set
          in
          Printf.printf "learned weights (pseudo-likelihood, %d iterations):\n"
            iterations;
          List.iter
            (fun (name, w) -> Printf.printf "  %-24s %.4f\n" name w)
            result.Mln.Learn.weights;
          print_endline "\nupdated program:";
          Format.printf "%a@."
            Rulelang.Printer.pp_program
            (Mln.Learn.apply result rule_set))

let learn_cmd =
  let rules =
    Arg.(required & opt (some file) None
         & info [ "r"; "rules" ] ~docv:"FILE" ~doc:"Rules to learn weights for.")
  in
  let iterations =
    Arg.(value & opt int 200 & info [ "iterations" ] ~doc:"Ascent iterations.")
  in
  Cmd.v
    (Cmd.info "learn" ~exits:io_exits
       ~doc:"Learn soft-rule weights from a UTKG by pseudo-likelihood")
    Term.(const learn $ data_arg $ rules $ iterations)

(* ------------------------------------------------------------------ *)

let demo () =
  handle (fun () ->
      let session = Tecore.Session.create () in
      let data =
        {|# Figure 1: coach Claudio Ranieri's career
ex:CR ex:coach ex:Chelsea [2000,2004] 0.9 .
ex:CR ex:coach ex:Leicester [2015,2017] 0.7 .
ex:CR ex:playsFor ex:Palermo [1984,1986] 0.5 .
ex:CR ex:birthDate 1951 [1951,2017] .
ex:CR ex:coach ex:Napoli [2001,2003] 0.6 .
|}
      in
      let rules =
        {|rule f1 2.5: ex:playsFor(x, y)@t => ex:worksFor(x, y)@t .
constraint c2: ex:coach(x, y)@t ^ ex:coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
|}
      in
      print_endline "== input UTKG (Figure 1) ==";
      print_string data;
      (match Tecore.Session.load_string session data with
      | Ok () -> ()
      | Error e -> failwith e);
      (match Tecore.Session.add_rules session rules with
      | Ok _ -> ()
      | Error e -> failwith e);
      print_endline "== rules and constraints ==";
      print_string rules;
      (match Tecore.Session.run session with
      | Ok _ -> ()
      | Error e -> failwith e);
      print_endline "== statistics (Figure 8) ==";
      print_endline (Tecore.Session.statistics session);
      print_endline "== consistent statements (Figure 7) ==";
      List.iter
        (fun q -> Format.printf "%a@." Kg.Quad.pp q)
        (Tecore.Session.consistent_statements session);
      print_endline "== conflicting statements ==";
      List.iter
        (fun q -> Format.printf "%a@." Kg.Quad.pp q)
        (Tecore.Session.conflicting_statements session))

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's Claudio Ranieri example end to end")
    Term.(const demo $ const ())

(* ------------------------------------------------------------------ *)

let session_run script_file engine jobs =
  handle (fun () ->
      let text = read_file script_file in
      match Tecore.Script.parse_string ~path:script_file text with
      | Error e -> failwith (Format.asprintf "%a" Tecore.Script.pp_error e)
      | Ok script -> (
          let session = Tecore.Session.create () in
          match
            Tecore.Script.run ~engine ?jobs ~session Format.std_formatter
              script
          with
          | Ok () -> ()
          | Error e ->
              failwith (Format.asprintf "%a" Tecore.Script.pp_error e)))

let session_cmd =
  let script_arg =
    let doc = "Edit script: load/assert/retract/rule/unrule/resolve/diff." in
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "script" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "session" ~exits:io_exits
       ~doc:"Run an edit script against one incremental session"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Drives one resolution session through a line-oriented edit \
              script: load a UTKG, assert and retract facts, add and \
              remove rules, resolve (incrementally by default) and diff \
              the input against the resolution. The transcript is \
              deterministic — no timings — and each resolve line reports \
              how the incremental caches were used \
              (hit/replay/miss/invalidate/fallback/fresh).";
         ])
    Term.(const session_run $ script_arg $ engine_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)

let serve_listen socket port : Serve.listen =
  match (socket, port) with
  | Some path, _ -> `Unix path
  | None, Some p -> `Tcp p
  | None, None -> `Tcp 0

let serve_config engine jobs lanes queue timeout max_sessions state_dir fsync
    compact_every idle_ttl access_log access_log_max_bytes access_log_keep
    trace_every allow_shutdown =
  {
    Serve.default_config with
    Serve.engine;
    jobs;
    lanes = max 1 lanes;
    queue_cap = queue;
    request_timeout_ms = Option.map (fun s -> s *. 1000.) timeout;
    max_sessions;
    allow_shutdown;
    state_dir;
    fsync;
    compact_every;
    idle_ttl_s = idle_ttl;
    access_log;
    access_log_max_bytes;
    access_log_keep;
    trace_every;
  }

let serve_run socket port engine jobs lanes queue timeout max_sessions
    state_dir fsync compact_every idle_ttl access_log access_log_max_bytes
    access_log_keep trace_every script =
  handle (fun () ->
      let serve_config = serve_config engine jobs lanes queue timeout
          max_sessions state_dir fsync compact_every idle_ttl access_log
          access_log_max_bytes access_log_keep trace_every
      in
      match script with
      | Some script_file ->
          (* Scripted mode: in-process server, loopback driver, determin-
             istic transcript (golden-tested in data/serve_*.golden). *)
          let text = read_file script_file in
          let config = serve_config false in
          let server =
            try Serve.start ~config (serve_listen socket port)
            with Unix.Unix_error (e, _, _) ->
              raise (Cli_error (exit_io, Unix.error_message e))
          in
          let result =
            Serve.Driver.run ~server Format.std_formatter
              ~path:script_file text
          in
          Format.pp_print_flush Format.std_formatter ();
          Serve.stop server;
          (match result with
          | Ok () -> ()
          | Error e -> failwith (Format.asprintf "%a" Tecore.Script.pp_error e))
      | None ->
          let config = serve_config true in
          let server =
            try Serve.start ~config (serve_listen socket port)
            with Unix.Unix_error (e, _, _) ->
              raise (Cli_error (exit_io, Unix.error_message e))
          in
          let stop_on_signal _ = Serve.request_stop server in
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal);
          Printf.printf "tecore serve: listening on %s\n%!"
            (Serve.address server);
          Serve.wait server;
          Printf.printf "tecore serve: stopped (%d requests, %d shed)\n%!"
            (Serve.requests_total server)
            (Serve.shed_count server))

let serve_exits =
  Cmd.Exit.info 1 ~doc:"on failure (malformed driver script)."
  :: Cmd.Exit.info exit_io
       ~doc:"when the listen address cannot be bound."
  :: Cmd.Exit.defaults

let socket_arg =
  let doc = "Listen on (or connect to) a Unix-domain socket at PATH." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc =
    "Listen on (or connect to) 127.0.0.1:PORT. 0 picks a free port. \
     Ignored when $(b,--socket) is given."
  in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let lanes =
    Arg.(
      value
      & opt int Serve.default_config.Serve.lanes
      & info [ "lanes" ] ~docv:"N"
          ~doc:
            "Resolver lanes. Each session is pinned to one of N lanes \
             by a stable hash of its id: a session's resolves stay in \
             submission order, while sessions on different lanes no \
             longer head-of-line-block each other. The solve itself is \
             serialised across lanes, so results are byte-identical at \
             any lane count. Defaults to \\$TECORE_LANES, else 1 (the \
             previous single-resolver behaviour).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: shed a resolve with a typed \
             $(b,overloaded) response when more than N resolves are \
             already pending (queued plus running). 0 sheds whenever \
             the resolver is busy.")
  in
  let timeout =
    Arg.(
      value & opt (some float) None
      & info [ "request-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-request budget: requests whose budget expires while \
             queued are shed with a typed $(b,timed_out) response; the \
             remainder disciplines the solve itself. Note a finite \
             budget bypasses the incremental caches.")
  in
  let max_sessions =
    Arg.(
      value & opt (some int) None
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Session-registry bound: when a $(b,hello) would create a \
             session past N, the least-recently-used session is evicted \
             and connections still attached to it get a typed \
             $(b,evicted) error on their next use. Unbounded by \
             default.")
  in
  let script =
    Arg.(
      value & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Scripted mode: start an in-process server, run the driver \
             script (connect/send/post/recv/await-busy/await-idle/close) \
             against it over a real loopback socket, print the \
             transcript and exit.")
  in
  let state_dir =
    Arg.(
      value & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durability root. Every session keeps a write-ahead journal \
             under DIR/sessions/: accepted edits are journaled (and \
             fsynced, per $(b,--fsync)) before they are acked, and on \
             start the session registry is rebuilt by replaying every \
             session directory — tolerating torn tails from a crash \
             mid-write. See docs/SERVER.md.")
  in
  let fsync =
    let fsync_conv =
      let parse s =
        match Serve.Journal.fsync_policy_of_string s with
        | Ok p -> Ok p
        | Error msg -> Error (`Msg msg)
      in
      let print ppf p =
        Format.pp_print_string ppf (Serve.Journal.fsync_policy_name p)
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt fsync_conv Serve.Journal.Always
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "Journal fsync policy: $(b,always) (default; an acked edit \
             survives SIGKILL), $(b,never) (leave flushing to the OS), \
             or a positive integer N (fsync once per N records). \
             Snapshots and manifests are always fsynced.")
  in
  let compact_every =
    Arg.(
      value & opt int 256
      & info [ "compact-every" ] ~docv:"N"
          ~doc:
            "Compact a session's journal into a fresh snapshot once N \
             records accumulate since the last snapshot. 0 disables \
             size-triggered compaction ($(b,load) still forces one).")
  in
  let idle_ttl =
    Arg.(
      value & opt (some float) None
      & info [ "idle-ttl" ] ~docv:"SECS"
          ~doc:
            "Expire sessions idle for more than SECS seconds. With \
             $(b,--state-dir) an expired session is parked to disk and \
             a later $(b,hello) recovers it transparently; without one \
             it is discarded. Connections still attached get a typed \
             $(b,expired) error on their next request.")
  in
  let access_log =
    Arg.(
      value & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON-lines record per traced request to FILE: \
             request id, session, verb, outcome, wall time and the \
             per-phase breakdown (parse, queue, lock, ground, solve, \
             journal, fsync, reply). Rotated at \
             $(b,--access-log-max-bytes); analysed offline with \
             $(b,tecore logstat). Implies $(b,--trace-every 1) unless a \
             period is given explicitly.")
  in
  let access_log_max_bytes =
    Arg.(
      value & opt int (4 * 1024 * 1024)
      & info [ "access-log-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Rotate the access log before it would exceed BYTES \
             (FILE -> FILE.1 -> ... -> FILE.N, oldest dropped).")
  in
  let access_log_keep =
    Arg.(
      value & opt int 3
      & info [ "access-log-keep" ] ~docv:"N"
          ~doc:"Rotated access-log files kept before the oldest is dropped.")
  in
  let trace_every =
    Arg.(
      value & opt int 0
      & info [ "trace-every" ] ~docv:"N"
          ~doc:
            "Request-trace sampling period: 0 off (default), 1 every \
             request, N every Nth request (by request id). Traced \
             requests carry a $(b,req) field in their response, feed the \
             $(b,tail) verb and the $(b,serve_request_phase_ms) metrics, \
             and land in $(b,--access-log) when one is set. Adjustable \
             at runtime with the $(b,trace) verb.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits:serve_exits
       ~doc:"Serve many incremental sessions over a line protocol"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Long-lived daemon multiplexing many incremental resolution \
              sessions over a line-oriented wire protocol (the session \
              edit-script language plus server verbs: hello, open, stat, \
              result, metrics, ping, quit, shutdown, trace, tail). \
              Responses are single-line $(b,ok)/$(b,err) JSON objects; a \
              bounded run queue sheds excess resolves with typed \
              $(b,overloaded) responses. See docs/SERVER.md for the \
              protocol grammar and the request-tracing model.";
           `P
             "Exit status 0 on clean shutdown (SIGINT, SIGTERM or the \
              $(b,shutdown) verb).";
         ])
    Term.(
      const serve_run $ socket_arg $ port_arg $ engine_arg $ jobs_arg
      $ lanes $ queue $ timeout $ max_sessions $ state_dir $ fsync
      $ compact_every $ idle_ttl $ access_log $ access_log_max_bytes
      $ access_log_keep $ trace_every $ script)

(* ------------------------------------------------------------------ *)

(* Bounded exponential backoff with jitter for transient connect
   failures (a daemon restarting, a listen backlog dropping the
   handshake). Only ECONNREFUSED/ECONNRESET are retried — anything else
   (bad path, permissions) fails fast. On exhaustion the exit-code
   contract is unchanged: [exit_io], as if no retries were asked. *)
let client_connect sockaddr domain ~retries ~backoff_ms =
  if retries > 0 then Random.self_init ();
  let rec attempt n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let transient =
          match e with
          | Unix.ECONNREFUSED | Unix.ECONNRESET -> true
          | _ -> false
        in
        if transient && n < retries then begin
          let base = backoff_ms *. (2. ** float_of_int n) in
          let jitter = Random.float (Float.max 1. (base /. 2.)) in
          Unix.sleepf (Float.min 5000. (base +. jitter) /. 1000.);
          attempt (n + 1)
        end
        else raise (Cli_error (exit_io, "connect: " ^ Unix.error_message e))
  in
  attempt 0

let client_run socket port retries backoff_ms sends =
  handle (fun () ->
      let sockaddr =
        match (socket, port) with
        | Some path, _ -> Unix.ADDR_UNIX path
        | None, Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
        | None, None ->
            failwith "tecore client needs --socket PATH or --port PORT"
      in
      let domain =
        match sockaddr with
        | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
        | _ -> Unix.PF_INET
      in
      let fd = client_connect sockaddr domain ~retries ~backoff_ms in
      let ic = Unix.in_channel_of_descr fd in
      let worst = ref 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          List.iter
            (fun req ->
              let b = Bytes.of_string (req ^ "\n") in
              ignore (Unix.write fd b 0 (Bytes.length b));
              match input_line ic with
              | resp ->
                  print_endline resp;
                  let contains affix =
                    let n = String.length affix in
                    let rec go i =
                      i + n <= String.length resp
                      && (String.sub resp i n = affix || go (i + 1))
                    in
                    go 0
                  in
                  let code =
                    if String.length resp >= 3 && String.sub resp 0 3 = "err"
                    then
                      if contains "\"kind\":\"rejected\"" then exit_rejected
                      else if contains "\"kind\":\"timed_out\"" then
                        exit_timeout
                      else 1
                    else 0
                  in
                  worst := max !worst code
              | exception End_of_file ->
                  raise
                    (Cli_error (exit_io, "connection closed by server")))
            sends);
      if !worst <> 0 then raise (Cli_error (!worst, "request failed")))

let client_cmd =
  let sends =
    Arg.(
      value & opt_all string []
      & info [ "send" ] ~docv:"REQUEST"
          ~doc:
            "Request line to send (repeatable, sent in order); each \
             response is printed to stdout.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a refused or reset connect up to N times with \
             bounded exponential backoff and jitter (for daemons \
             mid-restart). Other connect failures are never retried, \
             and on exhaustion the exit code is the same as without \
             retries.")
  in
  let backoff =
    Arg.(
      value & opt float 50.
      & info [ "backoff" ] ~docv:"MS"
          ~doc:
            "Base backoff in milliseconds for $(b,--retries): attempt n \
             sleeps MS*2^n plus jitter, capped at 5 s.")
  in
  Cmd.v
    (Cmd.info "client" ~exits:resolve_exits
       ~doc:"Send request lines to a running tecore serve")
    Term.(const client_run $ socket_arg $ port_arg $ retries $ backoff $ sends)

(* ------------------------------------------------------------------ *)

(* Offline analyzer for the server's access log: the same aggregation
   as Serve.Access_log.stats (and therefore the same quantiles as the
   live serve_request_phase_ms summaries over the same records). *)
let logstat file top =
  handle (fun () ->
      let records, warnings =
        try Serve.Access_log.read_file file
        with Sys_error msg -> raise (Cli_error (exit_io, msg))
      in
      List.iter
        (fun w ->
          Printf.eprintf "warning: %s\n"
            (Serve.Access_log.warning_to_string w))
        warnings;
      let s = Serve.Access_log.stats ~top records in
      Printf.printf "%d requests\n" s.Serve.Access_log.total;
      if s.Serve.Access_log.total > 0 then begin
      Printf.printf "%-8s %8s %10s %10s %10s %12s\n" "phase" "count"
        "p50 ms" "p95 ms" "max ms" "total ms";
        let row name h =
          Printf.printf "%-8s %8d %10.3f %10.3f %10.3f %12.3f\n" name
            (Obs.Histogram.count h)
            (Obs.Histogram.quantile h 0.5)
            (Obs.Histogram.quantile h 0.95)
            (Obs.Histogram.maximum h) (Obs.Histogram.total h)
        in
        row "wall" s.Serve.Access_log.wall;
        List.iter (fun (name, h) -> row name h) s.Serve.Access_log.phase_hists;
        print_endline "-- slowest requests --";
        List.iter
          (fun (r : Serve.Access_log.record) ->
            Printf.printf "%10.3f ms  req=%d %s %s%s\n"
              r.Serve.Access_log.wall_ms r.req r.verb r.outcome
              (match r.session with None -> "" | Some s -> " session=" ^ s))
          s.Serve.Access_log.slowest
      end;
      (* A torn tail is expected after a crash and only warns; damaged
         records anywhere else mean the file cannot be trusted. *)
      if
        List.exists
          (function Serve.Access_log.Bad_record _ -> true | _ -> false)
          warnings
      then failwith "access log contains malformed records")

let logstat_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Access log written by $(b,tecore serve --access-log).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Slowest requests listed.")
  in
  Cmd.v
    (Cmd.info "logstat" ~exits:io_exits
       ~doc:
         "Summarise a tecore serve access log (per-phase p50/p95, \
          slowest requests)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads the JSON-lines access log of $(b,tecore serve \
              --access-log) and prints per-phase latency quantiles \
              (computed exactly like the live \
              $(b,serve_request_phase_ms) summaries) plus the top-N \
              slowest requests. A torn final line — the signature of a \
              crash mid-append — is skipped with a warning; malformed \
              records anywhere else fail the run.";
         ])
    Term.(const logstat $ file $ top)

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "tecore" ~version:"1.0.0"
       ~doc:"Temporal conflict resolution in uncertain knowledge graphs")
    [ resolve_cmd; analyse_cmd; complete_cmd; generate_cmd; query_cmd;
      suggest_cmd; export_cmd; coalesce_cmd; learn_cmd; diff_cmd;
      session_cmd; serve_cmd; client_cmd; logstat_cmd; demo_cmd ]

let () = exit (Cmd.eval' main)
