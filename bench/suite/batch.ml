(* Batch workloads: fresh [Tecore.Engine.resolve] calls on one generated
   graph, repeated for the measurement window. The traced variant also
   calls each layer's public entry point from outside, in the engine's
   order and with the engine's options, to attribute the resolve time. *)

open Common

type spec = {
  engine : Tecore.Engine.engine;
  generate : seed:int -> quick:bool -> Kg.Graph.t * Kg.Graph.id list;
      (** the input graph and the ids of its planted noise *)
  rules : unit -> Logic.Rule.t list;
}

let footballdb engine =
  {
    engine;
    generate =
      (fun ~seed ~quick ->
        let players = if quick then 150 else 6500 in
        let d = Datagen.Footballdb.generate ~seed ~players ~noise_ratio:0.5 () in
        (d.Datagen.Footballdb.graph, d.Datagen.Footballdb.planted));
    rules =
      (fun () -> Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ());
  }

let wikidata =
  {
    engine = Tecore.Engine.Psl Psl.Npsl.default_options;
    generate =
      (fun ~seed ~quick ->
        let d =
          if quick then
            Datagen.Wikidata.generate ~seed ~total_facts:2_000
              ~conflict_rate:0.01 ()
          else Datagen.Wikidata.generate_regime ~seed "1e5"
        in
        (d.Datagen.Wikidata.graph, d.Datagen.Wikidata.planted));
    rules =
      (fun () -> Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules ());
  }

(* The engine receives the graph the way a user's file reaches it: saved
   as N-Quads and parsed back. Planted ids must survive the round trip,
   or the quality scores would be meaningless. *)
let load ~tmp graph planted =
  let path = Filename.concat tmp "input.tq" in
  Kg.Nquads.save_file path graph;
  match Kg.Nquads.parse_file path with
  | Error e -> failwith (Format.asprintf "%s: %a" path Kg.Nquads.pp_error e)
  | Ok loaded ->
      List.iter
        (fun id ->
          if
            not
              (Kg.Quad.same_statement (Kg.Graph.find graph id)
                 (Kg.Graph.find loaded id))
          then failwith (Printf.sprintf "planted fact %d moved on reload" id))
        planted;
      loaded

(* What a resolve produced, whichever way it was driven. *)
type answer = {
  resolution : Tecore.Conflict.resolution;
  objective : float;
  hard_violations : int;
  status : Prelude.Deadline.status;
}

let answer_of_result (r : Tecore.Engine.result) =
  {
    resolution = r.Tecore.Engine.resolution;
    objective = r.Tecore.Engine.stats.Tecore.Engine.objective;
    hard_violations = r.Tecore.Engine.stats.Tecore.Engine.hard_violations;
    status = r.Tecore.Engine.stats.Tecore.Engine.status;
  }

let fingerprint a =
  let ids = List.sort compare (List.map fst a.resolution.Tecore.Conflict.removed) in
  Obs.Json.Obj
    [
      ("removed", int (List.length ids));
      ( "removed_digest",
        Obs.Json.Str
          (Digest.to_hex
             (Digest.string (String.concat "," (List.map string_of_int ids)))) );
      ("kept", int a.resolution.Tecore.Conflict.kept);
      ("derived", int (List.length a.resolution.Tecore.Conflict.derived));
      ("objective", num a.objective);
    ]

let problems ?expect a =
  List.filter_map Fun.id
    [
      (if a.status = Prelude.Deadline.Completed then None
       else
         Some ("status " ^ Prelude.Deadline.status_name a.status));
      (if a.hard_violations = 0 then None
       else Some (Printf.sprintf "%d hard violations" a.hard_violations));
      (match expect with
      | Some e when fingerprint a <> e ->
          Some
            ("fingerprint " ^ Obs.Json.to_string (fingerprint a) ^ " differs from "
           ^ Obs.Json.to_string e)
      | _ -> None);
    ]

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* One resolve driven layer by layer, exactly as the engine's stateless
   path composes them. Returns the answer and, per layer, elapsed
   milliseconds or allocated megawords. *)
let layered engine graph rules =
  let _report, analyse_ms =
    time (fun () -> Tecore.Translator.analyse graph rules)
  in
  let w0 = words () in
  let store, store_ms = time (fun () -> Grounder.Atom_store.of_graph graph) in
  let ground, ground_ms =
    time (fun () -> Grounder.Ground.run ~lazy_constraints:true store rules)
  in
  let ground_mwords = (words () -. w0) /. 1e6 in
  let instances = ground.Grounder.Ground.instances in
  let prefix, encode_ms, split, (run_ms, run_mwords, assignment, answer) =
    let solve f =
      let w0 = words () in
      let (assignment, objective, hard_violations, status), ms = time f in
      (ms, (words () -. w0) /. 1e6, assignment, (objective, hard_violations, status))
    in
    match engine with
    | Tecore.Engine.Mln options ->
        let network, encode_ms =
          time (fun () ->
              Mln.Network.build ~config:options.Mln.Map_inference.network_config
                store instances)
        in
        let _, split_ms = time (fun () -> Mln.Decompose.split network) in
        ( "mln",
          encode_ms,
          [ ("mln.split_ms", split_ms) ],
          solve (fun () ->
              let out =
                Mln.Map_inference.run_ground ~options store ground ~ground_ms
              in
              let s = out.Mln.Map_inference.stats in
              ( out.Mln.Map_inference.assignment,
                s.Mln.Map_inference.objective,
                s.Mln.Map_inference.hard_violations,
                s.Mln.Map_inference.status )) )
    | Tecore.Engine.Psl options ->
        let _, encode_ms =
          time (fun () ->
              Psl.Hlmrf.build ~config:options.Psl.Npsl.config store instances)
        in
        ( "psl",
          encode_ms,
          [],
          solve (fun () ->
              let out = Psl.Npsl.run_ground ~options store ground ~ground_ms in
              let s = out.Psl.Npsl.stats in
              ( out.Psl.Npsl.assignment,
                s.Psl.Npsl.admm.Psl.Admm.objective,
                s.Psl.Npsl.rounding.Psl.Rounding.unrepaired,
                s.Psl.Npsl.status )) )
    | Tecore.Engine.Auto -> invalid_arg "layered: explicit engine required"
  in
  let resolution, interpret_ms =
    time (fun () ->
        Tecore.Conflict.interpret ~graph ~store ~instances ~assignment ())
  in
  let objective, hard_violations, status = answer in
  ( { resolution; objective; hard_violations; status },
    prefix,
    [
      ("tecore.analyse_ms", analyse_ms);
      ("grounder.store_ms", store_ms);
      ("grounder.ground_ms", ground_ms);
      ("grounder.alloc_mwords", ground_mwords);
      (prefix ^ ".encode_ms", encode_ms);
      (prefix ^ ".run_ms", run_ms);
      (prefix ^ ".solve_ms", run_ms -. encode_ms);
      (prefix ^ ".alloc_mwords", run_mwords);
      ("tecore.interpret_ms", interpret_ms);
    ]
    @ split )

(* Every counter of a captured report, summed over all spans. *)
let counters (r : Obs.Report.t) =
  let tbl = Hashtbl.create 32 in
  let add (name, v) =
    Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.)
  in
  let rec walk (n : Obs.Report.node) =
    List.iter add n.Obs.Report.counters;
    List.iter walk n.Obs.Report.children
  in
  List.iter add r.Obs.Report.counters;
  List.iter walk r.Obs.Report.spans;
  (* A counter that is not there reads nan, so that a renamed counter
     fails the run instead of passing as 0. *)
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:Float.nan

let run spec (o : opts) =
  let rules = spec.rules () in
  let failures = ref [] and attempted = ref 0 in
  let fail m = failures := m :: !failures in
  let gen_load seed =
    let graph, planted = spec.generate ~seed ~quick:o.quick in
    (load ~tmp:o.tmp graph planted, planted)
  in
  (* Set-up: input generation and load, repeated and reported as the
     median, then the first (cold) resolve, which warms the process. The
     earlier set-ups keep only their times, and their graphs are collected
     before the next starts, so that the peak RSS counts one input. *)
  let earlier_ms =
    List.init (if o.trace then 0 else 2) (fun _ ->
        let ms = snd (time (fun () -> gen_load o.seed)) in
        Gc.compact ();
        ms)
  in
  let (graph, planted), last_ms = time (fun () -> gen_load o.seed) in
  let setup_ms = earlier_ms @ [ last_ms ] in
  let resolve graph =
    answer_of_result (Tecore.Engine.resolve ~engine:spec.engine ~jobs:1 graph rules)
  in
  let cold, cold_ms = time (fun () -> resolve graph) in
  (* The peak of set-up plus one resolve: what a one-shot user needs. Read
     here, before the measured repetitions, it is the same on every run of
     a seed, because a single-threaded run allocates deterministically. *)
  let rss = peak_rss_mb "self" in
  let expect = fingerprint cold in
  let check ?expect what a =
    incr attempted;
    match problems ?expect a with
    | [] -> ()
    | ps -> fail (what ^ ": " ^ String.concat "; " ps)
  in
  check "cold resolve" cold;
  let setup_s = (Stats.median setup_ms +. cold_ms) /. 1000. in
  let score (a : answer) planted =
    let ids = Hashtbl.create 1024 in
    List.iter (fun id -> Hashtbl.replace ids id ()) planted;
    let removed = a.resolution.Tecore.Conflict.removed in
    quality
      ~hits:(List.length (List.filter (fun (id, _) -> Hashtbl.mem ids id) removed))
      ~removed:(List.length removed) ~planted:(List.length planted)
  in
  (* Created after the peak RSS is read, which its heap would raise. *)
  let cal = Calibration.create ~quick:o.quick in
  let untraced = ref [] and scaled = ref [] in
  let metrics, detail =
    if not o.trace then begin
      let t_end = now () +. o.seconds in
      while !untraced = [] || now () < t_end do
        let a, ms, at_reference = Calibration.time cal (fun () -> resolve graph) in
        check ~expect "resolve" a;
        untraced := ms :: !untraced;
        scaled := at_reference :: !scaled
      done;
      let precision, recall =
        let graph, planted = gen_load quality_seed in
        let a = resolve graph in
        check "quality resolve" a;
        score a planted
      in
      let seed_precision, seed_recall = score cold planted in
      ( [
          ("setup_s", setup_s *. Calibration.scale cal);
          ("resolve_ms.p50", Stats.median !scaled);
          ( "resolves_per_s",
            float_of_int (List.length !scaled) /. (List.fold_left ( +. ) 0. !scaled /. 1000.) );
          ("peak_rss_mb", rss);
          ("removed_precision", precision);
          ("removed_recall", recall);
        ],
        [
          ("seed_precision", num seed_precision);
          ("seed_recall", num seed_recall);
        ] )
    end
    else begin
      let t_end = now () +. o.seconds in
      (* Each cycle: an untraced resolve, the same resolve layer by layer,
         and a resolve with Obs collection on for the work counters. Each
         comes after a calibration sample and is timed at the reference
         speed, so that the three compare even when the host's speed
         changes between them. *)
      let layers = ref [] and observed = ref [] and count = ref (fun _ -> 0.) in
      let prefix = ref "" in
      while List.length !untraced < 3 || now () < t_end do
        let a, ms, at_reference = Calibration.time cal (fun () -> resolve graph) in
        check ~expect "resolve" a;
        untraced := ms :: !untraced;
        scaled := at_reference :: !scaled;
        Calibration.sample cal;
        let a, p, l = layered spec.engine graph rules in
        check ~expect "layered resolve" a;
        prefix := p;
        let at_reference (name, v) =
          (name, if String.ends_with ~suffix:"_ms" name then Calibration.at_reference cal v else v)
        in
        layers := List.map at_reference l :: !layers;
        Calibration.sample cal;
        Obs.reset ();
        Obs.set_enabled true;
        let a, ms =
          Fun.protect
            ~finally:(fun () -> Obs.set_enabled false)
            (fun () -> time (fun () -> resolve graph))
        in
        check ~expect "observed resolve" a;
        observed := Calibration.at_reference cal ms :: !observed;
        count := counters (Obs.Report.capture ())
      done;
      let layer name = Stats.median (List.filter_map (List.assoc_opt name) !layers) in
      let count = !count and p = !prefix in
      let untraced_ms = Stats.median !scaled in
      let solve_ms = layer (p ^ ".solve_ms") in
      let attributed =
        List.fold_left (fun acc n -> acc +. layer n) 0.
          [
            "tecore.analyse_ms"; "grounder.store_ms"; "grounder.ground_ms";
            p ^ ".run_ms"; "tecore.interpret_ms";
          ]
      in
      let per_engine =
        if p = "mln" then
          [
            ("mln.encode_ms", layer "mln.encode_ms");
            ("mln.clauses", count "network.clauses");
            ("mln.split_ms", layer "mln.split_ms");
            ("mln.components", count "solve.components");
            ("mln.solve_ms", solve_ms);
            ("mln.flips", count "walksat.flips");
            ("mln.flips_per_ms", count "walksat.flips" /. solve_ms);
            ("mln.cpi_iterations", count "cpi.iterations");
            ( "mln.cpi_active_frac",
              count "cpi.active_clauses" /. count "cpi.total_clauses" );
            ("mln.alloc_mwords", layer "mln.alloc_mwords");
          ]
        else
          [
            ("psl.encode_ms", layer "psl.encode_ms");
            ("psl.potentials", count "hlmrf.potentials");
            ("psl.components", count "solve.components");
            ("psl.solve_ms", solve_ms);
            ("psl.admm_iterations", count "admm.iterations");
            ("psl.iterations_per_ms", count "admm.iterations" /. solve_ms);
            ("psl.alloc_mwords", layer "psl.alloc_mwords");
          ]
      in
      ( [
          ("grounder.store_ms", layer "grounder.store_ms");
          ("grounder.ground_ms", layer "grounder.ground_ms");
          ("grounder.join_rows", count "ground.join_rows");
          ("grounder.atoms", count "ground.atoms");
          ("grounder.instances", count "ground.instances");
          ("grounder.rounds", count "ground.rounds");
          ("grounder.alloc_mwords", layer "grounder.alloc_mwords");
          ("tecore.analyse_ms", layer "tecore.analyse_ms");
          ("tecore.interpret_ms", layer "tecore.interpret_ms");
          ("tecore.unattributed_frac", (untraced_ms -. attributed) /. untraced_ms);
          ("obs.trace_overhead_frac", (Stats.median !observed /. untraced_ms) -. 1.);
        ]
        @ per_engine,
        [
          ("resolve_ms_at_reference", distribution !scaled);
          ("observed_resolve_ms_at_reference", distribution !observed);
          ("layered_cycles", int (List.length !layers));
        ] )
    end
  in
  {
    attempted = !attempted;
    failures = List.rev !failures;
    metrics;
    fingerprint = expect;
    detail =
      [
        ("resolve_ms", distribution !untraced);
        ("cold_resolve_ms", num cold_ms);
        ("setup_load_ms", Obs.Json.Arr (List.map num setup_ms));
        ("calibration_ms", distribution cal.Calibration.samples);
        ("planted", int (List.length planted));
        ("removed", int (List.length cold.resolution.Tecore.Conflict.removed));
      ]
      @ detail;
  }
