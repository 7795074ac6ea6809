(* Benchmark harness: regenerates every table, figure and quantitative
   claim of the paper's evaluation (see DESIGN.md section 3 for the
   experiment index, EXPERIMENTS.md for paper-vs-measured numbers).

   Usage:
     dune exec bench/main.exe              # all experiments
     dune exec bench/main.exe -- e3 a1     # a selection
     dune exec bench/main.exe -- --smoke   # fast mode: smaller inputs, fewer reps
     dune exec bench/main.exe -- --jobs 8 par  # the job count par compares

   Absolute times will not match the paper (different machine, different
   substrate); the shapes are what is being reproduced. *)

let fast_mode = ref false

let section id title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "==============================================================\n%!"

let row fmt = Printf.printf fmt

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> failwith (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let mln_engine = Tecore.Engine.Mln Mln.Map_inference.default_options
let psl_engine = Tecore.Engine.Psl Psl.Npsl.default_options

let engine_name = function
  | Tecore.Engine.Mln _ -> "MLN (nRockIt path)"
  | Tecore.Engine.Psl _ -> "nPSL"
  | Tecore.Engine.Auto -> "auto"

(* ------------------------------------------------------------------ *)
(* E1: the running example (Figures 1, 4, 6 -> Figure 7).             *)

let running_example_graph () =
  Kg.Graph.of_list
    [
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Leicester") (2015, 2017) 0.7;
      Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
      Kg.Quad.v "CR" "birthDate" (Kg.Term.int 1951) (1951, 2017) 1.0;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
    ]

let running_example_rules () =
  parse_rules
    {|rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .
rule f2 1.6: worksFor(x, y)@t ^ locatedIn(y, z)@t2 ^ intersects(t, t2) => livesIn(x, z)@(t * t2) .
rule f3 2.9: playsFor(x, y)@t ^ birthDate(x, z)@t2 ^ t - t2 < 20 => TeenPlayer(x) .
constraint c1: birthDate(x, y)@t ^ deathDate(x, z)@t2 => before(t, t2) .
constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
constraint c3: bornIn(x, y)@t ^ bornIn(x, z)@t2 ^ intersects(t, t2) => y = z .|}

let e1 () =
  section "E1" "running example: map(θ(G), F ∪ C) removes fact (5)";
  List.iter
    (fun engine ->
      let result =
        Tecore.Engine.resolve ~engine (running_example_graph ())
          (running_example_rules ())
      in
      let removed =
        List.map
          (fun (_, q) -> Kg.Quad.to_string q)
          result.Tecore.Engine.resolution.Tecore.Conflict.removed
      in
      row "engine %-20s removed=%d derived=%d runtime=%.1fms\n"
        (engine_name engine)
        (List.length removed)
        (List.length result.Tecore.Engine.resolution.Tecore.Conflict.derived)
        result.Tecore.Engine.stats.Tecore.Engine.total_ms;
      List.iter (fun q -> row "  removed: %s\n" q) removed;
      let expected = "(CR, coach, Napoli, [2001,2003]) 0.6" in
      row "  paper expects exactly: %s -> %s\n" expected
        (if removed = [ expected ] then "REPRODUCED" else "MISMATCH");
      if removed <> [ expected ] then
        failwith
          (Printf.sprintf "E1: %s does not remove exactly %s"
             (engine_name engine) expected))
    [ mln_engine; psl_engine ]

(* ------------------------------------------------------------------ *)
(* E2: Figure 8 statistics — 19,734 conflicting of 243,157 facts.     *)

let e2 () =
  section "E2" "Figure 8: conflicting-fact statistics on a Wikidata-style UTKG";
  row "%-12s %-10s %-12s %-12s %-10s %-10s\n" "facts" "planted" "conflicting"
    "removed" "kept" "time(ms)";
  let sizes = if !fast_mode then [ 24_315 ] else [ 24_315; 243_157 ] in
  List.iter
    (fun total ->
      let d =
        Datagen.Wikidata.generate ~seed:2 ~total_facts:total
          ~conflict_rate:0.0812 ()
      in
      let result =
        Tecore.Engine.resolve ~engine:psl_engine d.Datagen.Wikidata.graph
          (Datagen.Wikidata.constraints ())
      in
      let r = result.Tecore.Engine.resolution in
      row "%-12d %-10d %-12d %-12d %-10d %-10.0f\n"
        (Kg.Graph.size d.Datagen.Wikidata.graph)
        (List.length d.Datagen.Wikidata.planted)
        (List.length r.Tecore.Conflict.conflicting)
        (List.length r.Tecore.Conflict.removed)
        r.Tecore.Conflict.kept result.Tecore.Engine.stats.Tecore.Engine.total_ms)
    sizes;
  row "paper: 19,734 conflicting facts out of 243,157 (planted rate 8.12%%);\n";
  row "our 'conflicting' also counts the clean partner of each clash, so it\n";
  row "is roughly 2x the planted count -- same detection shape.\n"

(* ------------------------------------------------------------------ *)
(* E3: MAP inference performance, nRockIt vs nPSL on FootballDB.      *)

let e3 () =
  section "E3"
    "MAP runtime on FootballDB (paper: nRockIt 12,181ms vs nPSL 6,129ms, avg 10 runs)";
  let d = Datagen.Footballdb.generate ~seed:1 ~players:6500 ~noise_ratio:0.5 () in
  let rules = Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules () in
  row "dataset: %d facts (%d planted errors)\n"
    (Kg.Graph.size d.Datagen.Footballdb.graph)
    (List.length d.Datagen.Footballdb.planted);
  let runs = if !fast_mode then 3 else 10 in
  let measure engine =
    Prelude.Timing.mean_ms ~runs (fun () ->
        ignore (Tecore.Engine.resolve ~engine d.Datagen.Footballdb.graph rules))
  in
  let mln_ms = measure mln_engine in
  let psl_ms = measure psl_engine in
  row "%-24s %12s %14s\n" "engine" "ours (ms)" "paper (ms)";
  row "%-24s %12.0f %14s\n" "MLN (nRockIt path)" mln_ms "12181";
  row "%-24s %12.0f %14s\n" "nPSL" psl_ms "6129";
  row "speedup nPSL over MLN: ours %.2fx, paper %.2fx -> %s\n" (mln_ms /. psl_ms)
    (12181.0 /. 6129.0)
    (if mln_ms > psl_ms then "SHAPE REPRODUCED (PSL faster)"
     else "SHAPE MISMATCH")

(* ------------------------------------------------------------------ *)
(* E4: dataset cardinalities of Section 4.                            *)

let e4 () =
  section "E4" "dataset shapes vs the paper's corpus description";
  let fb = Datagen.Footballdb.generate ~seed:1 ~players:6500 () in
  let count g p = List.length (Kg.Graph.by_predicate g (Kg.Term.iri p)) in
  row "FootballDB (full scale):\n";
  row "  %-12s ours=%-8d paper=%s\n" "playsFor"
    (count fb.Datagen.Footballdb.graph "playsFor")
    ">13,000";
  row "  %-12s ours=%-8d paper=%s\n" "birthDate"
    (count fb.Datagen.Footballdb.graph "birthDate")
    ">6,000";
  let wd = Datagen.Wikidata.generate ~seed:2 ~total_facts:63_000 () in
  row "Wikidata (1:100 scale; paper total 6.3M):\n";
  let paper_share =
    [
      ("playsFor", "dominant (>4M of 6.3M)"); ("memberOf", ">23K");
      ("spouse", ">20K"); ("educatedAt", ">6K"); ("occupation", ">4.5K");
    ]
  in
  List.iter
    (fun (rel, paper) ->
      let ours =
        Option.value
          (List.assoc_opt rel wd.Datagen.Wikidata.relation_counts)
          ~default:0
      in
      row "  %-12s ours=%-8d paper=%s\n" rel ours paper)
    paper_share

(* ------------------------------------------------------------------ *)
(* E5: debugging quality in the paper's 50%-noise regime.             *)

let e5 () =
  section "E5" "noise robustness: 'as many erroneous temporal facts as correct ones'";
  row "%-8s %-20s %-10s %-10s %-10s %-10s\n" "noise" "engine" "planted"
    "removed" "precision" "recall";
  List.iter
    (fun noise_ratio ->
      let d = Datagen.Footballdb.generate ~seed:7 ~players:2000 ~noise_ratio () in
      let rules = Datagen.Footballdb.constraints () in
      List.iter
        (fun engine ->
          let result =
            Tecore.Engine.resolve ~engine d.Datagen.Footballdb.graph rules
          in
          let planted = d.Datagen.Footballdb.planted in
          let removed =
            List.map fst result.Tecore.Engine.resolution.Tecore.Conflict.removed
          in
          let planted_set = Hashtbl.create 64 in
          List.iter (fun id -> Hashtbl.replace planted_set id ()) planted;
          let tp = List.length (List.filter (Hashtbl.mem planted_set) removed) in
          row "%-8.2f %-20s %-10d %-10d %-10.3f %-10.3f\n" noise_ratio
            (engine_name engine) (List.length planted) (List.length removed)
            (float_of_int tp /. float_of_int (max 1 (List.length removed)))
            (float_of_int tp /. float_of_int (max 1 (List.length planted))))
        [ mln_engine; psl_engine ])
    [ 0.25; 0.5; 1.0 ]

(* ------------------------------------------------------------------ *)
(* E6: the threshold feature on derived facts.                        *)

let e6 () =
  section "E6" "threshold on derived facts ('remove derived facts below that')";
  (* Wikidata's inference rule derives binary temporal facts
     (occupation(x, Athlete)@t), so thresholded facts visibly leave the
     expanded KG. Facts derivable from several stints get a higher
     support confidence and survive stricter thresholds. *)
  let d = Datagen.Wikidata.generate ~seed:3 ~total_facts:4_000 () in
  let rules = Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules () in
  row "%-10s %-14s %-14s\n" "threshold" "derived kept" "consistent size";
  List.iter
    (fun threshold ->
      let result =
        Tecore.Engine.resolve ~engine:psl_engine ~threshold
          d.Datagen.Wikidata.graph rules
      in
      row "%-10.2f %-14d %-14d\n" threshold
        (List.length result.Tecore.Engine.resolution.Tecore.Conflict.derived)
        (Kg.Graph.size
           result.Tecore.Engine.resolution.Tecore.Conflict.consistent))
    [ 0.0; 0.5; 0.7; 0.8; 0.9; 0.95 ]

(* ------------------------------------------------------------------ *)
(* E7: scalability sweep — the expressiveness/scalability trade.      *)

let e7 () =
  section "E7" "scalability: PSL scales, MLN does not (size sweep)";
  row "%-10s %-14s %-14s %-10s\n" "facts" "MLN (ms)" "nPSL (ms)" "ratio";
  let sizes =
    if !fast_mode then [ 1_000; 4_000; 16_000 ]
    else [ 1_000; 2_000; 4_000; 8_000; 16_000; 32_000; 64_000 ]
  in
  List.iter
    (fun total ->
      let d =
        Datagen.Wikidata.generate ~seed:4 ~total_facts:total ~conflict_rate:0.08
          ()
      in
      let rules = Datagen.Wikidata.constraints () in
      let time engine =
        Prelude.Timing.time_ms (fun () ->
            ignore (Tecore.Engine.resolve ~engine d.Datagen.Wikidata.graph rules))
      in
      let mln_ms = time mln_engine in
      let psl_ms = time psl_engine in
      row "%-10d %-14.0f %-14.0f %-10.2f\n"
        (Kg.Graph.size d.Datagen.Wikidata.graph)
        mln_ms psl_ms (mln_ms /. psl_ms))
    sizes

(* ------------------------------------------------------------------ *)
(* A1: ablation — cutting-plane inference on vs off.                  *)

let a1 () =
  section "A1"
    "ablation: condition-aware grounding vs naive propositionalisation";
  (* TeCoRe grounds MLNs *with numerical constraints*: Allen and
     arithmetic conditions are evaluated during grounding, so only the
     genuinely violated constraint instances become clauses. A naive
     propositionalisation keeps one clause per instance, satisfied ones
     included (here emulated with a pinned always-true atom so the
     solver really has to carry them). *)
  let d = Datagen.Footballdb.generate ~seed:5 ~players:3000 ~noise_ratio:0.5 () in
  let rules = Datagen.Footballdb.constraints () in
  let store = Grounder.Atom_store.of_graph d.Datagen.Footballdb.graph in
  let ground, ground_ms =
    Prelude.Timing.time (fun () -> Grounder.Ground.run store rules)
  in
  let instances = ground.Grounder.Ground.instances in
  let n_instances = Array.length instances.Grounder.Ground.head in
  let aware = Mln.Network.build store instances in
  let naive =
    let n = aware.Mln.Network.num_atoms in
    let pinned = n in
    let extra =
      List.init n_instances Fun.id
      |> List.filter_map (fun i ->
             if instances.head.(i) = Grounder.Ground.satisfied then
               (* naive grounding keeps the satisfied instance around *)
               let rule = instances.rules.(instances.rule.(i)) in
               Some
                 ( (pinned, true)
                   :: List.map
                        (fun id -> (id, false))
                        (Grounder.Ground.body_atoms instances i),
                   rule.Logic.Rule.weight,
                   rule.Logic.Rule.name ^ "/naive" )
             else None)
    in
    let pin_clause = ([ (pinned, true) ], None, "pin") in
    Mln.Network.append aware
      (Mln.Network.of_clauses ~num_atoms:(n + 1) (pin_clause :: extra))
  in
  row "grounding produced %d rule instances in %.0f ms\n" n_instances
    ground_ms;
  row "%-24s %-14s %-14s\n" "grounding" "clauses" "solve (ms)";
  let solve network =
    let init = Mln.Network.initial_assignment network store in
    if network.Mln.Network.num_atoms > Grounder.Atom_store.size store then
      init.(Grounder.Atom_store.size store) <- true;
    Prelude.Timing.mean_ms ~runs:3 (fun () ->
        ignore (Mln.Maxwalksat.solve ~seed:1 ~init network))
  in
  row "%-24s %-14d %-14.0f\n" "condition-aware (ours)"
    (Mln.Network.num_clauses aware)
    (solve aware);
  row "%-24s %-14d %-14.0f\n" "naive (all instances)"
    (Mln.Network.num_clauses naive)
    (solve naive)

(* ------------------------------------------------------------------ *)
(* A2: ablation — exact solvers vs local search on small instances.   *)

let a2 () =
  section "A2" "ablation: MaxWalkSAT vs exact branch&bound vs ILP (small graphs)";
  row "%-10s %-14s %-12s %-12s\n" "solver" "objective" "time (ms)" "kind";
  let d = Datagen.Footballdb.generate ~seed:6 ~players:12 ~noise_ratio:0.6 () in
  let rules = Datagen.Footballdb.constraints () in
  List.iter
    (fun (name, solver) ->
      let options =
        {
          Mln.Map_inference.default_options with
          Mln.Map_inference.solver;
          use_cpi = false;
        }
      in
      let out, ms =
        Prelude.Timing.time (fun () ->
            Mln.Map_inference.run ~options d.Datagen.Footballdb.graph rules)
      in
      row "%-10s %-14.4f %-12.2f %-12s\n" name
        out.Mln.Map_inference.stats.Mln.Map_inference.objective ms
        (match solver with
        | Mln.Map_inference.Walk -> "approximate"
        | Mln.Map_inference.Exact_bb | Mln.Map_inference.Ilp_exact -> "exact"))
    [
      ("walk", Mln.Map_inference.Walk);
      ("exact", Mln.Map_inference.Exact_bb);
      ("ilp", Mln.Map_inference.Ilp_exact);
    ]

(* ------------------------------------------------------------------ *)
(* A3: ablation — ADMM iteration budget vs solution quality.          *)

let a3 () =
  section "A3" "ablation: ADMM iterations vs objective and rounding repairs";
  let d = Datagen.Footballdb.generate ~seed:8 ~players:1500 ~noise_ratio:0.5 () in
  let rules = Datagen.Footballdb.constraints () in
  row "%-12s %-12s %-12s %-14s %-10s %-10s\n" "max_iters" "iters" "objective"
    "violation" "flips" "time(ms)";
  List.iter
    (fun max_iters ->
      let options = { Psl.Npsl.default_options with Psl.Npsl.max_iters } in
      let out, ms =
        Prelude.Timing.time (fun () ->
            Psl.Npsl.run ~options d.Datagen.Footballdb.graph rules)
      in
      row "%-12d %-12d %-12.2f %-14.4f %-10d %-10.0f\n" max_iters
        out.Psl.Npsl.stats.Psl.Npsl.admm.Psl.Admm.iterations
        out.Psl.Npsl.stats.Psl.Npsl.admm.Psl.Admm.objective
        (Psl.Hlmrf.constraint_violation out.Psl.Npsl.model out.Psl.Npsl.truth)
        out.Psl.Npsl.stats.Psl.Npsl.rounding.Psl.Rounding.flipped ms)
    [ 10; 50; 100; 500; 2000 ]

(* ------------------------------------------------------------------ *)
(* A4: marginal (Gibbs) inference vs MAP — per-fact posteriors.       *)

let a4 () =
  section "A4" "extension: marginal inference (Gibbs, MC-SAT) separates noise from clean facts";
  let d = Datagen.Footballdb.generate ~seed:10 ~players:150 ~noise_ratio:0.5 () in
  let rules = Datagen.Footballdb.constraints () in
  let store = Grounder.Atom_store.of_graph d.Datagen.Footballdb.graph in
  let ground = Grounder.Ground.run store rules in
  let network = Mln.Network.build store ground.Grounder.Ground.instances in
  let init = Mln.Network.initial_assignment network store in
  let (marginals : Mln.Gibbs.result), ms =
    Prelude.Timing.time (fun () ->
        Mln.Gibbs.run ~seed:1 ~burn_in:500 ~samples:3_000 ~init network)
  in
  let planted = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace planted id ()) d.Datagen.Footballdb.planted;
  let clean_sum = ref 0.0 and clean_n = ref 0 in
  let noise_sum = ref 0.0 and noise_n = ref 0 in
  Grounder.Atom_store.iter
    (fun id _ origin ->
      match origin with
      | Grounder.Atom_store.Evidence { fact; _ } ->
          let m = marginals.Mln.Gibbs.marginals.(id) in
          if Hashtbl.mem planted fact then begin
            noise_sum := !noise_sum +. m;
            incr noise_n
          end
          else begin
            clean_sum := !clean_sum +. m;
            incr clean_n
          end
      | Grounder.Atom_store.Hidden -> ())
    store;
  let walk, _ = Mln.Maxwalksat.solve ~seed:1 ~init network in
  let agree = ref 0 and total = ref 0 in
  Array.iteri
    (fun id m ->
      incr total;
      if (m >= 0.5) = walk.(id) then incr agree)
    marginals.Mln.Gibbs.marginals;
  row "facts: %d (%d planted), Gibbs sampling %.0f ms (%d sweeps)\n"
    (Kg.Graph.size d.Datagen.Footballdb.graph)
    (List.length d.Datagen.Footballdb.planted)
    ms marginals.Mln.Gibbs.samples;
  row "Gibbs: mean posterior clean %.3f, planted noise %.3f\n"
    (!clean_sum /. float_of_int (max 1 !clean_n))
    (!noise_sum /. float_of_int (max 1 !noise_n));
  row "MAP/Gibbs agreement (threshold 0.5): %.3f\n"
    (float_of_int !agree /. float_of_int (max 1 !total));
  (* MC-SAT honours the hard constraints exactly in every sample. *)
  let (mcsat : Mln.Mcsat.result), mcsat_ms =
    Prelude.Timing.time (fun () ->
        Mln.Mcsat.run ~seed:1 ~burn_in:50 ~samples:300 ~init network)
  in
  let clean_sum = ref 0.0 and clean_n = ref 0 in
  let noise_sum = ref 0.0 and noise_n = ref 0 in
  Grounder.Atom_store.iter
    (fun id _ origin ->
      match origin with
      | Grounder.Atom_store.Evidence { fact; _ } ->
          let m = mcsat.Mln.Mcsat.marginals.(id) in
          if Hashtbl.mem planted fact then begin
            noise_sum := !noise_sum +. m;
            incr noise_n
          end
          else begin
            clean_sum := !clean_sum +. m;
            incr clean_n
          end
      | Grounder.Atom_store.Hidden -> ())
    store;
  row "MC-SAT (%d slices, %.0f ms, %d rejected): mean posterior clean \
       %.3f, planted noise %.3f\n"
    mcsat.Mln.Mcsat.samples mcsat_ms mcsat.Mln.Mcsat.rejected
    (!clean_sum /. float_of_int (max 1 !clean_n))
    (!noise_sum /. float_of_int (max 1 !noise_n))

(* ------------------------------------------------------------------ *)
(* A5: extension — constraint suggestion recovers the generators'     *)
(* ground-truth constraints from clean data.                          *)

let a5 () =
  section "A5" "extension: automatic constraint suggestion (mining)";
  let corpora =
    [
      ("footballdb", (Datagen.Footballdb.generate ~seed:11 ~players:800 ()).Datagen.Footballdb.graph);
      ("wikidata", (Datagen.Wikidata.generate ~seed:11 ~total_facts:6_000 ()).Datagen.Wikidata.graph);
    ]
  in
  List.iter
    (fun (name, graph) ->
      let suggestions, ms =
        Prelude.Timing.time (fun () -> Tecore.Suggest.mine graph)
      in
      row "%s: %d suggestions in %.0f ms\n" name (List.length suggestions) ms;
      List.iter
        (fun s ->
          row "  ratio %.3f support %-6d %s\n" s.Tecore.Suggest.ratio
            s.Tecore.Suggest.support
            (Rulelang.Printer.rule_to_string s.Tecore.Suggest.rule))
        suggestions)
    corpora;
  row "expected recoveries: playsFor disjointness and the\n";
  row "birthDate-before-playsFor precedence on footballdb; playsFor and\n";
  row "spouse disjointness on wikidata. (birthDate functionality needs\n";
  row "duplicate assertions per subject, which clean corpora lack.)\n"

(* ------------------------------------------------------------------ *)
(* A6: extension — pseudo-likelihood weight learning.                 *)

let a6 () =
  section "A6" "extension: rule-weight learning by pseudo-likelihood";
  let rules =
    parse_rules
      {|rule supported 1.0: playsFor(x, y)@t ^ birthDate(x, z)@t2 ^ t - t2 > 30 => VeteranPlayer(x) .
rule unsupported 1.0: playsFor(x, y)@t => VeteranPlayer(x) .
constraint satisfied 1.0: playsFor(x, y)@t ^ playsFor(x, z)@t2 ^ y != z => disjoint(t, t2) .
constraint violated 1.0: playsFor(x, y)@t ^ playsFor(x, z)@t2 => intersects(t, t2) .|}
  in
  let d = Datagen.Footballdb.generate ~seed:23 ~players:1000 () in
  let store = Grounder.Atom_store.of_graph d.Datagen.Footballdb.graph in
  let ground = Grounder.Ground.run store rules in
  let result, ms =
    Prelude.Timing.time (fun () ->
        Mln.Learn.learn store ground.Grounder.Ground.instances rules)
  in
  row "trained on %d clean facts in %.0f ms\n"
    (Kg.Graph.size d.Datagen.Footballdb.graph)
    ms;
  row "%-14s %-10s %s\n" "rule" "learned w" "expectation";
  let expectation = function
    | "supported" | "unsupported" ->
        "head never observed -> floor"
    | "satisfied" -> "never violated by the data -> rises"
    | _ -> "contradicted by disjoint stints -> floor"
  in
  List.iter
    (fun (name, w) -> row "%-14s %-10.3f %s\n" name w (expectation name))
    result.Mln.Learn.weights;
  (match (List.assoc_opt "satisfied" result.Mln.Learn.weights,
          List.assoc_opt "violated" result.Mln.Learn.weights) with
  | Some s, Some v ->
      row "shape: satisfied (%.2f) > violated (%.2f) -> %s\n" s v
        (if s > v then "REPRODUCED" else "MISMATCH")
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* A7: extension — repair strategies: greedy vs hitting sets vs MAP.  *)

let a7 () =
  section "A7" "extension: repair strategies (greedy / min hitting set / MAP)";
  let d = Datagen.Footballdb.generate ~seed:35 ~players:8 ~noise_ratio:0.45 () in
  let rules = Datagen.Footballdb.constraints () in
  let graph = d.Datagen.Footballdb.graph in
  row "dataset: %d facts, %d planted errors, %d conflict sets\n"
    (Kg.Graph.size graph)
    (List.length d.Datagen.Footballdb.planted)
    (List.length (Tecore.Repair.conflict_sets graph rules));
  row "%-16s %-10s %-12s %-12s %-12s\n" "strategy" "removed" "conf cost"
    "logit cost" "time (ms)";
  let logit_cost removed =
    List.fold_left (fun acc (_, q) -> acc +. Kg.Quad.weight q) 0.0 removed
  in
  let conf_cost removed =
    List.fold_left (fun acc (_, q) -> acc +. q.Kg.Quad.confidence) 0.0 removed
  in
  let score name removed ms =
    row "%-16s %-10d %-12.2f %-12.2f %-12.2f\n" name (List.length removed)
      (conf_cost removed) (logit_cost removed) ms
  in
  let greedy, greedy_ms =
    Prelude.Timing.time (fun () -> Tecore.Repair.greedy graph rules)
  in
  score "greedy" greedy.Tecore.Repair.removed greedy_ms;
  (let result, ms =
     Prelude.Timing.time (fun () -> Tecore.Repair.optimal_hitting_set graph rules)
   in
   match result with
   | Some hs -> score "hitting-set" hs.Tecore.Repair.removed ms
   | None -> row "hitting-set      (beyond diagnosis scale)\n");
  let map_result, map_ms =
    Prelude.Timing.time (fun () -> Tecore.Engine.resolve graph rules)
  in
  score "MAP (TeCoRe)" map_result.Tecore.Engine.resolution.Tecore.Conflict.removed
    map_ms;
  row "each strategy optimises its own measure: greedy and the hitting\n";
  row "set minimise confidence mass, MAP minimises log-odds (logit) mass;\n";
  row "MAP should win the logit column, the hitting set the conf column.\n"

(* The lower median. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.((Array.length a - 1) / 2)

(* ------------------------------------------------------------------ *)
(* PAR: partitioned-join grounding at jobs=1 vs jobs=N on the pinned   *)
(* 10^5 regime.                                                        *)

let compare_jobs = ref 4

(* Rows the grounding's joins read, as its Obs counters report them. *)
let join_rows (r : Obs.Report.t) =
  let rec sum acc counters children =
    List.fold_left
      (fun acc (n : Obs.Report.node) ->
        sum acc n.Obs.Report.counters n.Obs.Report.children)
      (acc
      +. Option.value (List.assoc_opt "ground.join_rows" counters) ~default:0.)
      children
  in
  sum 0. r.Obs.Report.counters r.Obs.Report.spans

(* jobs=N must ground exactly what jobs=1 grounds: the same closure
   rounds, rule instances and joined rows. That is checked on every
   host. Whether the speedup is timed depends on the host alone and is
   decided before anything runs: only with two cores per job can a
   jobs=N grounding be expected to win, and there it must beat jobs=1. *)
let par_bench () =
  section "PAR" "multicore grounding: jobs=1 vs jobs=N on the 1e5 regime";
  let jobs_hi = Prelude.Pool.jobs (Prelude.Pool.create ~jobs:!compare_jobs) in
  let cores = Prelude.Pool.recommended_jobs () in
  let data = Datagen.Wikidata.generate_regime "1e5" in
  let rules = Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules () in
  let ground pool =
    let store = Grounder.Atom_store.of_graph data.Datagen.Wikidata.graph in
    Prelude.Timing.time (fun () ->
        Grounder.Ground.run ~pool ~lazy_constraints:true store rules)
  in
  let grounded jobs =
    Obs.reset ();
    Obs.set_enabled true;
    let r, _ =
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled false)
        (fun () -> ground (Prelude.Pool.create ~jobs))
    in
    let rows = join_rows (Obs.Report.capture ()) in
    Obs.reset ();
    (r.Grounder.Ground.rounds, r.Grounder.Ground.instances, rows)
  in
  let ((rounds, instances, rows) as g1) = grounded 1 in
  if grounded jobs_hi <> g1 then
    failwith
      (Printf.sprintf "par: grounding differs between jobs=1 and jobs=%d"
         jobs_hi);
  row "ground 1e5 jobs=%d grounds what jobs=1 grounds: %d rounds, %d \
       instances, %.0f rows joined\n"
    jobs_hi rounds
    (Array.length instances.Grounder.Ground.head)
    rows;
  if jobs_hi < 2 || cores < 2 * jobs_hi then
    row "ground 1e5 speedup SKIPPED: timing jobs=%d needs jobs >= 2 and \
         %d cores, the host has %d\n"
      jobs_hi (2 * jobs_hi) cores
  else begin
    let reps = if !fast_mode then 2 else 3 in
    let median_ms jobs =
      let pool = Prelude.Pool.create ~jobs in
      median (List.init reps (fun _ -> snd (ground pool)))
    in
    let ms1 = median_ms 1 in
    let ms_hi = median_ms jobs_hi in
    let speedup = ms1 /. ms_hi in
    row "ground 1e5 jobs=1 median %.2f ms, jobs=%d median %.2f ms, speedup \
         %.2fx\n"
      ms1 jobs_hi ms_hi speedup;
    if speedup <= 1.0 then
      failwith
        (Printf.sprintf
           "par: jobs=%d grounding is %.2fx jobs=1 on %d cores, not > 1.0x"
           jobs_hi speedup cores)
  end

(* ------------------------------------------------------------------ *)
(* INCR: incremental re-resolve latency vs from-scratch, per delta     *)
(* size.                                                               *)

(* One measured cell: [engine] re-resolving after [delta_size]
   single-fact edits (each a retract of one playsFor stint plus an
   assert of a replacement at another team), incremental vs
   from-scratch, medians over repeated edit/resolve rounds. The
   incremental result is asserted equal to the fresh one on every round,
   so the bench doubles as an end-to-end differential check at sizes the
   unit tests do not reach. The headline claim of the incremental
   engine: re-resolving after a single-fact edit beats a from-scratch
   resolve on wall-clock median. *)
let incr_bench () =
  section "INCR" "incremental sessions: delta re-resolve vs fresh";
  let reps = if !fast_mode then 3 else 5 in
  let players = if !fast_mode then 120 else 400 in
  let rules = Datagen.Footballdb.constraints () in
  let signature (r : Tecore.Engine.result) =
    let res = r.Tecore.Engine.resolution in
    ( List.map fst res.Tecore.Conflict.removed,
      res.Tecore.Conflict.kept,
      List.length res.Tecore.Conflict.derived,
      r.Tecore.Engine.stats.Tecore.Engine.objective )
  in
  List.iter
    (fun (engine_id, engine) ->
      List.iter
        (fun delta_size ->
          let d =
            Datagen.Footballdb.generate ~seed:17 ~players ~noise_ratio:0.5 ()
          in
          let g = d.Datagen.Footballdb.graph in
          let st = Tecore.Engine.create_state () in
          (* Prime the state: first resolve records the grounding
             snapshot and fills the component solution caches. *)
          ignore
            (Tecore.Engine.resolve ~engine ~state:st ~mode:`Incremental g rules);
          let round = ref 0 in
          let apply_edits () =
            incr round;
            let plays = Kg.Graph.by_predicate g (Kg.Term.iri "playsFor") in
            let plays = Array.of_list plays in
            let n = Array.length plays in
            let facts = ref [] in
            for i = 0 to delta_size - 1 do
              let idx = ((!round * 37) + (i * 61)) mod n in
              let id, q = plays.(idx) in
              if Kg.Graph.mem_id g id then begin
                let _, donor = plays.((idx + 97) mod n) in
                Kg.Graph.remove g id;
                let q' = { q with Kg.Quad.object_ = donor.Kg.Quad.object_ } in
                ignore (Kg.Graph.add g q');
                facts :=
                  Logic.Atom.Ground.of_quad q'
                  :: Logic.Atom.Ground.of_quad q
                  :: !facts
              end
            done;
            { Tecore.Engine.facts = !facts; rules_changed = false }
          in
          let fresh_samples = ref [] in
          let incr_samples = ref [] in
          for _ = 1 to reps do
            let delta = apply_edits () in
            let r_fresh, fresh_ms =
              Prelude.Timing.time (fun () ->
                  Tecore.Engine.resolve ~engine g rules)
            in
            let r_incr, incr_ms =
              Prelude.Timing.time (fun () ->
                  Tecore.Engine.resolve ~engine ~state:st ~mode:`Incremental
                    ~delta g rules)
            in
            if signature r_fresh <> signature r_incr then
              failwith
                (Printf.sprintf
                   "incr: incremental diverged from fresh (%s, delta=%d)"
                   engine_id delta_size);
            fresh_samples := fresh_ms :: !fresh_samples;
            incr_samples := incr_ms :: !incr_samples
          done;
          let cache = Tecore.Engine.cache_stats st in
          let fresh_ms = median !fresh_samples in
          let incr_ms = median !incr_samples in
          let speedup = fresh_ms /. incr_ms in
          row
            "incr %-4s delta=%-4d fresh %9.2f ms  incremental %9.2f ms  \
             speedup %5.2fx  cache hits %d/%d\n"
            engine_id delta_size fresh_ms incr_ms speedup
            cache.Tecore.Engine.solve_hits
            (cache.Tecore.Engine.solve_hits + cache.Tecore.Engine.solve_misses);
          if delta_size = 1 && speedup <= 1.0 then
            failwith
              (Printf.sprintf "incr: delta=1 speedup for %s is %.2fx, not > 1"
                 engine_id speedup))
        [ 1; 10; 100 ])
    [ ("mln", mln_engine); ("psl", psl_engine) ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("a1", a1); ("a2", a2); ("a3", a3); ("a4", a4);
    ("a5", a5); ("a6", a6); ("a7", a7); ("par", par_bench);
    ("incr", incr_bench);
  ]

let () =
  let rec parse names = function
    | [] -> List.rev names
    | "--smoke" :: rest ->
        fast_mode := true;
        parse names rest
    | "--jobs" :: n :: rest ->
        (match Prelude.Pool.parse_jobs (Some n) with
        | Some jobs -> compare_jobs := jobs
        | None ->
            Printf.eprintf "invalid --jobs value %s\n" n;
            exit 1);
        parse names rest
    | a :: rest -> parse (a :: names) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested
