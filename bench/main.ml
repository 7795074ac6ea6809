(* Benchmark harness: regenerates every table, figure and quantitative
   claim of the paper's evaluation (see DESIGN.md section 3 for the
   experiment index, EXPERIMENTS.md for paper-vs-measured numbers).

   Usage:
     dune exec bench/main.exe              # all experiments
     dune exec bench/main.exe -- e3 a1     # a selection
     dune exec bench/main.exe -- --smoke   # fast mode: skip the full-size E2 row
     dune exec bench/main.exe -- obs --check  # gate a committed baseline

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

(* ------------------------------------------------------------------ *)
(* Committed baselines. obs, par, incr, serve and durability each      *)
(* measure one JSON document. Write mode gates it with the             *)
(* experiment's headline and writes it; --check gates the committed    *)
(* file and the live document with that same headline, then compares   *)
(* their cells (see bench/baseline.ml for the tolerance rule).         *)

let check = ref false

type baseline = {
  name : string;  (** the experiment, as the regenerate hint names it *)
  path : string;
  schema : string;
  fields : string list;  (** finite numbers every run must carry *)
  full : bool;  (** the committed file must not come from a --smoke run *)
  tolerance : Baseline.tolerance;
  cells : Obs.Json.t -> (string * float) list;  (** compared values, by label *)
  headline : Obs.Json.t -> unit;
  measure : unit -> (string * Obs.Json.t) list;
      (** the document's fields after schema and fast *)
}

let run_baseline b =
  let document () =
    Obs.Json.Obj
      (("schema", Obs.Json.Str b.schema)
      :: ("fast", Obs.Json.Bool !fast_mode)
      :: b.measure ())
  in
  let headline what doc =
    try b.headline doc
    with Failure msg -> failwith (Printf.sprintf "%s%s: %s" b.name what msg)
  in
  if not !check then begin
    let doc = document () in
    headline "" doc;
    Baseline.write ~path:b.path ~fields:b.fields doc;
    row "wrote %s -- JSON validated\n" b.path
  end
  else begin
    let committed =
      Baseline.read ~experiment:b.name ~path:b.path ~schema:b.schema
    in
    if b.full && Obs.Json.member "fast" committed <> Some (Obs.Json.Bool false)
    then
      failwith
        (Printf.sprintf
           "%s was written by a --smoke run; regenerate it with a full \
            `bench %s`"
           b.path b.name);
    headline (" --check (committed " ^ b.path ^ ")") committed;
    let doc = document () in
    headline " --check (live)" doc;
    match
      Baseline.compare b.tolerance
        ~committed:(Baseline.in_file b.path b.cells committed)
        ~fresh:(b.cells doc)
    with
    | [] ->
        row "%s --check: every cell within %gx of %s\n" b.name
          b.tolerance.Baseline.factor b.path
    | fails ->
        failwith
          (Printf.sprintf "%s --check: %d cell(s) out of tolerance:\n  %s"
             b.name (List.length fails) (String.concat "\n  " fails))
  end

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(int_of_float (p *. float_of_int (Array.length a - 1)))

let median = percentile 0.5

(* The obs and par datasets. *)
let fb_dataset players =
  let d = Datagen.Footballdb.generate ~seed:13 ~players ~noise_ratio:0.5 () in
  ( Printf.sprintf "footballdb-%d" players,
    d.Datagen.Footballdb.graph,
    Datagen.Footballdb.constraints () )

let wd_dataset total =
  let d =
    Datagen.Wikidata.generate ~seed:13 ~total_facts:total ~conflict_rate:0.08 ()
  in
  ( Printf.sprintf "wikidata-%d" total,
    d.Datagen.Wikidata.graph,
    Datagen.Wikidata.constraints () )

let require_stages names json =
  match Obs.Json.member "stages" json with
  | Some (Obs.Json.Obj stages) ->
      List.iter
        (fun stage ->
          if not (List.mem_assoc stage stages) then
            failwith (Printf.sprintf "misses stage %S" stage))
        names
  | _ -> failwith "no stages"

(* ------------------------------------------------------------------ *)
(* OBS: per-stage medians over repeated end-to-end runs, exported as   *)
(* machine-readable BENCH_obs.json (validated by re-parsing it).       *)

(* Measure the obs experiment's runs: for every dataset x engine,
   [reps] observed end-to-end resolves, reduced to per-stage duration
   medians. *)
let obs_measure () =
  let reps = if !fast_mode then 3 else 5 in
  let datasets =
    if !fast_mode then [ fb_dataset 150; wd_dataset 1_000 ]
    else [ fb_dataset 400; wd_dataset 4_000 ]
  in
  let engines = [ ("mln", mln_engine); ("psl", psl_engine) ] in
  let stage_paths =
    [
      ("total", [ "resolve" ]);
      ("ground", [ "resolve"; "ground" ]);
      ("encode", [ "resolve"; "encode" ]);
      ("solve", [ "resolve"; "solve" ]);
      ("interpret", [ "resolve"; "interpret" ]);
    ]
  in
  let runs =
    List.concat_map
      (fun (dataset, graph, rules) ->
        List.map
          (fun (engine_id, engine) ->
            let reports =
              List.init reps (fun _ ->
                  Obs.reset ();
                  Obs.set_enabled true;
                  ignore (Tecore.Engine.resolve ~engine graph rules);
                  let r = Obs.Report.capture () in
                  Obs.set_enabled false;
                  r)
            in
            let stages =
              List.filter_map
                (fun (stage, path) ->
                  let samples =
                    List.filter_map
                      (fun r ->
                        Option.map
                          (fun (n : Obs.Report.node) -> n.Obs.Report.total_ms)
                          (Obs.Report.find r path))
                      reports
                  in
                  if samples = [] then None
                  else Some (stage, median samples, samples))
                stage_paths
            in
            List.iter
              (fun (stage, ms, _) ->
                row "%-16s %-5s %-10s median %10.2f ms\n" dataset engine_id
                  stage ms)
              stages;
            Obs.Json.Obj
              [
                ("dataset", Obs.Json.Str dataset);
                ("engine", Obs.Json.Str engine_id);
                ("facts", Obs.Json.Num (float_of_int (Kg.Graph.size graph)));
                ("reps", Obs.Json.Num (float_of_int reps));
                ( "stages",
                  Obs.Json.Obj
                    (List.map
                       (fun (stage, median_ms, samples) ->
                         ( stage,
                           Obs.Json.Obj
                             [
                               ("median_ms", Obs.Json.Num median_ms);
                               ( "runs_ms",
                                 Obs.Json.Arr
                                   (List.map (fun s -> Obs.Json.Num s) samples)
                               );
                             ] ))
                       stages) );
              ])
          engines)
      datasets
  in
  [ ("runs", Obs.Json.Arr runs) ]

let obs_bench () =
  section "OBS" "observability: per-stage medians -> BENCH_obs.json";
  run_baseline
    {
      name = "obs";
      path = "BENCH_obs.json";
      schema = "tecore-bench-obs/1";
      fields = [ "facts"; "reps" ];
      full = false;
      tolerance = Baseline.timing;
      cells =
        (fun doc ->
          List.concat_map
            (fun run ->
              let key =
                Baseline.str "dataset" run ^ "/" ^ Baseline.str "engine" run
              in
              match Obs.Json.member "stages" run with
              | Some (Obs.Json.Obj stages) ->
                  List.map
                    (fun (stage, s) ->
                      (key ^ "/" ^ stage, Baseline.num "median_ms" s))
                    stages
              | _ -> [])
            (Baseline.runs doc));
      headline =
        (fun doc ->
          List.iter (require_stages [ "ground"; "encode"; "solve" ])
            (Baseline.runs doc));
      measure = obs_measure;
    }

(* ------------------------------------------------------------------ *)
(* PAR: the multicore execution layer — million-fact memory gate,      *)
(* grounding speedup gate, and per-stage engine medians at --jobs 1 vs *)
(* N, exported as BENCH_parallel.json (schema v2, validated).          *)

let compare_jobs = ref 4

(* Row-oriented data-plane peaks (decimal MB, [Gc.top_heap_words]),
   measured before the columnar/interned rewrite with the same harness
   and the same pinned generation regimes: boxed [Value.t array] rows,
   eager constraint grounding, binding lists fully materialised. The
   memory gate requires the current plane to ground each regime in at
   most a third of its baseline. *)
let row_baseline_mb = [ ("1e5", 275.5); ("1e6", 2790.9) ]
let mem_gate_ratio = 3.0

(* Only the million-fact regime carries the 3x gate. [top_heap_words] is
   quantised by the runtime's heap-growth steps (~15% each), so a small
   regime whose live peak sits near a growth boundary can swing a full
   step (~12 MB at 10^5) on harness-shape noise alone; at 10^6 the gate
   margin is real. The 10^5 ratio is still measured and reported. *)
let mem_gated_regimes = [ "1e6" ]
let par_mem_regimes () = if !fast_mode then [ "1e5" ] else [ "1e5"; "1e6" ]

(* The memory measurement runs in a child process (hidden
   [par-mem-worker] argv mode): [Gc.top_heap_words] is a process-global
   high-water mark, so measuring in-process after other experiments
   have run would report their peak, not the grounding pipeline's. The
   worker prints one JSON object on stdout and exits. *)
let par_mem_worker regime =
  let mb words = float_of_int words *. 8. /. 1e6 in
  let alloc_mb (st : Gc.stat) =
    (st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words)
    *. 8. /. 1e6
  in
  Gc.compact ();
  let stage f =
    let before = alloc_mb (Gc.quick_stat ()) in
    let r, ms = Prelude.Timing.time f in
    let st = Gc.quick_stat () in
    (r, (mb st.Gc.top_heap_words, alloc_mb st -. before, ms))
  in
  let data, gen_s =
    stage (fun () -> Datagen.Wikidata.generate_regime regime)
  in
  let store, intern_s =
    stage (fun () -> Grounder.Atom_store.of_graph data.Datagen.Wikidata.graph)
  in
  (* Last use of [data]: the source graph must be collectable during
     grounding — once interned the pipeline no longer needs it, and the
     committed row-oriented baselines were measured the same way. *)
  let facts = Kg.Graph.size data.Datagen.Wikidata.graph in
  let rules = Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules () in
  let result, ground_s =
    stage (fun () -> Grounder.Ground.run ~lazy_constraints:true store rules)
  in
  let stage_json (top_heap_mb, allocated_mb, ms) =
    Obs.Json.Obj
      [
        ("top_heap_mb", Obs.Json.Num top_heap_mb);
        ("allocated_mb", Obs.Json.Num allocated_mb);
        ("ms", Obs.Json.Num ms);
      ]
  in
  let peak_mb = match ground_s with top, _, _ -> top in
  let doc =
    Obs.Json.Obj
      [
        ("regime", Obs.Json.Str regime);
        ("facts", Obs.Json.Num (float_of_int facts));
        ("atoms", Obs.Json.Num (float_of_int (Grounder.Atom_store.size store)));
        ( "instances",
          Obs.Json.Num
            (float_of_int
               (Array.length result.Grounder.Ground.instances.head)) );
        ("peak_mb", Obs.Json.Num peak_mb);
        ( "stages",
          Obs.Json.Obj
            [
              ("gen", stage_json gen_s);
              ("intern", stage_json intern_s);
              ("ground", stage_json ground_s);
            ] );
      ]
  in
  print_string (Obs.Json.to_string doc);
  print_newline ()

let par_measure_memory regime =
  let cmd =
    Printf.sprintf "%s par-mem-worker %s"
      (Filename.quote Sys.executable_name)
      (Filename.quote regime)
  in
  let ic = Unix.open_process_in cmd in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match Obs.Json.parse line with
      | Ok json -> json
      | Error e ->
          failwith
            (Printf.sprintf "par: memory worker output unparseable (%s)" e))
  | _ -> failwith (Printf.sprintf "par: memory worker failed for %s" regime)

let par_memory_section () =
  List.map
    (fun regime ->
      let json = par_measure_memory regime in
      let peak = Baseline.num "peak_mb" json in
      let baseline = List.assoc regime row_baseline_mb in
      let ratio = baseline /. peak in
      row
        "memory %-4s facts %8.0f peak %8.1f MB row-baseline %8.1f MB \
         ratio %.2fx\n"
        regime (Baseline.num "facts" json) peak baseline ratio;
      match json with
      | Obs.Json.Obj fields ->
          Obs.Json.Obj
            (fields
            @ [
                ("row_baseline_mb", Obs.Json.Num baseline);
                ("ratio", Obs.Json.Num ratio);
              ])
      | _ -> failwith "par: memory worker output is not an object")
    (par_mem_regimes ())

(* Grounding-only speedup on the pinned 10^5 regime: jobs=1 vs jobs=N
   over identical fresh stores, gated > 1.0x — but only on hardware
   that can parallelise at all. On a single core the jobs=N measurement
   is skipped entirely (it cannot win, only waste the time budget) and
   the skip reason is logged and recorded in the JSON. *)
let par_ground_speedup () =
  let reps = if !fast_mode then 2 else 3 in
  let regime = "1e5" in
  let cores = Prelude.Pool.recommended_jobs () in
  let jobs_hi = Prelude.Pool.jobs (Prelude.Pool.create ~jobs:!compare_jobs) in
  let data = Datagen.Wikidata.generate_regime regime in
  let rules = Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules () in
  (* Full structural fingerprint of a grounding result: the determinism
     contract is jobs=N == jobs=1, not merely "same counts". *)
  let fingerprint (r : Grounder.Ground.result) = (r.rounds, r.instances) in
  let measure jobs =
    let pool = Prelude.Pool.create ~jobs in
    let samples =
      List.init reps (fun _ ->
          let store =
            Grounder.Atom_store.of_graph data.Datagen.Wikidata.graph
          in
          Prelude.Timing.time (fun () ->
              Grounder.Ground.run ~pool ~lazy_constraints:true store rules))
    in
    let fp = fingerprint (fst (List.hd samples)) in
    List.iter
      (fun (r, _) ->
        if fingerprint r <> fp then
          failwith
            (Printf.sprintf "par: grounding drifts across reps at jobs=%d"
               jobs))
      samples;
    (fp, median (List.map snd samples))
  in
  let fp1, ms1 = measure 1 in
  row "ground %-4s jobs=1   median %10.2f ms\n" regime ms1;
  let base_fields =
    [
      ("regime", Obs.Json.Str regime);
      ( "facts",
        Obs.Json.Num (float_of_int (Kg.Graph.size data.Datagen.Wikidata.graph))
      );
      ("reps", Obs.Json.Num (float_of_int reps));
      ("cores", Obs.Json.Num (float_of_int cores));
      ("jobs_hi", Obs.Json.Num (float_of_int jobs_hi));
    ]
  in
  if cores < 2 || jobs_hi < 2 then begin
    let reason =
      Printf.sprintf
        "%d core(s) available: a jobs=%d grounding cannot beat jobs=1 here; \
         speedup gate skipped"
        cores jobs_hi
    in
    row "ground %-4s speedup gate SKIPPED: %s\n" regime reason;
    Obs.Json.Obj
      (base_fields
      @ [
          ("jobs_ms", Obs.Json.Obj [ ("1", Obs.Json.Num ms1) ]);
          ("skip_reason", Obs.Json.Str reason);
        ])
  end
  else begin
    let fp_hi, ms_hi = measure jobs_hi in
    if fp_hi <> fp1 then
      failwith
        (Printf.sprintf
           "par: grounding differs between jobs=1 and jobs=%d" jobs_hi);
    let speedup = ms1 /. ms_hi in
    row "ground %-4s jobs=%-3d median %10.2f ms speedup %.2fx\n" regime
      jobs_hi ms_hi speedup;
    Obs.Json.Obj
      (base_fields
      @ [
          ( "jobs_ms",
            Obs.Json.Obj
              [
                ("1", Obs.Json.Num ms1);
                (string_of_int jobs_hi, Obs.Json.Num ms_hi);
              ] );
          ("speedup", Obs.Json.Num speedup);
        ])
  end

let par_engine_runs () =
  let jobs_hi =
    let pool = Prelude.Pool.create ~jobs:!compare_jobs in
    Prelude.Pool.jobs pool
  in
  let reps = if !fast_mode then 3 else 5 in
  let datasets =
    if !fast_mode then [ wd_dataset 1_000 ]
    else [ wd_dataset 4_000; fb_dataset 400 ]
  in
  (* One measured run of an engine pipeline over a fresh store, without
     the resolve/interpret wrapper: the ground/encode/solve spans sit at
     the top level, and the MAP objective comes from the solver stats. *)
  let measure_mln pool graph rules =
    let options =
      { Mln.Map_inference.default_options with Mln.Map_inference.pool }
    in
    let out = Mln.Map_inference.run ~options graph rules in
    out.Mln.Map_inference.stats.Mln.Map_inference.objective
  in
  let measure_psl pool graph rules =
    let options = { Psl.Npsl.default_options with Psl.Npsl.pool } in
    let out = Psl.Npsl.run ~options graph rules in
    out.Psl.Npsl.stats.Psl.Npsl.admm.Psl.Admm.objective
  in
  let engines = [ ("mln", measure_mln); ("psl", measure_psl) ] in
  let stage_paths =
    [ ("ground", [ "ground" ]); ("encode", [ "encode" ]); ("solve", [ "solve" ]) ]
  in
  let runs =
    List.concat_map
      (fun (dataset, graph, rules) ->
        List.map
          (fun (engine_id, measure) ->
            (* Measure the pipeline at every job count; reps share one
               pool per job count. *)
            let per_jobs =
              List.map
                (fun jobs ->
                  let pool = Prelude.Pool.create ~jobs in
                  let samples =
                    List.init reps (fun _ ->
                        Obs.reset ();
                        Obs.set_enabled true;
                        let objective, total_ms =
                          Prelude.Timing.time (fun () ->
                              measure pool graph rules)
                        in
                        let r = Obs.Report.capture () in
                        Obs.set_enabled false;
                        (objective, total_ms, r))
                  in
                  let objective =
                    match samples with
                    | (o, _, _) :: rest ->
                        List.iter
                          (fun (o', _, _) ->
                            if o <> o' then
                              failwith
                                (Printf.sprintf
                                   "%s %s: objective drifts across reps \
                                    at jobs=%d (%.6f vs %.6f)"
                                   dataset engine_id
                                   (Prelude.Pool.jobs pool) o o'))
                          rest;
                        o
                    | [] -> assert false
                  in
                  let stage_medians =
                    List.filter_map
                      (fun (stage, path) ->
                        let ms =
                          List.filter_map
                            (fun (_, _, r) ->
                              Option.map
                                (fun (n : Obs.Report.node) ->
                                  n.Obs.Report.total_ms)
                                (Obs.Report.find r path))
                            samples
                        in
                        if ms = [] then None else Some (stage, median ms))
                      stage_paths
                  in
                  let total_median =
                    median (List.map (fun (_, ms, _) -> ms) samples)
                  in
                  ( Prelude.Pool.jobs pool,
                    objective,
                    ("total", total_median) :: stage_medians ))
                (List.sort_uniq compare [ 1; jobs_hi ])
            in
            let medians_of jobs =
              match
                List.find_opt (fun (j, _, _) -> j = jobs) per_jobs
              with
              | Some (_, _, medians) -> medians
              | None -> []
            in
            let speedups =
              let base = medians_of 1 in
              List.filter_map
                (fun (stage, hi_ms) ->
                  match List.assoc_opt stage base with
                  | Some base_ms when hi_ms > 0.0 ->
                      Some (stage, base_ms /. hi_ms)
                  | _ -> None)
                (medians_of jobs_hi)
            in
            List.iter
              (fun (jobs, _, medians) ->
                List.iter
                  (fun (stage, ms) ->
                    row "%-16s %-5s jobs=%-3d %-8s median %10.2f ms\n"
                      dataset engine_id jobs stage ms)
                  medians)
              per_jobs;
            List.iter
              (fun (stage, s) ->
                row "%-16s %-5s speedup  %-8s %.2fx\n" dataset engine_id
                  stage s)
              speedups;
            let objective =
              match per_jobs with (_, o, _) :: _ -> o | [] -> 0.0
            in
            Obs.Json.Obj
              [
                ("dataset", Obs.Json.Str dataset);
                ("engine", Obs.Json.Str engine_id);
                ("facts", Obs.Json.Num (float_of_int (Kg.Graph.size graph)));
                ("reps", Obs.Json.Num (float_of_int reps));
                ("objective", Obs.Json.Num objective);
                ( "jobs",
                  Obs.Json.Obj
                    (List.map
                       (fun (jobs, objective, medians) ->
                         ( string_of_int jobs,
                           Obs.Json.Obj
                             [
                               ("objective", Obs.Json.Num objective);
                               ( "stages",
                                 Obs.Json.Obj
                                   (List.map
                                      (fun (stage, ms) ->
                                        (stage, Obs.Json.Num ms))
                                      medians) );
                             ] ))
                       per_jobs) );
                ( "speedup",
                  Obs.Json.Obj
                    (List.map
                       (fun (stage, s) -> (stage, Obs.Json.Num s))
                       speedups) );
              ])
          engines)
      datasets
  in
  (jobs_hi, runs)

(* The par gates, on a committed or a fresh document: the million-fact
   memory ratio, a passing grounding speedup or a logged skip reason,
   and one MAP objective per run at every job count. A --smoke run
   measures only the 1e5 regime, so only a full document must carry the
   gated regimes. *)
let par_headline doc =
  let memory =
    match Obs.Json.member "memory" doc with
    | Some (Obs.Json.Arr (_ :: _ as ms)) -> ms
    | _ -> failwith "no memory section"
  in
  List.iter (require_stages [ "gen"; "intern"; "ground" ]) memory;
  List.iter
    (fun regime ->
      match
        List.find_opt
          (fun m -> Obs.Json.member "regime" m = Some (Obs.Json.Str regime))
          memory
      with
      | Some m ->
          let ratio = Baseline.num "ratio" m in
          if ratio < mem_gate_ratio then
            failwith
              (Printf.sprintf
                 "memory gate failed for regime %s: peak %.1f MB is only \
                  %.2fx below the row-oriented baseline (gate: %.1fx)"
                 regime (Baseline.num "peak_mb" m) ratio mem_gate_ratio)
      | None when Obs.Json.member "fast" doc = Some (Obs.Json.Bool true) -> ()
      | None -> failwith ("lacks the gated regime " ^ regime))
    mem_gated_regimes;
  (match Obs.Json.member "ground_speedup" doc with
  | None -> failwith "no ground_speedup section"
  | Some gs -> (
      match
        (Obs.Json.member "speedup" gs, Obs.Json.member "skip_reason" gs)
      with
      | Some (Obs.Json.Num s), _ when s > 1.0 -> ()
      | _, Some (Obs.Json.Str _) -> ()
      | Some (Obs.Json.Num s), _ ->
          failwith
            (Printf.sprintf
               "grounding speedup gate failed: jobs=%.0f is %.2fx jobs=1 \
                (gate: > 1.0x) on %.0f cores"
               (Baseline.num "jobs_hi" gs) s (Baseline.num "cores" gs))
      | _ ->
          failwith
            "ground_speedup has neither a passing speedup nor a skip_reason"));
  (* Determinism gate: the MAP objective must be identical at every job
     count. *)
  List.iter
    (fun run ->
      match Obs.Json.member "jobs" run with
      | Some (Obs.Json.Obj (_ :: _ as per_jobs)) -> (
          List.iter
            (fun (_, v) ->
              require_stages [ "ground"; "encode"; "solve"; "total" ] v)
            per_jobs;
          match
            List.sort_uniq compare
              (List.map (fun (_, v) -> Baseline.num "objective" v) per_jobs)
          with
          | [ _ ] -> ()
          | _ ->
              failwith
                (Printf.sprintf "%s %s: objectives differ across job counts"
                   (Baseline.str "dataset" run) (Baseline.str "engine" run)))
      | _ -> failwith "run without jobs")
    (Baseline.runs doc)

let par_bench () =
  section "PAR"
    "multicore: memory + grounding gates, per-stage medians -> \
     BENCH_parallel.json";
  run_baseline
    {
      name = "par";
      path = "BENCH_parallel.json";
      schema = "tecore-bench-parallel/2";
      fields = [ "facts"; "reps"; "objective" ];
      full = true;
      (* Only the memory peaks are compared: the footprint is near
         machine-independent, so a data-plane memory regression shows
         without paying for a fresh million-fact run. (The 10^5 peak
         gets no 3x gate: it sits within one heap-growth quantisation
         step of 3x, see [mem_gated_regimes].) *)
      tolerance = Baseline.memory;
      cells =
        (fun doc ->
          match Obs.Json.member "memory" doc with
          | Some (Obs.Json.Arr ms) ->
              List.map
                (fun m ->
                  ( "memory " ^ Baseline.str "regime" m ^ " peak_mb",
                    Baseline.num "peak_mb" m ))
                ms
          | _ -> []);
      headline = par_headline;
      measure =
        (fun () ->
          let memory = par_memory_section () in
          let ground_speedup = par_ground_speedup () in
          let jobs_hi, runs = par_engine_runs () in
          [
            ( "cores",
              Obs.Json.Num (float_of_int (Prelude.Pool.recommended_jobs ())) );
            ( "jobs_compared",
              Obs.Json.Arr
                (List.map
                   (fun j -> Obs.Json.Num (float_of_int j))
                   (List.sort_uniq compare [ 1; jobs_hi ])) );
            ("memory", Obs.Json.Arr memory);
            ("ground_speedup", ground_speedup);
            ("runs", Obs.Json.Arr runs);
          ]);
    }

(* ------------------------------------------------------------------ *)
(* INCR: incremental re-resolve latency vs from-scratch, per delta     *)
(* size, exported as BENCH_incremental.json (validated by re-parsing). *)

(* One measured cell: [engine] re-resolving after [delta_size]
   single-fact edits (each a retract of one playsFor stint plus an
   assert of a replacement at another team), incremental vs
   from-scratch, medians over repeated edit/resolve rounds. The
   incremental result is asserted equal to the fresh one on every round,
   so the bench doubles as an end-to-end differential check at sizes the
   unit tests do not reach. *)
let incr_measure () =
  let reps = if !fast_mode then 3 else 5 in
  let players = if !fast_mode then 120 else 400 in
  let rules = Datagen.Footballdb.constraints () in
  let engines = [ ("mln", mln_engine); ("psl", psl_engine) ] in
  let deltas = [ 1; 10; 100 ] in
  let signature (r : Tecore.Engine.result) =
    let res = r.Tecore.Engine.resolution in
    ( List.map fst res.Tecore.Conflict.removed,
      res.Tecore.Conflict.kept,
      List.length res.Tecore.Conflict.derived,
      r.Tecore.Engine.stats.Tecore.Engine.objective )
  in
  let runs =
    List.concat_map
      (fun (engine_id, engine) ->
        List.map
          (fun delta_size ->
            let d =
              Datagen.Footballdb.generate ~seed:17 ~players ~noise_ratio:0.5
                ()
            in
            let g = d.Datagen.Footballdb.graph in
            let st = Tecore.Engine.create_state () in
            (* Prime the state: first resolve records the grounding
               snapshot and fills the component solution caches. *)
            ignore
              (Tecore.Engine.resolve ~engine ~state:st ~mode:`Incremental g
                 rules);
            let round = ref 0 in
            let apply_edits () =
              incr round;
              let plays =
                Kg.Graph.by_predicate g (Kg.Term.iri "playsFor")
              in
              let plays = Array.of_list plays in
              let n = Array.length plays in
              let facts = ref [] in
              for i = 0 to delta_size - 1 do
                let idx = ((!round * 37) + (i * 61)) mod n in
                let id, q = plays.(idx) in
                if Kg.Graph.mem_id g id then begin
                  let _, donor = plays.((idx + 97) mod n) in
                  Kg.Graph.remove g id;
                  let q' =
                    { q with Kg.Quad.object_ = donor.Kg.Quad.object_ }
                  in
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
                    Tecore.Engine.resolve ~engine ~state:st
                      ~mode:`Incremental ~delta g rules)
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
            row
              "incr %-4s delta=%-4d fresh %9.2f ms  incremental %9.2f ms  \
               speedup %5.2fx\n"
              engine_id delta_size fresh_ms incr_ms
              (fresh_ms /. incr_ms);
            Obs.Json.Obj
              [
                ("engine", Obs.Json.Str engine_id);
                ("delta", Obs.Json.Num (float_of_int delta_size));
                ("fresh_ms", Obs.Json.Num fresh_ms);
                ("incremental_ms", Obs.Json.Num incr_ms);
                ("speedup", Obs.Json.Num (fresh_ms /. incr_ms));
                ( "cache",
                  Obs.Json.Obj
                    [
                      ( "entries",
                        Obs.Json.Num
                          (float_of_int cache.Tecore.Engine.solve_entries) );
                      ( "hits",
                        Obs.Json.Num
                          (float_of_int cache.Tecore.Engine.solve_hits) );
                      ( "misses",
                        Obs.Json.Num
                          (float_of_int cache.Tecore.Engine.solve_misses) );
                    ] );
              ])
          deltas)
      engines
  in
  [
    ("players", Obs.Json.Num (float_of_int players));
    ("reps", Obs.Json.Num (float_of_int reps));
    ("runs", Obs.Json.Arr runs);
  ]

let incr_bench () =
  section "INCR"
    "incremental sessions: delta re-resolve -> BENCH_incremental.json";
  run_baseline
    {
      name = "incr";
      path = "BENCH_incremental.json";
      schema = "tecore-bench-incremental/1";
      fields = [ "delta"; "fresh_ms"; "incremental_ms"; "speedup" ];
      full = false;
      tolerance = Baseline.timing;
      cells =
        (fun doc ->
          List.concat_map
            (fun run ->
              let key =
                Printf.sprintf "%s delta=%.0f " (Baseline.str "engine" run)
                  (Baseline.num "delta" run)
              in
              List.map
                (fun field -> (key ^ field, Baseline.num field run))
                [ "fresh_ms"; "incremental_ms" ])
            (Baseline.runs doc));
      (* The headline claim of the incremental engine: re-resolving
         after a single-fact edit beats a from-scratch resolve on
         wall-clock median. *)
      headline =
        (fun doc ->
          List.iter
            (fun engine ->
              let run =
                Baseline.run_where
                  [
                    ("engine", Obs.Json.Str engine); ("delta", Obs.Json.Num 1.0);
                  ]
                  doc
              in
              let speedup = Baseline.num "speedup" run in
              if speedup <= 1.0 then
                failwith
                  (Printf.sprintf
                     "delta=1 speedup for %s is %.2fx, not > 1" engine
                     speedup))
            [ "mln"; "psl" ]);
      measure = incr_measure;
    }

(* ------------------------------------------------------------------ *)
(* serve: request latency and throughput through the wire protocol at  *)
(* 1/8/64 concurrent sessions, warm vs cold, exported as               *)
(* BENCH_serve.json (validated by re-parsing).                         *)
(* ------------------------------------------------------------------ *)

(* One benchmark client: its own session, graph and edit stream over a
   real loopback socket. *)
let serve_client_request fd ic line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0;
  let resp = input_line ic in
  if String.length resp < 2 || String.sub resp 0 2 <> "ok" then
    failwith (Printf.sprintf "bench serve: request %S failed: %s" line resp)

(* Open a session over [req] and seed it with a graph big enough that
   from-scratch grounding dominates the cold resolve: 60 facts over 12
   players, with overlapping spells inside each player's career feeding
   the constraint. *)
let serve_seed req =
  req "open";
  req
    "constraint one_team: ex:playsFor(x, y)@t ^ \
     ex:playsFor(x, z)@t2 ^ y != z => disjoint(t, t2) .";
  for f = 1 to 60 do
    req
      (Printf.sprintf
         "assert ex:P%d ex:playsFor ex:T%d [%d,%d] 0.8 ."
         (f mod 12) (f mod 6) (1900 + (3 * (f / 12)))
         (1904 + (3 * (f / 12))))
  done

let serve_measure ?(lanes = 1) () =
  let reps = if !fast_mode then 4 else 12 in
  let session_counts = if !fast_mode then [ 1; 8 ] else [ 1; 8; 64 ] in
  let cells =
    List.map
      (fun sessions ->
        let config =
          { Serve.default_config with Serve.queue_cap = 4 * sessions; lanes }
        in
        let server = Serve.start ~config (`Tcp 0) in
        Fun.protect
          ~finally:(fun () -> Serve.stop server)
          (fun () ->
            let cold = Array.make sessions 0.0 in
            let warm = Array.make sessions [] in
            let client i () =
              let fd = Serve.connect server in
              let ic = Unix.in_channel_of_descr fd in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () ->
                  let req = serve_client_request fd ic in
                  req (Printf.sprintf "hello bench-%d-%d" sessions i);
                  serve_seed req;
                  (* Cold: the first resolve grounds from scratch. *)
                  let t0 = Unix.gettimeofday () in
                  req "resolve";
                  cold.(i) <- (Unix.gettimeofday () -. t0) *. 1000.;
                  (* Warm: repeated 1-fact edits ride the caches. *)
                  for r = 1 to reps do
                    req
                      (Printf.sprintf
                         "assert ex:P99 ex:playsFor ex:T0 [%d,%d] 0.6 ."
                         (2000 + (2 * r))
                         (2001 + (2 * r)));
                    let t0 = Unix.gettimeofday () in
                    req "resolve";
                    warm.(i) <-
                      ((Unix.gettimeofday () -. t0) *. 1000.) :: warm.(i)
                  done)
            in
            let wall0 = Unix.gettimeofday () in
            let threads =
              List.init sessions (fun i -> Thread.create (client i) ())
            in
            List.iter Thread.join threads;
            let wall_s = Unix.gettimeofday () -. wall0 in
            if Serve.shed_count server <> 0 then
              failwith "bench serve: admission control shed under benchmark";
            let warm_all = List.concat (Array.to_list warm) in
            let resolves = sessions * (reps + 1) in
            let requests = float_of_int (Serve.requests_total server) in
            ( sessions,
              median (Array.to_list cold),
              median warm_all,
              percentile 0.95 warm_all,
              float_of_int resolves /. wall_s,
              requests /. wall_s )))
      session_counts
  in
  (reps, cells)

(* Tracing sanity gate: with every-request sampling on, each traced
   request's phase durations must sum to at most its wall time (phases
   are disjoint sub-intervals of the request; 5% + 1 ms covers timer
   quantisation), and the slowest resolve must attribute a meaningful
   share of its wall time to named phases — a regression here means the
   phase brackets fell off the hot path. *)
let serve_trace_gate () =
  let config = { Serve.default_config with Serve.trace_every = 1 } in
  let server = Serve.start ~config (`Tcp 0) in
  let records =
    Fun.protect
      ~finally:(fun () -> Serve.stop server)
      (fun () ->
        let fd = Serve.connect server in
        let ic = Unix.in_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let req = serve_client_request fd ic in
            req "hello trace-gate";
            req "open";
            req
              "constraint one_team: ex:playsFor(x, y)@t ^ \
               ex:playsFor(x, z)@t2 ^ y != z => disjoint(t, t2) .";
            for f = 1 to 30 do
              req
                (Printf.sprintf
                   "assert ex:P%d ex:playsFor ex:T%d [%d,%d] 0.8 ."
                   (f mod 6) (f mod 3)
                   (1900 + (3 * (f / 6)))
                   (1904 + (3 * (f / 6))))
            done;
            req "resolve";
            req "assert ex:P99 ex:playsFor ex:T0 [2000,2001] 0.6 .";
            req "resolve");
        (* Stop joins the connection thread, so every record — including
           the final resolve's, emitted after its reply — is in the
           ring before we read it. *)
        Serve.stop server;
        Serve.recent_records server)
  in
  if List.length records < 10 then
    failwith
      (Printf.sprintf "serve trace gate: only %d traced requests recorded"
         (List.length records));
  let phase_sum (r : Serve.Access_log.record) =
    List.fold_left (fun acc (_, ms) -> acc +. ms) 0. r.phases
  in
  List.iter
    (fun (r : Serve.Access_log.record) ->
      let sum = phase_sum r in
      if sum > (r.wall_ms *. 1.05) +. 1.0 then
        failwith
          (Printf.sprintf
             "serve trace gate: req %d (%s): phases sum to %.3f ms, \
              exceeding the %.3f ms wall time"
             r.req r.verb sum r.wall_ms))
    records;
  let slowest_resolve =
    List.fold_left
      (fun acc (r : Serve.Access_log.record) ->
        if r.verb <> "resolve" then acc
        else
          match acc with
          | Some (b : Serve.Access_log.record) when b.wall_ms >= r.wall_ms ->
              acc
          | _ -> Some r)
      None records
  in
  (match slowest_resolve with
  | None -> failwith "serve trace gate: no traced resolve"
  | Some r ->
      (* The cold resolve is dominated by ground + solve; well under
         half attributed means the brackets are broken. The floor is
         deliberately loose: wall time also absorbs scheduler noise on
         a loaded host. *)
      if phase_sum r < 0.25 *. r.wall_ms then
        failwith
          (Printf.sprintf
             "serve trace gate: resolve req %d attributes only %.3f of \
              %.3f ms to phases"
             r.req (phase_sum r) r.wall_ms));
  row "serve trace gate: %d traced requests, phase sums within wall time\n"
    (List.length records)

(* The lanes dimension: multi-lane throughput must reach this share of
   single-lane, on hardware where lanes can overlap at all. *)
let serve_lanes_floor = 0.75

let serve_measure_all () =
  serve_trace_gate ();
  let reps, cells = serve_measure () in
  let run_json lanes
      (sessions, cold_ms, warm_ms, warm_p95_ms, resolve_rps, req_rps) =
    row
      "serve %2d sessions  lanes %d  cold %8.2f ms  warm %8.2f ms  p95 \
       %8.2f ms  %7.1f resolve/s  %8.1f req/s\n"
      sessions lanes cold_ms warm_ms warm_p95_ms resolve_rps req_rps;
    Obs.Json.Obj
      [
        ("sessions", Obs.Json.Num (float_of_int sessions));
        ("lanes", Obs.Json.Num (float_of_int lanes));
        ("cold_ms", Obs.Json.Num cold_ms);
        ("warm_ms", Obs.Json.Num warm_ms);
        ("warm_p95_ms", Obs.Json.Num warm_p95_ms);
        ("resolves_per_s", Obs.Json.Num resolve_rps);
        ("requests_per_s", Obs.Json.Num req_rps);
      ]
  in
  let runs = List.map (run_json 1) cells in
  (* On a single core the multi-lane measurement is skipped entirely
     (per the `bench par` pattern) and the reason is recorded in the
     JSON instead of a gate result. *)
  let lanes_hi = 4 in
  let cores = Prelude.Pool.recommended_jobs () in
  let lanes_gate, lane_runs =
    if cores < 2 then begin
      let reason =
        Printf.sprintf
          "%d core(s) available: resolver lanes cannot overlap here; \
           lanes>1 throughput gate skipped"
          cores
      in
      row "serve lanes=%d gate SKIPPED: %s\n" lanes_hi reason;
      ( Obs.Json.Obj
          [
            ("lanes", Obs.Json.Num (float_of_int lanes_hi));
            ("skip_reason", Obs.Json.Str reason);
          ],
        [] )
    end
    else begin
      let _, mcells = serve_measure ~lanes:lanes_hi () in
      let lane_runs = List.map (run_json lanes_hi) mcells in
      let rps (_, _, _, _, resolve_rps, _) = resolve_rps in
      let sessions_of (s, _, _, _, _, _) = s in
      let base = List.nth cells (List.length cells - 1) in
      let multi = List.nth mcells (List.length mcells - 1) in
      let ratio = rps multi /. rps base in
      row
        "serve lanes: %d sessions, lanes=%d %.1f resolve/s vs lanes=1 %.1f \
         resolve/s (%.2fx)\n"
        (sessions_of multi) lanes_hi (rps multi) (rps base) ratio;
      ( Obs.Json.Obj
          [
            ("lanes", Obs.Json.Num (float_of_int lanes_hi));
            ("sessions", Obs.Json.Num (float_of_int (sessions_of multi)));
            ("baseline_resolves_per_s", Obs.Json.Num (rps base));
            ("multi_resolves_per_s", Obs.Json.Num (rps multi));
            ("ratio", Obs.Json.Num ratio);
            ("floor", Obs.Json.Num serve_lanes_floor);
          ],
        lane_runs )
    end
  in
  [
    ("reps", Obs.Json.Num (float_of_int reps));
    ("lanes_gate", lanes_gate);
    ("runs", Obs.Json.Arr (runs @ lane_runs));
  ]

let serve_bench () =
  section "SERVE" "serve: wire latency and throughput -> BENCH_serve.json";
  run_baseline
    {
      name = "serve";
      path = "BENCH_serve.json";
      schema = "tecore-bench-serve/2";
      fields =
        [
          "sessions"; "lanes"; "cold_ms"; "warm_ms"; "warm_p95_ms";
          "resolves_per_s"; "requests_per_s";
        ];
      full = false;
      tolerance = Baseline.timing;
      (* The single-lane cells are the latency baseline; multi-lane rows
         are covered by the lanes gate instead. *)
      cells =
        (fun doc ->
          List.concat_map
            (fun run ->
              if Obs.Json.member "lanes" run <> Some (Obs.Json.Num 1.0) then []
              else
                let key =
                  Printf.sprintf "sessions=%.0f " (Baseline.num "sessions" run)
                in
                List.map
                  (fun field -> (key ^ field, Baseline.num field run))
                  [ "cold_ms"; "warm_ms"; "warm_p95_ms" ])
            (Baseline.runs doc));
      (* At one session, warm resolves through the server must beat the
         cold (from-scratch) resolve on median; with >= 2 cores, lanes
         must keep their throughput floor. *)
      headline =
        (fun doc ->
          let run =
            Baseline.run_where
              [ ("sessions", Obs.Json.Num 1.0); ("lanes", Obs.Json.Num 1.0) ]
              doc
          in
          let warm = Baseline.num "warm_ms" run
          and cold = Baseline.num "cold_ms" run in
          if warm >= cold then
            failwith
              (Printf.sprintf
                 "warm resolve (%.2f ms) did not beat cold (%.2f ms) at 1 \
                  session"
                 warm cold);
          match Obs.Json.member "lanes_gate" doc with
          | None -> failwith "no lanes_gate"
          | Some gate -> (
              match Obs.Json.member "skip_reason" gate with
              | Some (Obs.Json.Str _) -> ()
              | _ ->
                  let ratio = Baseline.num "ratio" gate in
                  if ratio < serve_lanes_floor then
                    failwith
                      (Printf.sprintf
                         "lanes=%.0f throughput is %.2fx of lanes=1 at %.0f \
                          sessions (floor %.2fx)"
                         (Baseline.num "lanes" gate) ratio
                         (Baseline.num "sessions" gate) serve_lanes_floor)));
      measure = serve_measure_all;
    }

(* ------------------------------------------------------------------ *)
(* durability: write-ahead journal overhead on the warm edit path at   *)
(* each fsync policy vs a purely in-memory session, exported as        *)
(* BENCH_durability.json (validated by re-parsing).                    *)
(* ------------------------------------------------------------------ *)

let rec durability_rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun entry -> durability_rm_rf (Filename.concat path entry))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let durability_configs =
  [
    ("none", None);
    ("fsync-never", Some Serve.Journal.Never);
    ("fsync-always", Some Serve.Journal.Always);
  ]

let durability_measure () =
  let edit_reps = if !fast_mode then 60 else 240 in
  let resolve_reps = if !fast_mode then 3 else 8 in
  let cells =
    List.map
      (fun (name, policy) ->
        let state_dir =
          match policy with
          | None -> None
          | Some _ ->
              Some
                (Filename.concat
                   (Filename.get_temp_dir_name ())
                   (Printf.sprintf "tecore_bench_dur_%d_%s" (Unix.getpid ())
                      name))
        in
        Option.iter durability_rm_rf state_dir;
        let config =
          {
            Serve.default_config with
            Serve.state_dir;
            fsync =
              (match policy with
              | Some p -> p
              | None -> Serve.default_config.Serve.fsync);
          }
        in
        let server = Serve.start ~config (`Tcp 0) in
        Fun.protect
          ~finally:(fun () ->
            Serve.stop server;
            Option.iter durability_rm_rf state_dir)
          (fun () ->
            let fd = Serve.connect server in
            let ic = Unix.in_channel_of_descr fd in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let req = serve_client_request fd ic in
                req (Printf.sprintf "hello bench-dur-%s" name);
                serve_seed req;
                (* Warm the engine so the timed resolves below ride the
                   incremental caches, as a long-lived session would. *)
                req "resolve";
                (* The edit path: the journal append (and fsync, per
                   policy) sits between parsing an assert and acking
                   it, so the ack round-trip is exactly what
                   durability taxes. *)
                let edits = ref [] in
                for r = 1 to edit_reps do
                  let line =
                    Printf.sprintf
                      "assert ex:P99 ex:playsFor ex:T0 [%d,%d] 0.6 ."
                      (2000 + (2 * r))
                      (2001 + (2 * r))
                  in
                  let t0 = Unix.gettimeofday () in
                  req line;
                  edits := ((Unix.gettimeofday () -. t0) *. 1000.) :: !edits
                done;
                let resolves = ref [] in
                for r = 1 to resolve_reps do
                  req
                    (Printf.sprintf
                       "assert ex:P98 ex:playsFor ex:T1 [%d,%d] 0.6 ."
                       (3000 + (2 * r))
                       (3001 + (2 * r)));
                  let t0 = Unix.gettimeofday () in
                  req "resolve";
                  resolves :=
                    ((Unix.gettimeofday () -. t0) *. 1000.) :: !resolves
                done;
                (name, median !edits, percentile 0.95 !edits,
                 median !resolves))))
      durability_configs
  in
  (edit_reps, cells)

(* The headline durability claim: journaling without fsync stays within
   a small factor of the in-memory edit ack — the append itself is one
   buffered write, so the cost of crash safety lives in the fsync
   policy, not the journal. *)
let durability_headline doc =
  let edit config =
    Baseline.num "edit_ms"
      (Baseline.run_where [ ("config", Obs.Json.Str config) ] doc)
  in
  let factor = 3.0 and floor_ms = 0.2 in
  let none = edit "none" and never = edit "fsync-never" in
  if never > (none *. factor) +. floor_ms then
    failwith
      (Printf.sprintf
         "fsync-never edit median %.3f ms exceeds %.1fx the in-memory \
          median %.3f ms (+%.2f ms floor)"
         never factor none floor_ms)

let durability_fields = [ "edit_ms"; "edit_p95_ms"; "resolve_ms" ]

let durability_bench () =
  section "DURABILITY"
    "durability: journal overhead on the warm edit path -> \
     BENCH_durability.json";
  run_baseline
    {
      name = "durability";
      path = "BENCH_durability.json";
      schema = "tecore-bench-durability/1";
      fields = durability_fields;
      full = false;
      tolerance = Baseline.timing;
      cells =
        (fun doc ->
          List.concat_map
            (fun run ->
              let key = "config=" ^ Baseline.str "config" run ^ " " in
              List.map
                (fun field -> (key ^ field, Baseline.num field run))
                durability_fields)
            (Baseline.runs doc));
      headline = durability_headline;
      measure =
        (fun () ->
          let edit_reps, cells = durability_measure () in
          let runs =
            List.map
              (fun (name, edit_ms, edit_p95_ms, resolve_ms) ->
                row
                  "durability %-12s  edit %7.3f ms  p95 %7.3f ms  warm \
                   resolve %8.2f ms\n"
                  name edit_ms edit_p95_ms resolve_ms;
                Obs.Json.Obj
                  [
                    ("config", Obs.Json.Str name);
                    ("edit_ms", Obs.Json.Num edit_ms);
                    ("edit_p95_ms", Obs.Json.Num edit_p95_ms);
                    ("resolve_ms", Obs.Json.Num resolve_ms);
                  ])
              cells
          in
          [
            ("edit_reps", Obs.Json.Num (float_of_int edit_reps));
            ("runs", Obs.Json.Arr runs);
          ]);
    }

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("a1", a1); ("a2", a2); ("a3", a3); ("a4", a4);
    ("a5", a5); ("a6", a6); ("a7", a7);
    ("obs", obs_bench); ("par", par_bench);
    ("incr", incr_bench); ("serve", serve_bench);
    ("durability", durability_bench);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "par-mem-worker"; regime ] ->
      (* Hidden child-process mode: [par_measure_memory] re-executes this
         binary so [Gc.top_heap_words] starts from a clean heap. *)
      par_mem_worker regime
  | args ->
  let rec parse names = function
    | [] -> List.rev names
    | "--smoke" :: rest ->
        fast_mode := true;
        parse names rest
    | "--check" :: rest ->
        check := true;
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
    match parse [] args with
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
