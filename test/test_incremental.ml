(* Differential oracle for incremental resolution.

   The contract under test: a resolve with [~mode:`Incremental] — cached
   grounding snapshot, delta replay, memoised component solutions and all
   — is observationally identical to a from-scratch [`Fresh] resolve of
   the same graph and rules. Random edit scripts drive one long-lived
   session through asserts, retracts and rule toggles; after every
   resolve the incremental result is compared field by field against the
   stateless oracle, for every engine backend and at two job counts. *)

module Engine = Tecore.Engine
module Session = Tecore.Session
module Conflict = Tecore.Conflict

(* This suite owns the fault registry: the differential property is a
   fault-free identity (the fault interaction has its own test below,
   which configures exactly the fault it wants). Without this, the CI
   sweep that re-runs the whole suite under TECORE_FAULTS would inject
   different fault sites into the incremental and fresh pipelines —
   which legitimately diverge then, as only one of them is degraded. *)
let () = Prelude.Deadline.Faults.clear ()

let base_rules_src =
  {|
constraint fb_one_team:
  playsFor(x, y)@t ^ playsFor(x, z)@t2 ^ y != z => disjoint(t, t2) .
constraint fb_one_birth:
  birthDate(x, y)@t ^ birthDate(x, z)@t2 ^ intersects(t, t2) => y = z .
|}

let extra_rule_src =
  "rule t_worksfor 1.5: playsFor(x, y)@t => worksFor(x, y)@t ."

(* ------------------------------------------------------------------ *)
(* Edit scripts                                                        *)
(* ------------------------------------------------------------------ *)

type op =
  | Assert_ of int * int * int  (* base fact, object donor, year shift *)
  | Retract of int
  | Toggle_rule
  | Resolve

let pp_op = function
  | Assert_ (a, b, c) -> Printf.sprintf "assert(%d,%d,%d)" a b c
  | Retract i -> Printf.sprintf "retract(%d)" i
  | Toggle_rule -> "toggle_rule"
  | Resolve -> "resolve"

let script_gen =
  QCheck.Gen.(
    let op =
      frequency
        [
          (3, map3 (fun a b c -> Assert_ (a, b, c)) nat nat nat);
          (3, map (fun i -> Retract i) nat);
          (1, return Toggle_rule);
          (3, return Resolve);
        ]
    in
    list_size (int_range 4 10) op >|= fun ops -> ops @ [ Resolve ])

let script_arb =
  QCheck.make script_gen ~print:(fun ops ->
      String.concat "; " (List.map pp_op ops))

let live_facts g =
  let acc = ref [] in
  Kg.Graph.iter (fun id q -> acc := (id, q) :: !acc) g;
  List.rev !acc

let apply session op =
  match op with
  | Resolve -> ()
  | Toggle_rule ->
      if
        List.exists
          (fun (r : Logic.Rule.t) -> r.Logic.Rule.name = "t_worksfor")
          (Session.rules session)
      then ignore (Session.remove_rule session "t_worksfor")
      else (
        match Session.add_rules session extra_rule_src with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "add_rules: %s" e)
  | Retract i -> (
      match Session.graph session with
      | None -> ()
      | Some g -> (
          match live_facts g with
          | [] -> ()
          | facts -> (
              let _, q = List.nth facts (i mod List.length facts) in
              match Session.retract session q with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "retract of a live fact: %s"
                    (Session.error_message e))))
  | Assert_ (i, j, k) -> (
      match Session.graph session with
      | None -> ()
      | Some g -> (
          match Kg.Graph.by_predicate g (Kg.Term.iri "playsFor") with
          | [] -> ()
          | plays -> (
              let _, q = List.nth plays (i mod List.length plays) in
              let _, donor = List.nth plays (j mod List.length plays) in
              let lo = 1960 + (k mod 50) in
              let q' =
                {
                  q with
                  Kg.Quad.object_ = donor.Kg.Quad.object_;
                  time = Kg.Interval.make lo (lo + 2);
                  confidence = 0.55;
                }
              in
              match Session.assert_fact session q' with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "assert: %s" (Session.error_message e))))

(* ------------------------------------------------------------------ *)
(* Result signatures                                                   *)
(* ------------------------------------------------------------------ *)

let ground_str a = Format.asprintf "%a" Logic.Atom.Ground.pp a

let signature (r : Engine.result) =
  let res = r.Engine.resolution in
  ( List.map
      (fun (id, q) -> (id, Kg.Quad.to_string q))
      res.Conflict.removed,
    res.Conflict.kept,
    List.sort compare
      (List.map
         (fun (d : Conflict.derived_fact) ->
           (ground_str d.Conflict.atom, d.Conflict.confidence))
         res.Conflict.derived),
    res.Conflict.conflicting,
    r.Engine.stats.Engine.objective,
    r.Engine.stats.Engine.hard_violations,
    r.Engine.stats.Engine.engine_used,
    r.Engine.stats.Engine.status )

let new_session d =
  let session = Session.create () in
  Session.load_graph session d.Datagen.Footballdb.graph;
  (match Session.add_rules session base_rules_src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "base rules: %s" e);
  session

let check_resolve ~engine ~jobs session =
  match Session.resolve ~engine ~jobs ~mode:`Incremental session with
  | Error e ->
      Alcotest.failf "incremental resolve: %s" (Session.error_message e)
  | Ok r_inc ->
      let g = Option.get (Session.graph session) in
      let r_fresh = Engine.resolve ~engine ~jobs g (Session.rules session) in
      signature r_inc = signature r_fresh

let run_script ~engine ~jobs seed ops =
  let d =
    Datagen.Footballdb.generate
      ~seed:(1 + (seed mod 50))
      ~players:7 ~noise_ratio:0.4 ()
  in
  let session = new_session d in
  List.for_all
    (fun op ->
      apply session op;
      match op with
      | Resolve -> check_resolve ~engine ~jobs session
      | _ -> true)
    ops

(* The full backend matrix. Instance sizes stay tiny (7 players) so the
   exact backends finish their search. *)
let engines =
  let mln = Mln.Map_inference.default_options in
  [
    ("mln-walk-cpi", Engine.Mln mln, 6);
    ( "mln-walk",
      Engine.Mln { mln with Mln.Map_inference.use_cpi = false },
      6 );
    ( "mln-ilp",
      Engine.Mln
        {
          mln with
          Mln.Map_inference.solver = Mln.Map_inference.Ilp_exact;
          use_cpi = false;
        },
      3 );
    ( "mln-bb",
      Engine.Mln
        {
          mln with
          Mln.Map_inference.solver = Mln.Map_inference.Exact_bb;
          use_cpi = false;
        },
      3 );
    ("psl", Engine.Psl Psl.Npsl.default_options, 6);
  ]

let differential_tests =
  List.concat_map
    (fun (name, engine, count) ->
      List.map
        (fun jobs ->
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count
               ~name:
                 (Printf.sprintf "incremental = fresh (%s, jobs=%d)" name
                    jobs)
               (QCheck.pair QCheck.small_nat script_arb)
               (fun (seed, ops) -> run_script ~engine ~jobs seed ops)))
        [ 1; 4 ])
    engines

(* ------------------------------------------------------------------ *)
(* Grounding replay is byte-identical                                  *)
(* ------------------------------------------------------------------ *)

let store_dump store =
  let acc = ref [] in
  Grounder.Atom_store.iter
    (fun id atom origin ->
      let origin_str =
        match origin with
        | Grounder.Atom_store.Evidence { confidence; fact } ->
            Printf.sprintf "evidence(%.3f,%d)" confidence fact
        | Grounder.Atom_store.Hidden -> "hidden"
      in
      acc := (id, ground_str atom, origin_str) :: !acc)
    store;
  List.rev !acc

let instances_dump store (result : Grounder.Ground.result) =
  List.map
    (Format.asprintf "%a" (Instance_view.pp store))
    (Instance_view.of_result result)

(* ------------------------------------------------------------------ *)
(* One pipeline: a state changes the bookkeeping, not the stages       *)
(* ------------------------------------------------------------------ *)

(* Every span path of a report with its counters, depth first; the
   [incr.*] counters are the state's own bookkeeping. *)
let span_tree (report : Obs.Report.t) =
  let rec walk prefix (n : Obs.Report.node) =
    let path = prefix ^ "/" ^ n.Obs.Report.name in
    ( path,
      List.filter
        (fun (k, _) -> not (String.starts_with ~prefix:"incr." k))
        n.Obs.Report.counters )
    :: List.concat_map (walk path) n.Obs.Report.children
  in
  List.concat_map (walk "") report.Obs.Report.spans

let observed f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let r = f () in
      (r, span_tree (Obs.Report.capture ())))

let raw_dump (r : Engine.result) =
  let raw = r.Engine.raw in
  ( store_dump raw.Engine.store,
    List.map
      (Format.asprintf "%a" (Instance_view.pp raw.Engine.store))
      (Instance_view.of_instances raw.Engine.instances),
    raw.Engine.assignment )

let test_one_span_tree engine () =
  let d = Datagen.Footballdb.generate ~seed:5 ~players:7 ~noise_ratio:0.4 () in
  let session = new_session d in
  (match Session.add_rules session extra_rule_src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_rules: %s" e);
  let g = Option.get (Session.graph session) in
  let rules = Session.rules session in
  let plain, plain_tree =
    observed (fun () -> Engine.resolve ~engine ~jobs:1 g rules)
  in
  let stateful, stateful_tree =
    observed (fun () ->
        Engine.resolve ~engine ~jobs:1 ~state:(Engine.create_state ())
          ~mode:`Fresh g rules)
  in
  Alcotest.(check (list string))
    "same span paths" (List.map fst plain_tree) (List.map fst stateful_tree);
  List.iter2
    (fun (path, a) (_, b) ->
      Alcotest.(check (list (pair string (float 0.))))
        (path ^ " counters") a b)
    plain_tree stateful_tree;
  Alcotest.(check bool) "same resolution and objective" true
    (signature plain = signature stateful);
  Alcotest.(check bool) "same raw" true (raw_dump plain = raw_dump stateful)

let span_tree_tests =
  List.map
    (fun (name, engine, _) ->
      Alcotest.test_case
        (Printf.sprintf "stateless and stateful share one span tree (%s)" name)
        `Quick (test_one_span_tree engine))
    engines

let test_reground_identical () =
  let d =
    Datagen.Footballdb.generate ~seed:5 ~players:12 ~noise_ratio:0.5 ()
  in
  let g = d.Datagen.Footballdb.graph in
  let rules =
    Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ()
  in
  let store0 = Grounder.Atom_store.of_graph g in
  let _, snapshot = Grounder.Ground.run_record store0 rules in
  (* Retract one playsFor fact... *)
  let id, _ =
    List.hd (Kg.Graph.by_predicate g (Kg.Term.iri "playsFor"))
  in
  Kg.Graph.remove g id;
  (* ...then replay against the edited graph... *)
  let store_inc = Grounder.Atom_store.of_graph g in
  let affected =
    Grounder.Ground.affected_rules ~delta:[ "playsFor" ] rules
  in
  let result_inc =
    match Grounder.Ground.reground ~snapshot ~affected store_inc rules with
    | Some (r, _) -> r
    | None -> Alcotest.fail "reground refused a same-rules replay"
  in
  (* ...and compare against a fresh grounding (constraints pushed into
     the joins, as recording and replay always do), atom by atom. *)
  let store_fresh = Grounder.Atom_store.of_graph g in
  let result_fresh =
    Grounder.Ground.run ~lazy_constraints:true store_fresh rules
  in
  Alcotest.(check (list (triple int string string)))
    "stores identical" (store_dump store_fresh) (store_dump store_inc);
  Alcotest.(check (list string))
    "instances identical"
    (instances_dump store_fresh result_fresh)
    (instances_dump store_inc result_inc);
  (* Identical stores and instances compile to identical networks, so
     the marginal solvers (Gibbs, MC-SAT) see the same problem too. *)
  let network_of store result =
    Mln.Network.build store result.Grounder.Ground.instances
  in
  let n1 = network_of store_fresh result_fresh in
  let n2 = network_of store_inc result_inc in
  Alcotest.(check int)
    "network atoms" n1.Mln.Network.num_atoms n2.Mln.Network.num_atoms;
  Alcotest.(check bool) "network clauses" true (n1 = n2);
  let marginals n =
    (Mln.Gibbs.run ~seed:3 ~burn_in:100 ~samples:2_000 n).Mln.Gibbs.marginals
  in
  Alcotest.(check bool)
    "gibbs marginals identical" true
    (marginals n1 = marginals n2)

(* A snapshot replays only the rules it was recorded under: same-named
   rules with another body or weight must be refused, not replayed from
   stale instances. *)
let test_reground_refuses_mismatch () =
  let d = Datagen.Footballdb.generate ~seed:5 ~players:12 ~noise_ratio:0.5 () in
  let g = d.Datagen.Footballdb.graph in
  let rules = Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules () in
  let _, snapshot =
    Grounder.Ground.run_record (Grounder.Atom_store.of_graph g) rules
  in
  let reground rules =
    Grounder.Ground.reground ~snapshot
      ~affected:(Grounder.Ground.affected_rules ~delta:[] rules)
      (Grounder.Atom_store.of_graph g) rules
  in
  Alcotest.(check bool) "same rules replay" true
    (Option.is_some (reground rules));
  (* Edit every soft rule in place; the names stay. *)
  let edit f =
    let edited =
      List.map
        (fun (r : Logic.Rule.t) ->
          if r.Logic.Rule.weight <> None then f r else r)
        rules
    in
    Alcotest.(check bool) "the edit changes a rule" false (edited = rules);
    edited
  in
  let reweighted = edit (fun r -> { r with Logic.Rule.weight = Some 0.25 }) in
  Alcotest.(check bool) "changed weight, same name: refused" true
    (reground reweighted = None);
  let rebodied =
    edit (fun r ->
        { r with Logic.Rule.conditions = []; body = [ List.hd r.Logic.Rule.body ] })
  in
  Alcotest.(check bool) "changed body, same name: refused" true
    (reground rebodied = None)

(* ------------------------------------------------------------------ *)
(* Head symbols and later asserts share one table                      *)
(* ------------------------------------------------------------------ *)

(* The head constant [Athlete] occurs in no fact, so the first resolve
   interns it into the session graph's symbol table; an assert then
   interns a new term behind it. The assert touches only [birthDate],
   so the replay copies the athlete rule's recorded candidates and
   instances into the new store by their codes — which must still name
   the same symbols there. The replayed resolve must equal a fresh one
   on the same graph, atom for atom, and one on a rebuilt graph whose
   table numbers the symbols afresh. *)
let athlete_rule_src =
  "rule t_athlete 1.2: playsFor(x, y)@t => occupation(x, Athlete)@t ."

let test_head_constant_then_assert engine () =
  let d = Datagen.Footballdb.generate ~seed:13 ~players:10 ~noise_ratio:0.4 () in
  let session = new_session d in
  (match Session.add_rules session athlete_rule_src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_rules: %s" e);
  let g = Option.get (Session.graph session) in
  let code t = Kg.Graph.find_term (Kg.Graph.symbols g) (Kg.Term.iri t) in
  Alcotest.(check bool) "no fact names the head constant" true
    (code "Athlete" = None);
  let resolve () =
    match Session.resolve ~engine ~mode:`Incremental session with
    | Ok r -> r
    | Error e -> Alcotest.failf "resolve: %s" (Session.error_message e)
  in
  ignore (resolve ());
  let athlete = Option.get (code "Athlete") in
  (match
     Session.assert_fact session
       (Kg.Quad.v "NewPlayer" "birthDate" (Kg.Term.int 1970) (1970, 2017) 0.7)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "assert: %s" (Session.error_message e));
  Alcotest.(check bool) "the new term comes after it" true
    (Option.get (code "NewPlayer") > athlete);
  let rules = Session.rules session in
  Alcotest.(check bool) "the athlete rule is replayed" false
    (Grounder.Ground.affected_rules ~delta:[ "birthDate" ] rules
       (List.find (fun (r : Logic.Rule.t) -> r.name = "t_athlete") rules));
  let r_inc = resolve () in
  Alcotest.(check string) "the assert replays" "replay"
    (Engine.outcome_name (Option.get (Session.cache_outcome session)));
  Alcotest.(check bool) "athletes are derived" true
    (List.exists
       (fun (f : Conflict.derived_fact) ->
         f.Conflict.atom.Logic.Atom.Ground.predicate = "occupation")
       r_inc.Engine.resolution.Conflict.derived);
  let r_fresh = Engine.resolve ~engine g rules in
  Alcotest.(check bool) "= fresh on the same graph" true
    (signature r_inc = signature r_fresh);
  Alcotest.(check bool) "same raw" true (raw_dump r_inc = raw_dump r_fresh);
  let rebuilt = Kg.Graph.of_list (Kg.Graph.to_list g) in
  Alcotest.(check bool) "fact ids carry over" true
    (List.for_all2 ( = )
       (List.map fst (live_facts g))
       (List.init (Kg.Graph.size rebuilt) Fun.id));
  Alcotest.(check bool) "= fresh on a rebuilt graph" true
    (signature r_inc = signature (Engine.resolve ~engine rebuilt rules))

let head_constant_tests =
  List.map
    (fun (name, engine, _) ->
      Alcotest.test_case (Printf.sprintf "head constant, then assert (%s)" name)
        `Quick (test_head_constant_then_assert engine))
    engines

(* ------------------------------------------------------------------ *)
(* Removed rules can leave nothing behind                              *)
(* ------------------------------------------------------------------ *)

let test_remove_rule_invalidates () =
  let d =
    Datagen.Footballdb.generate ~seed:9 ~players:8 ~noise_ratio:0.4 ()
  in
  let session = new_session d in
  (match Session.add_rules session extra_rule_src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_rules: %s" e);
  let engine = Engine.Mln Mln.Map_inference.default_options in
  (match Session.resolve ~engine ~mode:`Incremental session with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first resolve: %s" (Session.error_message e));
  Alcotest.(check bool)
    "rule removed" true
    (Session.remove_rule session "t_worksfor");
  match Session.resolve ~engine ~mode:`Incremental session with
  | Error e -> Alcotest.failf "second resolve: %s" (Session.error_message e)
  | Ok r ->
      (* The cached grounding must have been dropped wholesale... *)
      (match Session.cache_outcome session with
      | Some Engine.Invalidate -> ()
      | other ->
          Alcotest.failf "expected Invalidate, got %s"
            (match other with
            | Some o -> Engine.outcome_name o
            | None -> "none"));
      (* ...so no ground instance of the removed rule can survive to be
         selected. *)
      Alcotest.(check bool)
        "no stale instances" true
        (List.for_all
           (fun (i : Instance_view.t) ->
             i.Instance_view.rule.Logic.Rule.name <> "t_worksfor")
           (Instance_view.of_instances r.Engine.raw.Engine.instances));
      let g = Option.get (Session.graph session) in
      let r_fresh = Engine.resolve ~engine g (Session.rules session) in
      Alcotest.(check bool)
        "equals fresh after unrule" true
        (signature r = signature r_fresh)

(* ------------------------------------------------------------------ *)
(* Cache outcome bookkeeping                                           *)
(* ------------------------------------------------------------------ *)

let test_outcomes () =
  let d =
    Datagen.Footballdb.generate ~seed:11 ~players:8 ~noise_ratio:0.4 ()
  in
  let session = new_session d in
  let engine = Engine.Mln Mln.Map_inference.default_options in
  let resolve () =
    match Session.resolve ~engine ~mode:`Incremental session with
    | Ok r -> r
    | Error e -> Alcotest.failf "resolve: %s" (Session.error_message e)
  in
  let outcome () =
    match Session.cache_outcome session with
    | Some o -> Engine.outcome_name o
    | None -> "none"
  in
  ignore (resolve ());
  Alcotest.(check string) "first resolve misses" "miss" (outcome ());
  let r_hit = resolve () in
  Alcotest.(check string) "no-op resolve hits" "hit" (outcome ());
  let g = Option.get (Session.graph session) in
  let id, q = List.hd (live_facts g) in
  ignore id;
  (match Session.retract session q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "retract: %s" (Session.error_message e));
  let r_replay = resolve () in
  Alcotest.(check string) "edited resolve replays" "replay" (outcome ());
  let r_fresh = Engine.resolve ~engine g (Session.rules session) in
  Alcotest.(check bool)
    "replayed equals fresh" true
    (signature r_replay = signature r_fresh);
  (* A hit returns the previous result, which by induction equals the
     fresh resolve of the unedited graph; spot-check the stats agree. *)
  Alcotest.(check bool)
    "hit kept a completed status" true
    (r_hit.Engine.stats.Engine.status = Prelude.Deadline.Completed);
  (* A finite deadline bypasses the state machinery. *)
  (match
     Session.resolve ~engine ~mode:`Incremental
       ~deadline:(Prelude.Deadline.after ~ms:60_000.)
       session
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bypass resolve: %s" (Session.error_message e));
  Alcotest.(check string) "finite deadline bypasses" "bypass" (outcome ())

(* ------------------------------------------------------------------ *)
(* A one-fact edit replays and reuses solved components                *)
(* ------------------------------------------------------------------ *)

(* The exact form of `bench incr`'s timed headline, on the graph its
   smoke run uses: a one-fact edit (one playsFor stint moved to another
   team) replays the grounding, the component caches answer, and the
   result is a fresh resolve's. *)
let test_one_fact_edit_replays engine () =
  let d =
    Datagen.Footballdb.generate ~seed:17 ~players:120 ~noise_ratio:0.5 ()
  in
  let g = d.Datagen.Footballdb.graph in
  let rules = Datagen.Footballdb.constraints () in
  let st = Engine.create_state () in
  ignore (Engine.resolve ~engine ~state:st ~mode:`Incremental g rules);
  let hits_before = (Engine.cache_stats st).Engine.solve_hits in
  let plays =
    Array.of_list (Kg.Graph.by_predicate g (Kg.Term.iri "playsFor"))
  in
  let n = Array.length plays in
  let id, q = plays.(37 mod n) in
  let _, donor = plays.((37 + 97) mod n) in
  Kg.Graph.remove g id;
  let q' = { q with Kg.Quad.object_ = donor.Kg.Quad.object_ } in
  ignore (Kg.Graph.add g q');
  let delta =
    {
      Engine.facts =
        [ Logic.Atom.Ground.of_quad q'; Logic.Atom.Ground.of_quad q ];
      rules_changed = false;
    }
  in
  let r = Engine.resolve ~engine ~state:st ~mode:`Incremental ~delta g rules in
  Alcotest.(check (option string))
    "outcome" (Some "replay")
    (Option.map Engine.outcome_name (Engine.last_outcome st));
  let hits = (Engine.cache_stats st).Engine.solve_hits in
  Alcotest.(check bool)
    (Printf.sprintf "solve hits grow (%d -> %d)" hits_before hits)
    true (hits > hits_before);
  Alcotest.(check bool)
    "replayed equals fresh" true
    (signature r = signature (Engine.resolve ~engine g rules))

let one_fact_edit_tests =
  List.map
    (fun (name, engine) ->
      Alcotest.test_case
        (Printf.sprintf "one-fact edit replays from cache (%s)" name)
        `Quick (test_one_fact_edit_replays engine))
    [
      ("mln", Engine.Mln Mln.Map_inference.default_options);
      ("psl", Engine.Psl Psl.Npsl.default_options);
    ]

(* ------------------------------------------------------------------ *)
(* Fault containment: mid-replay failure falls back to fresh           *)
(* ------------------------------------------------------------------ *)

let test_fault_fallback () =
  let d =
    Datagen.Footballdb.generate ~seed:13 ~players:8 ~noise_ratio:0.4 ()
  in
  let session = new_session d in
  let engine = Engine.Mln Mln.Map_inference.default_options in
  (match Session.resolve ~engine ~mode:`Incremental session with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first resolve: %s" (Session.error_message e));
  let g = Option.get (Session.graph session) in
  let _, q = List.hd (live_facts g) in
  (match Session.retract session q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "retract: %s" (Session.error_message e));
  Prelude.Deadline.Faults.configure "incr_timeout";
  let r =
    Fun.protect
      ~finally:(fun () -> Prelude.Deadline.Faults.clear ())
      (fun () ->
        match Session.resolve ~engine ~mode:`Incremental session with
        | Ok r -> r
        | Error e ->
            Alcotest.failf "faulted resolve: %s" (Session.error_message e))
  in
  (match Session.cache_outcome session with
  | Some Engine.Fallback -> ()
  | other ->
      Alcotest.failf "expected Fallback, got %s"
        (match other with
        | Some o -> Engine.outcome_name o
        | None -> "none"));
  let r_fresh = Engine.resolve ~engine g (Session.rules session) in
  Alcotest.(check bool)
    "fallback equals fresh (never a stale cache)" true
    (signature r = signature r_fresh)

let () =
  Alcotest.run "incremental"
    [
      ("differential", differential_tests @ span_tree_tests);
      ( "grounding",
        [
          Alcotest.test_case "reground is byte-identical" `Quick
            test_reground_identical;
          Alcotest.test_case "reground refuses changed rules" `Quick
            test_reground_refuses_mismatch;
        ]
        @ head_constant_tests );
      ( "invalidation",
        [
          Alcotest.test_case "removed rule leaves no stale clauses" `Quick
            test_remove_rule_invalidates;
          Alcotest.test_case "outcome bookkeeping" `Quick test_outcomes;
        ]
        @ one_fact_edit_tests );
      ( "faults",
        [
          Alcotest.test_case "mid-replay fault falls back to fresh" `Quick
            test_fault_fallback;
        ] );
    ]
