(* Tests for the TeCoRe core: translator, conflict interpretation,
   threshold, the engine facade and the session workflow. *)

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let cr_graph () =
  Kg.Graph.of_list
    [
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Leicester") (2015, 2017) 0.7;
      Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
      Kg.Quad.v "CR" "birthDate" (Kg.Term.int 1951) (1951, 2017) 1.0;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
    ]

let cr_rules () =
  parse_rules
    {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .|}

let test_translator_ok () =
  let report = Tecore.Translator.analyse (cr_graph ()) (cr_rules ()) in
  Alcotest.(check bool) "ok" true report.Tecore.Translator.ok;
  Alcotest.(check bool) "recommends MLN for 5 facts" true
    (report.Tecore.Translator.recommended = Tecore.Translator.Mln_engine)

let test_translator_warnings () =
  let rules =
    parse_rules "constraint c: nosuch(x, y)@t ^ nosuch(x, z)@t2 => y = z ."
  in
  let report = Tecore.Translator.analyse (cr_graph ()) rules in
  Alcotest.(check bool) "still ok" true report.Tecore.Translator.ok;
  Alcotest.(check bool) "warns about predicate" true
    (List.exists
       (fun n -> n.Tecore.Translator.severity = Tecore.Translator.Warning)
       report.Tecore.Translator.notes)

let test_translator_duplicate_names () =
  let rules =
    parse_rules
      {|rule dup 1.0: coach(x, y)@t => worksFor(x, y)@t .
rule dup 2.0: playsFor(x, y)@t => worksFor(x, y)@t .|}
  in
  let report = Tecore.Translator.analyse (cr_graph ()) rules in
  Alcotest.(check bool) "duplicate names rejected" false
    report.Tecore.Translator.ok;
  Alcotest.(check bool) "error note names the rule" true
    (List.exists
       (fun (n : Tecore.Translator.note) ->
         n.Tecore.Translator.severity = Tecore.Translator.Error
         && n.Tecore.Translator.rule = Some "dup")
       report.Tecore.Translator.notes)

let test_translator_recommends_psl_at_scale () =
  let graph = Kg.Graph.create () in
  (* One fact past the translator's 20,000-atom MLN size limit. *)
  for i = 0 to 20_000 do
    ignore
      (Kg.Graph.add graph
         (Kg.Quad.v (Printf.sprintf "s%d" i) "p" (Kg.Term.iri "o") (1, 2) 0.9))
  done;
  let report = Tecore.Translator.analyse graph [] in
  Alcotest.(check bool) "psl recommended" true
    (report.Tecore.Translator.recommended = Tecore.Translator.Psl_engine)

let test_translator_head_predicate_not_warned () =
  (* worksFor only exists as a rule head; chained rules must not warn. *)
  let rules =
    parse_rules
      {|rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .
rule g 1.0: worksFor(x, y)@t => employed(x, y)@t .|}
  in
  let report = Tecore.Translator.analyse (cr_graph ()) rules in
  Alcotest.(check bool) "no warnings" true
    (not
       (List.exists
          (fun n -> n.Tecore.Translator.severity = Tecore.Translator.Warning)
          report.Tecore.Translator.notes))

let figure7 result =
  Kg.Graph.to_list result.Tecore.Engine.resolution.Tecore.Conflict.consistent
  |> List.map Kg.Quad.to_string
  |> List.sort String.compare

let expected_figure7 =
  List.sort String.compare
    [
      "(CR, coach, Chelsea, [2000,2004]) 0.9";
      "(CR, coach, Leicester, [2015,2017]) 0.7";
      "(CR, playsFor, Palermo, [1984,1986]) 0.5";
      "(CR, birthDate, 1951, [1951,2017])";
      "(CR, worksFor, Palermo, [1984,1986]) 0.924";
    ]

let test_resolve_mln () =
  let result =
    Tecore.Engine.resolve
      ~engine:(Tecore.Engine.Mln Mln.Map_inference.default_options)
      (cr_graph ()) (cr_rules ())
  in
  Alcotest.(check (list string)) "figure 7" expected_figure7 (figure7 result);
  Alcotest.(check int) "one removed" 1
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed);
  Alcotest.(check int) "kept" 4 result.Tecore.Engine.resolution.Tecore.Conflict.kept;
  Alcotest.(check int) "clash involves two facts" 2
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.conflicting);
  let removed_fact =
    snd (List.hd result.Tecore.Engine.resolution.Tecore.Conflict.removed)
  in
  Alcotest.(check string) "napoli removed"
    "(CR, coach, Napoli, [2001,2003]) 0.6"
    (Kg.Quad.to_string removed_fact)

let test_resolve_psl () =
  let result =
    Tecore.Engine.resolve ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
      (cr_graph ()) (cr_rules ())
  in
  Alcotest.(check (list string)) "figure 7 via psl" expected_figure7
    (figure7 result)

let test_resolve_auto () =
  let result = Tecore.Engine.resolve (cr_graph ()) (cr_rules ()) in
  Alcotest.(check bool) "auto uses mln on small input" true
    (result.Tecore.Engine.stats.Tecore.Engine.engine_used
    = Tecore.Translator.Mln_engine)

let test_threshold () =
  (* worksFor is derived with confidence sigmoid(2.5) ~ 0.924. *)
  let resolve t =
    Tecore.Engine.resolve ?threshold:t (cr_graph ()) (cr_rules ())
  in
  let keep = resolve (Some 0.5) in
  Alcotest.(check int) "below threshold kept" 1
    (List.length keep.Tecore.Engine.resolution.Tecore.Conflict.derived);
  let drop = resolve (Some 0.95) in
  Alcotest.(check int) "above threshold dropped" 0
    (List.length drop.Tecore.Engine.resolution.Tecore.Conflict.derived);
  (* The derived quad is also removed from the consistent graph. *)
  Alcotest.(check int) "consistent shrinks" 4
    (Kg.Graph.size drop.Tecore.Engine.resolution.Tecore.Conflict.consistent)

(* The threshold applied after the fact: the derived fact leaves both
   the derived list and the consistent graph, and the resolution it was
   applied to is left as it was. *)
let test_apply_threshold () =
  let r =
    (Tecore.Engine.resolve (cr_graph ()) (cr_rules ())).Tecore.Engine.resolution
  in
  let size res = Kg.Graph.size res.Tecore.Conflict.consistent in
  let derived res = List.length res.Tecore.Conflict.derived in
  Alcotest.(check (pair int int)) "unthresholded" (1, 5) (derived r, size r);
  let low = Tecore.Conflict.apply_threshold 0.5 r in
  Alcotest.(check (pair int int)) "0.5 keeps it" (1, 5) (derived low, size low);
  let high = Tecore.Conflict.apply_threshold 0.95 r in
  Alcotest.(check (pair int int)) "0.95 drops it" (0, 4) (derived high, size high);
  Alcotest.(check (pair int int)) "input untouched" (1, 5) (derived r, size r)

(* [apply_threshold] as it was before it made one pass: a scan of the
   whole copy for each dropped derived fact. *)
let threshold_by_scan threshold (r : Tecore.Conflict.resolution) =
  let consistent = Kg.Graph.copy r.Tecore.Conflict.consistent in
  List.iter
    (fun (d : Tecore.Conflict.derived_fact) ->
      match d.Tecore.Conflict.as_quad with
      | Some q when d.Tecore.Conflict.confidence < threshold ->
          Kg.Graph.iter
            (fun id q' ->
              if Kg.Quad.same_statement q q' then Kg.Graph.remove consistent id)
            consistent
      | _ -> ())
    r.Tecore.Conflict.derived;
  consistent

let live_facts g =
  let acc = ref [] in
  Kg.Graph.iter (fun id q -> acc := (id, Kg.Quad.to_string q) :: !acc) g;
  List.rev !acc

(* Two cases the one pass must handle as the scan did, on a hand-made
   resolution: a statement the graph holds twice (different
   confidences) loses both copies, and a derived quad naming a symbol
   the graph's table lacks, or no quad at all, removes no fact. *)
let test_apply_threshold_copies_and_unknowns () =
  let fact o c = Kg.Quad.v "CR" "worksFor" (Kg.Term.iri o) (1984, 1986) c in
  let consistent =
    Kg.Graph.of_list
      [ fact "Palermo" 0.5; cr_graph () |> Kg.Graph.to_list |> List.hd;
        fact "Palermo" 0.9; fact "Roma" 0.8 ]
  in
  let derived q confidence =
    {
      Tecore.Conflict.atom = Logic.Atom.Ground.of_quad q;
      confidence;
      as_quad = Some q;
    }
  in
  let unknown = fact "Nowhere" 0.3 in
  let r =
    {
      Tecore.Conflict.consistent;
      removed = [];
      derived =
        [
          derived (fact "Palermo" 0.7) 0.7;
          derived unknown 0.3;
          { (derived unknown 0.2) with as_quad = None };
          derived (fact "Roma" 0.8) 0.95;
        ];
      conflicting = [];
      kept = 4;
    }
  in
  let got = Tecore.Conflict.apply_threshold 0.9 r in
  Alcotest.(check (list (pair int string)))
    "both Palermo copies go, Roma stays"
    (live_facts (threshold_by_scan 0.9 r))
    (live_facts got.Tecore.Conflict.consistent);
  Alcotest.(check (list int)) "surviving ids" [ 1; 3 ]
    (List.map fst (live_facts got.Tecore.Conflict.consistent));
  Alcotest.(check int) "one derived fact kept" 1
    (List.length got.Tecore.Conflict.derived);
  Alcotest.(check int) "input untouched" 4 (Kg.Graph.size consistent)

let wikidata_resolve ?threshold ?(extra = []) total_facts =
  let d = Datagen.Wikidata.generate ~seed:3 ~total_facts () in
  Tecore.Engine.resolve ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
    ?threshold d.Datagen.Wikidata.graph
    (Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules () @ extra)

(* The one-pass removal leaves the same facts, under the same ids, as
   the per-fact scan, at thresholds that drop none, some and all of the
   derived occupation facts. Every fact the Wikidata rule derives has
   confidence sigmoid(1.2) ~ 0.77; a second rule deriving them from
   memberOf at sigmoid(3.0) ~ 0.95 gives 0.9 some to keep. *)
let test_apply_threshold_one_pass () =
  let extra =
    parse_rules
      "rule member_athlete 3.0: memberOf(x, y)@t => occupation(x, Athlete)@t ."
  in
  let r = (wikidata_resolve ~extra 600).Tecore.Engine.resolution in
  let derived = r.Tecore.Conflict.derived in
  List.iter
    (fun threshold ->
      let got = Tecore.Conflict.apply_threshold threshold r in
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "consistent graph at %g" threshold)
        (live_facts (threshold_by_scan threshold r))
        (live_facts got.Tecore.Conflict.consistent);
      Alcotest.(check int)
        (Printf.sprintf "derived facts kept at %g" threshold)
        (List.length
           (List.filter
              (fun (d : Tecore.Conflict.derived_fact) ->
                d.Tecore.Conflict.confidence >= threshold)
              derived))
        (List.length got.Tecore.Conflict.derived))
    [ 0.0; 0.9; 0.99 ];
  let kept threshold =
    List.length
      (Tecore.Conflict.apply_threshold threshold r).Tecore.Conflict.derived
  in
  Alcotest.(check bool) "0.9 keeps some, 0.99 none" true
    (kept 0.0 > kept 0.9 && kept 0.9 > 0 && kept 0.99 = 0)

(* A scan per dropped fact made thresholding quadratic: 15.9 s after a
   279 ms resolve at 16,000 facts. One pass takes milliseconds, so the
   bound is generous. *)
let test_threshold_at_scale () =
  let r, ms =
    Prelude.Timing.time (fun () -> wikidata_resolve ~threshold:0.99 16_000)
  in
  Alcotest.(check bool) "derived facts dropped" true
    (Kg.Graph.size r.Tecore.Engine.resolution.Tecore.Conflict.consistent
    < 16_000);
  Alcotest.(check bool)
    (Printf.sprintf "threshold resolve took %.0f ms, bound 8000 ms" ms)
    true (ms < 8000.)

(* A traced resolve reports its four stages under one root span, for
   both engines. *)
let test_resolve_span_tree () =
  List.iter
    (fun (name, engine) ->
      Obs.reset ();
      Obs.set_enabled true;
      let report =
        Fun.protect
          ~finally:(fun () ->
            Obs.set_enabled false;
            Obs.reset ())
          (fun () ->
            ignore (Tecore.Engine.resolve ~engine (cr_graph ()) (cr_rules ()));
            Obs.Report.capture ())
      in
      List.iter
        (fun stage ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: resolve/%s" name stage)
            true
            (Obs.Report.find report [ "resolve"; stage ] <> None))
        [ "ground"; "encode"; "solve"; "interpret" ])
    [
      ("mln", Tecore.Engine.Mln Mln.Map_inference.default_options);
      ("psl", Tecore.Engine.Psl Psl.Npsl.default_options);
    ]

(* [interpret] reads the store through the graph's own symbol table, so
   it accepts only the grounding of that graph, not of a copy. *)
let test_interpret_own_grounding () =
  let g = cr_graph () in
  let r = Tecore.Engine.resolve g (cr_rules ()) in
  let raw = r.Tecore.Engine.raw in
  let interpret graph =
    Tecore.Conflict.interpret ~graph ~store:raw.Tecore.Engine.store
      ~instances:raw.Tecore.Engine.instances
      ~assignment:raw.Tecore.Engine.assignment ()
  in
  let again = interpret g in
  Alcotest.(check (list string)) "same consistent graph"
    (List.map Kg.Quad.to_string
       (Kg.Graph.to_list r.Tecore.Engine.resolution.Tecore.Conflict.consistent))
    (List.map Kg.Quad.to_string
       (Kg.Graph.to_list again.Tecore.Conflict.consistent));
  Alcotest.check_raises "a copy's table is another table"
    (Invalid_argument "Conflict.interpret: the store is not the graph's grounding")
    (fun () -> ignore (interpret (Kg.Graph.copy g)))

let test_pp_summary () =
  let r =
    (Tecore.Engine.resolve (cr_graph ()) (cr_rules ())).Tecore.Engine.resolution
  in
  Alcotest.(check string) "statistics panel"
    (Printf.sprintf
       "kept facts:        %d\nremoved facts:     1\nderived facts:     1\n\
        conflicting facts: 2"
       r.Tecore.Conflict.kept)
    (Format.asprintf "%a" Tecore.Conflict.pp_summary r)

let test_choice_name () =
  Alcotest.(check (list string)) "spellings" [ "mln"; "psl" ]
    (List.map Tecore.Engine.choice_name
       [ Tecore.Translator.Mln_engine; Tecore.Translator.Psl_engine ])

let test_derived_confidence_monotone () =
  (* Two rules deriving the same atom give higher confidence than one. *)
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "a" "p" (Kg.Term.iri "b") (1, 2) 0.9;
        Kg.Quad.v "a" "q" (Kg.Term.iri "b") (1, 2) 0.9;
      ]
  in
  let one = parse_rules "rule r1 1.0: p(x, y)@t => d(x, y)@t ." in
  let two =
    parse_rules
      {|rule r1 1.0: p(x, y)@t => d(x, y)@t .
rule r2 1.0: q(x, y)@t => d(x, y)@t .|}
  in
  let conf rules =
    let result = Tecore.Engine.resolve graph rules in
    match result.Tecore.Engine.resolution.Tecore.Conflict.derived with
    | [ d ] -> d.Tecore.Conflict.confidence
    | ds -> Alcotest.fail (Printf.sprintf "expected 1 derived, got %d" (List.length ds))
  in
  Alcotest.(check bool) "two rules > one rule" true (conf two > conf one)

let test_rejected () =
  let unsafe =
    [
      Logic.Rule.
        {
          name = "bad";
          weight = None;
          body = [ Logic.Atom.make "p" [ Logic.Lterm.var "x" ] ];
          conditions = [];
          head =
            Infer (Logic.Atom.make "q" [ Logic.Lterm.var "y" ]);
        };
    ]
  in
  match Tecore.Engine.resolve (cr_graph ()) unsafe with
  | exception Tecore.Engine.Rejected report ->
      Alcotest.(check bool) "report not ok" false report.Tecore.Translator.ok
  | _ -> Alcotest.fail "unsafe rule accepted"

let test_session_workflow () =
  let s = Tecore.Session.create () in
  Alcotest.(check bool) "no graph yet" true (Tecore.Session.graph s = None);
  (match Tecore.Session.run s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "run without graph must fail");
  (match
     Tecore.Session.load_string s
       {|ex:CR ex:coach ex:Chelsea [2000,2004] 0.9 .
ex:CR ex:coach ex:Napoli [2001,2003] 0.6 .|}
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Tecore.Session.add_rules s
       "constraint c2: ex:coach(x, y)@t ^ ex:coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
   with
  | Ok [ _ ] -> ()
  | Ok _ -> Alcotest.fail "one rule expected"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "completion" [ "ex:coach" ]
    (Tecore.Session.complete_predicate s "ex:c");
  (match Tecore.Session.run s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one consistent statement" 1
    (List.length (Tecore.Session.consistent_statements s));
  Alcotest.(check int) "one conflicting statement" 1
    (List.length (Tecore.Session.conflicting_statements s));
  Alcotest.(check bool) "stats mention engine" true
    (Tecore.Session.statistics s <> "no run yet");
  (* Editing rules invalidates the previous result. *)
  Alcotest.(check bool) "remove rule" true (Tecore.Session.remove_rule s "c2");
  Alcotest.(check bool) "result cleared" true (Tecore.Session.last_result s = None);
  Alcotest.(check bool) "remove absent rule" false
    (Tecore.Session.remove_rule s "zz")

(* The delta the next incremental resolve replays: fact edits counted,
   rule edits flagged, both cleared by a successful resolve. *)
let test_session_pending_delta () =
  let s = Tecore.Session.create () in
  (match Tecore.Session.load_string s "CR coach Chelsea [2000,2004] 0.9 ." with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let resolve () =
    match Tecore.Session.resolve ~mode:`Incremental s with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Tecore.Session.error_message e)
  in
  let delta () = (Tecore.Session.pending_edits s, Tecore.Session.rules_dirty s) in
  resolve ();
  Alcotest.(check (pair int bool)) "clean after resolve" (0, false) (delta ());
  let q = Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6 in
  ignore (Tecore.Session.assert_fact s q);
  Alcotest.(check (pair int bool)) "one assert" (1, false) (delta ());
  ignore (Tecore.Session.retract s q);
  Alcotest.(check (pair int bool)) "assert + retract" (2, false) (delta ());
  (match
     Tecore.Session.add_rules s
       "constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (pair int bool)) "rule edit" (2, true) (delta ());
  resolve ();
  Alcotest.(check (pair int bool)) "cleared" (0, false) (delta ())

(* The state dump writes facts with the one fact printer, so a float
   object comes back a float. *)
let test_session_dump_state_floats () =
  let s = Tecore.Session.create () in
  (match Tecore.Session.load_string s "ex:a ex:w 2. [1,2] .\nex:a ex:v 0.123456789 [3,4] 0.5 ." with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let asserts =
    List.filter
      (fun l -> String.length l > 7 && String.sub l 0 7 = "assert ")
      (Tecore.Session.dump_state s)
  in
  Alcotest.(check (list string)) "assert lines"
    [ "assert ex:a ex:w 2. [1,2] ."; "assert ex:a ex:v 0.123456789 [3,4] 0.5 ." ]
    asserts;
  let ns = Tecore.Session.namespace s in
  List.iter2
    (fun line expect ->
      match Kg.Nquads.parse_quad ns (String.sub line 7 (String.length line - 7)) with
      | Ok q -> Alcotest.(check bool) line true (q.Kg.Quad.object_ = expect)
      | Error e -> Alcotest.fail e)
    asserts
    [ Kg.Term.float 2.0; Kg.Term.float 0.123456789 ]

let test_session_load_errors () =
  let s = Tecore.Session.create () in
  (match Tecore.Session.load_string s "not a fact line" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad data accepted");
  (match Tecore.Session.add_rules s "rule broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad rules accepted");
  match Tecore.Session.load s "/nonexistent/path.tq" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing file accepted"

let test_conflicting_count_on_noisy_graph () =
  (* Three mutually overlapping coach facts: all three are conflicting,
     but only the cheapest ones are removed. *)
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2010) 0.9;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2001, 2005) 0.6;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "C") (2004, 2008) 0.7;
      ]
  in
  let rules =
    parse_rules
      "constraint c: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
  in
  let result = Tecore.Engine.resolve graph rules in
  Alcotest.(check int) "three conflicting" 3
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.conflicting);
  Alcotest.(check int) "two removed" 2
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed);
  Alcotest.(check int) "one kept" 1 result.Tecore.Engine.resolution.Tecore.Conflict.kept;
  (* The highest-confidence fact survives. *)
  let kept = Kg.Graph.to_list result.Tecore.Engine.resolution.Tecore.Conflict.consistent in
  Alcotest.(check int) "graph size" 1 (List.length kept);
  Alcotest.(check string) "A kept" "(x, coach, A, [2000,2010]) 0.9"
    (Kg.Quad.to_string (List.hd kept))

let () =
  Alcotest.run "tecore"
    [
      ( "translator",
        [
          Alcotest.test_case "ok" `Quick test_translator_ok;
          Alcotest.test_case "warnings" `Quick test_translator_warnings;
          Alcotest.test_case "duplicate names" `Quick
            test_translator_duplicate_names;
          Alcotest.test_case "psl at scale" `Quick
            test_translator_recommends_psl_at_scale;
          Alcotest.test_case "head predicates" `Quick
            test_translator_head_predicate_not_warned;
        ] );
      ( "engine",
        [
          Alcotest.test_case "resolve mln" `Quick test_resolve_mln;
          Alcotest.test_case "resolve psl" `Quick test_resolve_psl;
          Alcotest.test_case "resolve auto" `Quick test_resolve_auto;
          Alcotest.test_case "threshold" `Quick test_threshold;
          Alcotest.test_case "apply_threshold" `Quick test_apply_threshold;
          Alcotest.test_case "apply_threshold equals a scan per fact" `Quick
            test_apply_threshold_one_pass;
          Alcotest.test_case "apply_threshold on copies and unknown symbols"
            `Quick test_apply_threshold_copies_and_unknowns;
          Alcotest.test_case "threshold at 16,000 facts" `Quick
            test_threshold_at_scale;
          Alcotest.test_case "resolve span tree" `Quick test_resolve_span_tree;
          Alcotest.test_case "pp_summary" `Quick test_pp_summary;
          Alcotest.test_case "interpret needs the graph's grounding" `Quick
            test_interpret_own_grounding;
          Alcotest.test_case "choice_name" `Quick test_choice_name;
          Alcotest.test_case "derived confidence monotone" `Quick
            test_derived_confidence_monotone;
          Alcotest.test_case "rejected" `Quick test_rejected;
          Alcotest.test_case "conflicting count" `Quick
            test_conflicting_count_on_noisy_graph;
        ] );
      ( "session",
        [
          Alcotest.test_case "workflow" `Quick test_session_workflow;
          Alcotest.test_case "load errors" `Quick test_session_load_errors;
          Alcotest.test_case "pending delta" `Quick test_session_pending_delta;
          Alcotest.test_case "dump_state floats" `Quick
            test_session_dump_state_floats;
        ] );
    ]
