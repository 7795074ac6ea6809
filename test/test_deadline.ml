(* Robustness tests for the deadline/anytime layer: budget bookkeeping,
   deterministic fault injection, crash containment in the pool, the
   solvers' anytime contract, and the session/engine error paths. *)

module Deadline = Prelude.Deadline
module Pool = Prelude.Pool
module Network = Mln.Network

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let with_faults spec f =
  Prelude.Deadline.Faults.configure spec;
  Fun.protect ~finally:Prelude.Deadline.Faults.clear f

(* The Claudio Ranieri conflict from the paper, as a ground network. *)
let cr_network () =
  let store =
    Grounder.Atom_store.of_graph
      (Kg.Graph.of_list
         [
           Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
           Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
           Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
         ])
  in
  let rules =
    parse_rules
      {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .|}
  in
  let ground = Grounder.Ground.run store rules in
  (store, Network.build store ground.Grounder.Ground.instances)

let cr_graph_and_rules () =
  ( Kg.Graph.of_list
      [
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
      ],
    parse_rules
      {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .|}
  )

(* ------------------------------------------------------------------ *)
(* Deadline bookkeeping.                                               *)

let test_none_never_expires () =
  Alcotest.(check bool) "not finite" false (Deadline.is_finite Deadline.none);
  Alcotest.(check bool) "not expired" false (Deadline.expired Deadline.none);
  Alcotest.(check bool) "infinite remaining" true
    (Deadline.remaining_ms Deadline.none = infinity);
  Alcotest.(check bool) "infinite budget" true
    (Deadline.budget_ms Deadline.none = infinity)

let test_after_expires () =
  let d = Deadline.after ~ms:0. in
  Alcotest.(check bool) "finite" true (Deadline.is_finite d);
  Alcotest.(check bool) "already expired" true (Deadline.expired d);
  let d = Deadline.after ~ms:60_000. in
  Alcotest.(check bool) "fresh budget live" false (Deadline.expired d);
  Alcotest.(check bool) "remaining positive" true (Deadline.remaining_ms d > 0.)

let test_of_timeout_ms () =
  Alcotest.(check bool) "None is none" false
    (Deadline.is_finite (Deadline.of_timeout_ms None));
  Alcotest.(check bool) "Some is finite" true
    (Deadline.is_finite (Deadline.of_timeout_ms (Some 5.)))

let test_slice () =
  Alcotest.(check bool) "slice of none is none" false
    (Deadline.is_finite (Deadline.slice Deadline.none ~frac:0.5));
  let parent = Deadline.after ~ms:60_000. in
  let slice = Deadline.slice parent ~frac:0.5 in
  Alcotest.(check bool) "slice finite" true (Deadline.is_finite slice);
  Alcotest.(check bool) "slice within parent" true
    (Deadline.remaining_ms slice <= Deadline.remaining_ms parent)

let test_status_lattice () =
  let open Deadline in
  Alcotest.(check string) "names" "completed,timed_out,degraded"
    (String.concat ","
       (List.map status_name [ Completed; Timed_out; Degraded ]));
  Alcotest.(check bool) "degraded dominates" true
    (worst Degraded Timed_out = Degraded && worst Timed_out Degraded = Degraded);
  Alcotest.(check bool) "timed_out dominates completed" true
    (worst Completed Timed_out = Timed_out);
  Alcotest.(check bool) "completed is neutral" true
    (worst Completed Completed = Completed)

let test_pp_status () =
  let open Deadline in
  Alcotest.(check (list string)) "printed as named"
    [ "completed"; "timed_out"; "degraded" ]
    (List.map (Format.asprintf "%a" pp_status) [ Completed; Timed_out; Degraded ])

(* The CLI's fallback budget: a finite number of milliseconds, blanks
   allowed; anything else (including an empty value) is no budget. *)
let test_env_timeout_ms () =
  let var = "TECORE_TIMEOUT_MS" in
  let saved = Sys.getenv_opt var in
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value saved ~default:""))
    (fun () ->
      List.iter
        (fun (value, expect) ->
          Unix.putenv var value;
          Alcotest.(check (option (float 0.)))
            (Printf.sprintf "%S" value) expect
            (Deadline.env_timeout_ms ()))
        [
          ("250", Some 250.);
          (" 1.5 ", Some 1.5);
          ("", None);
          ("soon", None);
          ("inf", None);
          ("nan", None);
        ])

(* ------------------------------------------------------------------ *)
(* Fault injection.                                                    *)

let test_faults_configure () =
  with_faults "worker_crash,slow_ground:25" (fun () ->
      let open Deadline.Faults in
      Alcotest.(check bool) "worker_crash active" true (active "worker_crash");
      Alcotest.(check int) "default arg" 1 (arg "worker_crash");
      Alcotest.(check int) "explicit arg" 25 (arg "slow_ground");
      Alcotest.(check bool) "inactive point" false (active "other");
      Alcotest.(check int) "inactive arg" 0 (arg "other");
      Alcotest.(check bool) "trips at its index" true
        (trip_at "worker_crash" ~index:1);
      Alcotest.(check bool) "quiet elsewhere" false
        (trip_at "worker_crash" ~index:2);
      Alcotest.check_raises "inject raises" (Injected "worker_crash")
        (fun () -> inject "worker_crash" ~index:1);
      (* A non-matching index must not raise. *)
      inject "worker_crash" ~index:0);
  Alcotest.(check bool) "cleared" false (Deadline.Faults.active "worker_crash")

(* ------------------------------------------------------------------ *)
(* Pool crash containment and deadline-aware dealing.                  *)

let test_map_results_contains_crashes () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      let results =
        Pool.map_results pool
          (fun x -> if x = 2 then failwith "boom" else x * 10)
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check int) "four results" 4 (List.length results);
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "survivor value" (i * 10) v
          | Error (Failure msg) ->
              Alcotest.(check int) "crash position" 2 i;
              Alcotest.(check string) "crash payload" "boom" msg
          | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e))
        results)
    [ 1; 4 ]

let test_map_results_skips_after_expiry () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      let results =
        Pool.map_results ~deadline:(Deadline.after ~ms:0.) pool
          (fun x -> x)
          [ 0; 1; 2 ]
      in
      Alcotest.(check bool) "all skipped as Expired" true
        (List.for_all (function Error Deadline.Expired -> true | _ -> false)
           results))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Solver anytime contracts on the CR fixture.                         *)

let test_walksat_expired_deadline () =
  let _, network = cr_network () in
  let assignment, stats =
    Mln.Maxwalksat.solve ~seed:7 ~deadline:(Deadline.after ~ms:0.) network
  in
  Alcotest.(check int) "full assignment" network.Network.num_atoms
    (Array.length assignment);
  Alcotest.(check bool) "not completed" true
    (stats.Mln.Maxwalksat.status <> Deadline.Completed);
  (* The status must be honest about hard violations. *)
  (match stats.Mln.Maxwalksat.status with
  | Deadline.Timed_out ->
      Alcotest.(check int) "timed_out is sound" 0
        stats.Mln.Maxwalksat.hard_violated
  | Deadline.Degraded | Deadline.Completed -> ());
  Alcotest.(check int) "hard violations match assignment"
    (Network.hard_violations network assignment)
    stats.Mln.Maxwalksat.hard_violated

let test_walksat_crash_keeps_best () =
  (* The CR clash keeps a soft clause violated in every answer. Padded
     past 16 atoms, the walk proves no optimum either, so no descent
     stops early and the crashing task 1 is always started. *)
  let _, network = cr_network () in
  let network = { network with Network.num_atoms = 17 } in
  let cost (a, (s : Mln.Maxwalksat.stats)) =
    ignore a;
    (s.Mln.Maxwalksat.hard_violated, s.Mln.Maxwalksat.soft_cost)
  in
  let solo = Mln.Maxwalksat.solve ~seed:7 ~restarts:1 network in
  with_faults "worker_crash" (fun () ->
      let faulted = Mln.Maxwalksat.solve ~seed:7 ~restarts:4 network in
      Alcotest.(check bool) "crash reported as degraded" true
        ((snd faulted).Mln.Maxwalksat.status = Deadline.Degraded);
      (* Task 1 crashed, but tasks 0/2/3 ran: never worse than task 0
         alone. *)
      Alcotest.(check bool) "best-so-far kept" true
        (cost faulted <= cost solo))

let test_samplers_expired_deadline () =
  let _, network = cr_network () in
  let g =
    Mln.Gibbs.run ~seed:3 ~burn_in:10 ~samples:50
      ~deadline:(Deadline.after ~ms:0.) network
  in
  Alcotest.(check int) "gibbs recorded nothing" 0 g.Mln.Gibbs.recorded;
  Alcotest.(check bool) "gibbs degraded" true
    (g.Mln.Gibbs.status = Deadline.Degraded);
  Alcotest.(check bool) "gibbs marginals stay probabilities" true
    (Array.for_all (fun p -> p >= 0. && p <= 1.) g.Mln.Gibbs.marginals);
  let m =
    Mln.Mcsat.run ~seed:3 ~burn_in:10 ~samples:50
      ~deadline:(Deadline.after ~ms:0.) network
  in
  Alcotest.(check int) "mcsat recorded nothing" 0 m.Mln.Mcsat.recorded;
  Alcotest.(check bool) "mcsat degraded" true
    (m.Mln.Mcsat.status = Deadline.Degraded);
  Alcotest.(check bool) "mcsat marginals stay probabilities" true
    (Array.for_all (fun p -> p >= 0. && p <= 1.) m.Mln.Mcsat.marginals)

(* ------------------------------------------------------------------ *)
(* Engine policies.                                                    *)

let test_engine_fail_policy_rejects_grounding () =
  let graph, rules = cr_graph_and_rules () in
  match
    Tecore.Engine.resolve
      ~deadline:(Deadline.after ~ms:0.)
      ~on_timeout:`Fail graph rules
  with
  | _ -> Alcotest.fail "expected Ground_timed_out"
  | exception Tecore.Engine.Ground_timed_out report ->
      Alcotest.(check bool) "report not ok" false report.Tecore.Translator.ok;
      Alcotest.(check bool) "structured note present" true
        (List.exists
           (fun (n : Tecore.Translator.note) ->
             n.Tecore.Translator.severity = Tecore.Translator.Error)
           report.Tecore.Translator.notes)

(* Every backend the engine can run: the MLN walk with and without CPI,
   both exact backends, and nPSL. *)
let engines =
  let mln solver use_cpi =
    Tecore.Engine.Mln
      { Mln.Map_inference.default_options with solver; use_cpi }
  in
  [
    ("mln walk+cpi", mln Mln.Map_inference.Walk true);
    ("mln walk", mln Mln.Map_inference.Walk false);
    ("mln exact_bb", mln Mln.Map_inference.Exact_bb true);
    ("mln ilp_exact", mln Mln.Map_inference.Ilp_exact false);
    ("psl", Tecore.Engine.Psl Psl.Npsl.default_options);
  ]

let football ~players =
  let d = Datagen.Footballdb.generate ~seed:1 ~players ~noise_ratio:0.5 () in
  ( d.Datagen.Footballdb.graph,
    Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules () )

(* The sum of counter [name] over a report: outside any span and in
   every span. *)
let counter (report : Obs.Report.t) name =
  let here counters = Option.value (List.assoc_opt name counters) ~default:0. in
  let rec node (n : Obs.Report.node) =
    List.fold_left
      (fun acc c -> acc +. node c)
      (here n.Obs.Report.counters) n.Obs.Report.children
  in
  List.fold_left
    (fun acc n -> acc +. node n)
    (here report.Obs.Report.counters) report.Obs.Report.spans

(* The name of every counter, gauge and histogram a report recorded,
   outside any span and in every span. *)
let metric_names (report : Obs.Report.t) =
  let names counters gauges hists =
    List.map fst counters @ List.map fst gauges @ List.map fst hists
  in
  let rec node (n : Obs.Report.node) =
    names n.Obs.Report.counters n.Obs.Report.gauges n.Obs.Report.hists
    @ List.concat_map node n.Obs.Report.children
  in
  names report.Obs.Report.counters report.Obs.Report.gauges
    report.Obs.Report.hists
  @ List.concat_map node report.Obs.Report.spans

let observed f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let r = f () in
      (r, Obs.Report.capture ()))

(* An already-expired deadline still yields a resolution of every fact,
   sound unless [Degraded]. The solve stops in the first component it
   polls: over all of the at least [components] components, nothing
   searches. *)
let test_engine_best_effort_survives_expiry ?engine ~components
    (graph, rules) () =
  let result, report =
    observed (fun () ->
        Tecore.Engine.resolve ?engine ~deadline:(Deadline.after ~ms:0.) graph
          rules)
  in
  let stats = result.Tecore.Engine.stats in
  Alcotest.(check bool) "status reported" true
    (stats.Tecore.Engine.status <> Deadline.Completed);
  let r = result.Tecore.Engine.resolution in
  Alcotest.(check int) "facts accounted for" (Kg.Graph.size graph)
    (r.Tecore.Conflict.kept + List.length r.Tecore.Conflict.removed);
  if stats.Tecore.Engine.status <> Deadline.Degraded then
    Alcotest.(check int) "sound unless degraded" 0
      stats.Tecore.Engine.hard_violations;
  Alcotest.(check bool)
    (Printf.sprintf "at least %d components" components)
    true
    (counter report "solve.components" >= float_of_int components);
  Alcotest.(check (float 0.)) "no flip" 0. (counter report "walksat.flips");
  Alcotest.(check (float 0.)) "no ADMM iteration" 0.
    (counter report "admm.iterations")

(* The repro of a sound answer reported [degraded]: MaxWalkSAT tags a
   walk that expired with hard clauses violated [Degraded], and the run
   kept that tag after the repair backstop had made the answer sound. A
   sound, cut-short answer reads [timed_out]. *)
let test_engine_repaired_expiry_times_out () =
  let ns = Kg.Namespace.create () in
  let graph =
    match Kg.Nquads.parse_file ~namespace:ns "../data/football.tq" with
    | Ok g -> g
    | Error e -> Alcotest.fail (Format.asprintf "%a" Kg.Nquads.pp_error e)
  in
  let rules =
    match Rulelang.Parser.parse_file ~namespace:ns "../data/football.rules" with
    | Ok r -> r
    | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)
  in
  let engine =
    Tecore.Engine.Mln
      { Mln.Map_inference.default_options with use_cpi = false }
  in
  let stats =
    (Tecore.Engine.resolve ~engine ~deadline:(Deadline.after ~ms:0.) graph
       rules)
      .Tecore.Engine.stats
  in
  Alcotest.(check int) "hard-sound" 0 stats.Tecore.Engine.hard_violations;
  Alcotest.(check string) "timed out, not degraded" "timed_out"
    (Deadline.status_name stats.Tecore.Engine.status)

(* Without a crash, [degraded] means that the repair left hard clauses
   violated, wherever the budget cuts the solve: before it, or in the
   middle of a component's walk. Which budgets cut where depends on the
   host; the property holds at each of them. *)
let test_engine_degraded_means_unsound () =
  let graph, rules = football ~players:300 in
  with_faults "" (fun () ->
      List.iter
        (fun use_cpi ->
          let engine =
            Tecore.Engine.Mln
              { Mln.Map_inference.default_options with use_cpi }
          in
          List.iter
            (fun ms ->
              let stats =
                (Tecore.Engine.resolve ~engine
                   ~deadline:(Deadline.after ~ms) graph rules)
                  .Tecore.Engine.stats
              in
              if stats.Tecore.Engine.status = Deadline.Degraded then
                Alcotest.(check bool)
                  (Printf.sprintf "degraded at %g ms (cpi %b) is unsound" ms
                     use_cpi)
                  true
                  (stats.Tecore.Engine.hard_violations > 0))
            [ 0.5; 1.; 2.; 4.; 8.; 16. ])
        [ true; false ])

(* A crashed portfolio task still degrades the run, budget or not: the
   answer lost a search it was owed. Twenty overlapping stints of one
   coach form a component too large for MaxWalkSAT's optimum proof
   (16 atoms) whose optimum leaves soft clauses violated, so the walk
   deals the task the fault crashes. *)
let test_engine_crash_degrades () =
  let graph =
    Kg.Graph.of_list
      (List.init 20 (fun i ->
           Kg.Quad.v "CR" "coach"
             (Kg.Term.iri (Printf.sprintf "Club%d" i))
             (2000, 2004)
             (0.5 +. (float_of_int i /. 50.))))
  in
  let _, rules = cr_graph_and_rules () in
  let engine =
    Tecore.Engine.Mln
      { Mln.Map_inference.default_options with use_cpi = false }
  in
  with_faults "worker_crash" (fun () ->
      let stats =
        (Tecore.Engine.resolve ~engine graph rules).Tecore.Engine.stats
      in
      Alcotest.(check string) "crash degrades" "degraded"
        (Deadline.status_name stats.Tecore.Engine.status))

(* Past expiry no component's solver runs, so none records a metric
   (the [walksat.*], [cpi.*], [admm.*] and [ilp.*] counters read 0):
   every component keeps its
   init, so the answer is the repaired init for MLN and the rounded
   init for nPSL (evidence confidences lie in the box already) — what the solvers returned
   when they still built their state only to hand the init back — while
   every component is still counted. *)
let test_engine_no_solver_work_past_expiry (name, engine) () =
  let graph, rules = football ~players:60 in
  let result, report =
    observed (fun () ->
        Tecore.Engine.resolve ~engine ~deadline:(Deadline.after ~ms:0.) graph
          rules)
  in
  let raw = result.Tecore.Engine.raw in
  let store = raw.Tecore.Engine.store and instances = raw.Tecore.Engine.instances in
  let expected, components =
    match engine with
    | Tecore.Engine.Mln options ->
        let network =
          Network.build ~config:options.Mln.Map_inference.network_config store
            instances
        in
        let init = Network.expanded_assignment network in
        ignore (Network.repair_hard network init);
        (init, List.length (Mln.Decompose.split network))
    | Tecore.Engine.Psl options ->
        let model = Psl.Hlmrf.build ~config:options.Psl.Npsl.config store instances in
        let init =
          Array.init (Grounder.Atom_store.size store) (fun id ->
              match Grounder.Atom_store.origin store id with
              | Grounder.Atom_store.Evidence { confidence; _ } -> confidence
              | Grounder.Atom_store.Hidden -> 0.0)
        in
        ( fst (Psl.Rounding.round ~threshold:0.5 model init),
          List.length (Psl.Decompose.split model) )
    | Tecore.Engine.Auto -> assert false
  in
  Alcotest.(check bool) (name ^ ": the init's answer") true
    (raw.Tecore.Engine.assignment = expected);
  (* A solver that ran at all records its metrics, even a zero count,
     so past expiry none of them may be recorded. *)
  let names = metric_names report in
  List.iter
    (fun prefix ->
      Alcotest.(check (list string))
        (name ^ ": no " ^ prefix ^ "* metric")
        []
        (List.filter (String.starts_with ~prefix) names))
    [ "walksat."; "cpi."; "admm."; "ilp." ];
  Alcotest.(check (float 0.)) (name ^ ": every component counted")
    (float_of_int components)
    (counter report "solve.components")

(* A deadline decides only when the solve stops, never which code runs:
   a budget that does not fire returns the unbudgeted answer, objective
   bit for bit. *)
let test_engine_unfired_budget engine () =
  let graph, rules = football ~players:300 in
  let answer ?deadline () =
    let r = Tecore.Engine.resolve ~engine ?deadline graph rules in
    let res = r.Tecore.Engine.resolution in
    ( List.map fst res.Tecore.Conflict.removed,
      Printf.sprintf "%h" r.Tecore.Engine.stats.Tecore.Engine.objective,
      List.length res.Tecore.Conflict.derived,
      Deadline.status_name r.Tecore.Engine.stats.Tecore.Engine.status )
  in
  let removed, objective, derived, status = answer () in
  let removed', objective', derived', status' =
    answer ~deadline:(Deadline.after ~ms:600_000.) ()
  in
  Alcotest.(check string) "unbudgeted completes" "completed" status;
  Alcotest.(check string) "budgeted completes" "completed" status';
  Alcotest.(check (list int)) "same removed facts" removed removed';
  Alcotest.(check string) "same objective" objective objective';
  Alcotest.(check int) "same derived count" derived derived'

(* A grounding timeout with a state present bypasses the state: the
   next unbudgeted resolve on it still equals a fresh one. *)
let test_engine_ground_timeout_keeps_state () =
  let graph, rules = cr_graph_and_rules () in
  let module E = Tecore.Engine in
  let state = E.create_state () in
  let incremental ?deadline ?on_timeout ?delta () =
    E.resolve ?deadline ?on_timeout ~mode:`Incremental ~state ?delta graph
      rules
  in
  ignore (incremental ());
  (match
     incremental ~deadline:(Deadline.after ~ms:0.) ~on_timeout:`Fail ()
   with
  | _ -> Alcotest.fail "expected Ground_timed_out"
  | exception E.Ground_timed_out _ -> ());
  Alcotest.(check bool) "timeout recorded as a bypass" true
    (E.last_outcome state = Some E.Bypass);
  let answer (r : E.result) =
    let raw = r.E.raw in
    let store = ref [] in
    Grounder.Atom_store.iter
      (fun id atom _ ->
        store := (id, Format.asprintf "%a" Logic.Atom.Ground.pp atom) :: !store)
      raw.E.store;
    ( List.map fst r.E.resolution.Tecore.Conflict.removed,
      r.E.resolution.Tecore.Conflict.kept,
      r.E.stats.E.objective,
      !store,
      List.map
        (Format.asprintf "%a" (Instance_view.pp raw.E.store))
        (Instance_view.of_instances raw.E.instances),
      raw.E.assignment )
  in
  let next = incremental ~delta:{ E.facts = []; rules_changed = false } () in
  Alcotest.(check bool) "next resolve equals a fresh one" true
    (answer next = answer (E.resolve graph rules))

let test_session_resolve_maps_ground_timeout () =
  let session = Tecore.Session.create () in
  let graph, rules = cr_graph_and_rules () in
  ignore rules;
  Tecore.Session.load_graph session graph;
  (match
     Tecore.Session.add_rules session
       {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .|}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Tecore.Session.resolve
      ~deadline:(Deadline.after ~ms:0.)
      ~on_timeout:`Fail session
  with
  | Error (Tecore.Session.Ground_timeout _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Tecore.Session.error_message e)
  | Ok _ -> Alcotest.fail "expected Ground_timeout"

(* ------------------------------------------------------------------ *)
(* Session error paths (satellite: actionable IO/parse errors).        *)

let contains ~needle haystack =
  let nn = String.length needle and nh = String.length haystack in
  nn = 0
  ||
  let rec at i =
    i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1))
  in
  at 0

let test_session_io_error_names_path () =
  let session = Tecore.Session.create () in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "tecore-no-such-file.tq" in
  match Tecore.Session.load session path with
  | Ok () -> Alcotest.fail "loaded a missing file"
  | Error (Tecore.Session.Io_error msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the path" msg)
        true (contains ~needle:path msg)
  | Error e -> Alcotest.failf "wrong error: %s" (Tecore.Session.error_message e)

let test_session_parse_error_locates () =
  let path = Filename.temp_file "tecore-malformed" ".tq" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "ex:a ex:p ex:b [1,2] .\nex:a ex:p \"broken [1,2] .\n";
      close_out oc;
      let session = Tecore.Session.create () in
      match Tecore.Session.load session path with
      | Ok () -> Alcotest.fail "accepted malformed file"
      | Error (Tecore.Session.Parse_error msg) ->
          (* Compiler-style path:line:column prefix. *)
          Alcotest.(check bool)
            (Printf.sprintf "%S locates the failure" msg)
            true
            (contains ~needle:(path ^ ":2:11") msg)
      | Error e ->
          Alcotest.failf "wrong error: %s" (Tecore.Session.error_message e))

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)

(* Same generator family as test_pool's determinism property. *)
let random_network rng =
  let num_atoms = 2 + Prelude.Prng.int rng 6 in
  let num_clauses = 3 + Prelude.Prng.int rng 10 in
  let clauses =
    Array.init num_clauses (fun i ->
        let len = 1 + Prelude.Prng.int rng 3 in
        let literals =
          Array.init len (fun _ ->
              (Prelude.Prng.int rng num_atoms, Prelude.Prng.bool rng))
        in
        ( Array.to_list literals,
          (if Prelude.Prng.bernoulli rng 0.2 then None
           else Some (0.5 +. Prelude.Prng.float rng 3.0)),
          Printf.sprintf "c%d" i ))
  in
  Network.of_clauses ~num_atoms (Array.to_list clauses)

(* (a) Without a deadline the anytime plumbing is invisible: passing
   [Deadline.none] explicitly is bitwise-identical to not passing one. *)
let no_deadline_identity_property =
  QCheck.Test.make ~count:30
    ~name:"deadline: none is invisible"
    QCheck.(pair small_int small_int)
    (fun (net_seed, solve_seed) ->
      let network = random_network (Prelude.Prng.create net_seed) in
      let solve ?deadline () =
        Mln.Maxwalksat.solve ~seed:solve_seed ~max_flips:2_000 ~restarts:3
          ?deadline network
      in
      let a0, s0 = solve () in
      let a1, s1 = solve ~deadline:Deadline.none () in
      a1 = a0 && s1 = s0 && s0.Mln.Maxwalksat.status = Deadline.Completed)

(* (b) An already-expired deadline still returns a full, honestly
   tagged assignment immediately. *)
let expired_deadline_property =
  QCheck.Test.make ~count:50 ~name:"deadline: expired budget stays sound"
    QCheck.(pair small_int small_int)
    (fun (net_seed, solve_seed) ->
      let network = random_network (Prelude.Prng.create net_seed) in
      let assignment, stats =
        Mln.Maxwalksat.solve ~seed:solve_seed
          ~deadline:(Deadline.after ~ms:0.) network
      in
      Array.length assignment = network.Network.num_atoms
      && stats.Mln.Maxwalksat.status <> Deadline.Completed
      && stats.Mln.Maxwalksat.hard_violated
         = Network.hard_violations network assignment
      && (stats.Mln.Maxwalksat.status <> Deadline.Timed_out
          || stats.Mln.Maxwalksat.hard_violated = 0))

(* (c) An injected worker crash never loses the best-so-far: the
   surviving descents still include task 0, so the portfolio result is
   never worse than task 0 alone. *)
let crash_keeps_best_property =
  QCheck.Test.make ~count:30 ~name:"faults: worker crash keeps best-so-far"
    QCheck.(pair small_int small_int)
    (fun (net_seed, solve_seed) ->
      let network = random_network (Prelude.Prng.create net_seed) in
      (* Plant contradictory soft unit clauses so no descent reaches
         cost (0,0), in a network of 17 atoms so the walk proves no
         optimum either: the optimum stop would otherwise skip the
         crashing task and the fault would never fire. *)
      let contradiction positive = ([ (16, positive) ], Some 1.0, "pin") in
      let network =
        Network.append network
          (Network.of_clauses ~num_atoms:17
             [ contradiction true; contradiction false ])
      in
      let cost (s : Mln.Maxwalksat.stats) =
        (s.Mln.Maxwalksat.hard_violated, s.Mln.Maxwalksat.soft_cost)
      in
      let _, solo =
        Mln.Maxwalksat.solve ~seed:solve_seed ~max_flips:2_000 ~restarts:1
          network
      in
      with_faults "worker_crash" (fun () ->
          let _, faulted =
            Mln.Maxwalksat.solve ~seed:solve_seed ~max_flips:2_000
              ~restarts:4 network
          in
          faulted.Mln.Maxwalksat.status = Deadline.Degraded
          && cost faulted <= cost solo))

let () =
  Alcotest.run "deadline"
    [
      ( "budget",
        [
          Alcotest.test_case "none never expires" `Quick test_none_never_expires;
          Alcotest.test_case "after expires" `Quick test_after_expires;
          Alcotest.test_case "of_timeout_ms" `Quick test_of_timeout_ms;
          Alcotest.test_case "slice" `Quick test_slice;
          Alcotest.test_case "status lattice" `Quick test_status_lattice;
          Alcotest.test_case "pp_status" `Quick test_pp_status;
          Alcotest.test_case "env_timeout_ms" `Quick test_env_timeout_ms;
        ] );
      ( "faults",
        [ Alcotest.test_case "configure/trip/inject" `Quick test_faults_configure ] );
      ( "pool",
        [
          Alcotest.test_case "map_results contains crashes" `Quick
            test_map_results_contains_crashes;
          Alcotest.test_case "map_results skips after expiry" `Quick
            test_map_results_skips_after_expiry;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "walksat expired deadline" `Quick
            test_walksat_expired_deadline;
          Alcotest.test_case "walksat crash keeps best" `Quick
            test_walksat_crash_keeps_best;
          Alcotest.test_case "samplers expired deadline" `Quick
            test_samplers_expired_deadline;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fail policy rejects grounding timeout" `Quick
            test_engine_fail_policy_rejects_grounding;
          Alcotest.test_case "best-effort survives expiry" `Quick
            (test_engine_best_effort_survives_expiry ~components:1
               (cr_graph_and_rules ()));
        ]
        @ List.map
            (fun (name, engine) ->
              Alcotest.test_case
                ("best-effort survives expiry, FootballDB (" ^ name ^ ")")
                `Quick
                (test_engine_best_effort_survives_expiry ~engine
                   ~components:10 (football ~players:60)))
            engines
        @ List.map
            (fun (name, engine) ->
              Alcotest.test_case
                ("a budget that never fires changes nothing (" ^ name ^ ")")
                `Quick
                (test_engine_unfired_budget engine))
            engines
        @ List.map
            (fun ((name, _) as engine) ->
              Alcotest.test_case
                ("no solver work past expiry (" ^ name ^ ")")
                `Quick
                (test_engine_no_solver_work_past_expiry engine))
            engines
        @ [
          Alcotest.test_case "a repaired expired walk reads timed_out" `Quick
            test_engine_repaired_expiry_times_out;
          Alcotest.test_case "degraded means unsound" `Quick
            test_engine_degraded_means_unsound;
          Alcotest.test_case "a crashed task degrades the run" `Quick
            test_engine_crash_degrades;
          Alcotest.test_case "ground timeout with a state bypasses it" `Quick
            test_engine_ground_timeout_keeps_state;
          Alcotest.test_case "session maps ground timeout" `Quick
            test_session_resolve_maps_ground_timeout;
        ] );
      ( "session errors",
        [
          Alcotest.test_case "io error names path" `Quick
            test_session_io_error_names_path;
          Alcotest.test_case "parse error locates" `Quick
            test_session_parse_error_locates;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            no_deadline_identity_property;
            expired_deadline_property;
            crash_keeps_best_property;
          ] );
    ]
