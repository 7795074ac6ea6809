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
    (Deadline.budget_ms Deadline.none = infinity);
  (* Cancelling the shared [none] must stay a no-op. *)
  Deadline.cancel Deadline.none;
  Alcotest.(check bool) "cancel is a no-op" false
    (Deadline.expired Deadline.none)

let test_after_expires () =
  let d = Deadline.after ~ms:0. in
  Alcotest.(check bool) "finite" true (Deadline.is_finite d);
  Alcotest.(check bool) "already expired" true (Deadline.expired d);
  let d = Deadline.after ~ms:60_000. in
  Alcotest.(check bool) "fresh budget live" false (Deadline.expired d);
  Alcotest.(check bool) "remaining positive" true (Deadline.remaining_ms d > 0.);
  Deadline.cancel d;
  Alcotest.(check bool) "cancelled" true (Deadline.expired d)

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
    (Deadline.remaining_ms slice <= Deadline.remaining_ms parent);
  (* Cancellation flows parent -> slice. *)
  Deadline.cancel parent;
  Alcotest.(check bool) "parent cancel expires slice" true
    (Deadline.expired slice)

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
      List.iter
        (fun pool ->
          let faulted =
            Mln.Maxwalksat.solve ~seed:7 ~restarts:4 ~pool network
          in
          Alcotest.(check bool) "crash reported as degraded" true
            ((snd faulted).Mln.Maxwalksat.status = Deadline.Degraded);
          (* Task 1 crashed, but tasks 0/2/3 ran: never worse than task 0
             alone. *)
          Alcotest.(check bool) "best-so-far kept" true
            (cost faulted <= cost solo))
        [ Pool.sequential; Pool.create ~jobs:4 ])

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

let test_engine_best_effort_survives_expiry () =
  let graph, rules = cr_graph_and_rules () in
  let result =
    Tecore.Engine.resolve ~deadline:(Deadline.after ~ms:0.) graph rules
  in
  Alcotest.(check bool) "status reported" true
    (result.Tecore.Engine.stats.Tecore.Engine.status <> Deadline.Completed);
  (* The anytime resolution still resolves the CR conflict machinery:
     kept + removed covers the whole input graph. *)
  let r = result.Tecore.Engine.resolution in
  Alcotest.(check int) "facts accounted for" (Kg.Graph.size graph)
    (r.Tecore.Conflict.kept + List.length r.Tecore.Conflict.removed)

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
        (Format.asprintf "%a" (Grounder.Ground.Instance.pp raw.E.store))
        raw.E.instances,
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
              {
                Network.atom = Prelude.Prng.int rng num_atoms;
                positive = Prelude.Prng.bool rng;
              })
        in
        {
          Network.literals;
          weight =
            (if Prelude.Prng.bernoulli rng 0.2 then None
             else Some (0.5 +. Prelude.Prng.float rng 3.0));
          source = Printf.sprintf "c%d" i;
        })
  in
  { Network.num_atoms; clauses }

(* (a) Without a deadline the anytime plumbing is invisible: passing
   [Deadline.none] explicitly is bitwise-identical to not passing one,
   at every job count. *)
let no_deadline_identity_property =
  QCheck.Test.make ~count:30
    ~name:"deadline: none is invisible at every job count"
    QCheck.(pair small_int small_int)
    (fun (net_seed, solve_seed) ->
      let network = random_network (Prelude.Prng.create net_seed) in
      let solve ?deadline pool =
        Mln.Maxwalksat.solve ~seed:solve_seed ~max_flips:2_000 ~restarts:3
          ~portfolio:[ 11 ] ~pool ?deadline network
      in
      let a0, s0 = solve Pool.sequential in
      (* Sequentially the whole stats record is bitwise-identical; at
         jobs=4 flip totals depend on scheduling (as before this
         mechanism existed), so the determinism contract covers the
         assignment, the costs and the status. *)
      let a1, s1 = solve ~deadline:Deadline.none Pool.sequential in
      let a4, s4 = solve ~deadline:Deadline.none (Pool.create ~jobs:4) in
      a1 = a0 && s1 = s0
      && a4 = a0
      && s4.Mln.Maxwalksat.hard_violated = s0.Mln.Maxwalksat.hard_violated
      && s4.Mln.Maxwalksat.soft_cost = s0.Mln.Maxwalksat.soft_cost
      && s0.Mln.Maxwalksat.status = Deadline.Completed
      && s4.Mln.Maxwalksat.status = Deadline.Completed)

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
   never worse than task 0 alone — at any job count. *)
let crash_keeps_best_property =
  QCheck.Test.make ~count:30 ~name:"faults: worker crash keeps best-so-far"
    QCheck.(pair small_int small_int)
    (fun (net_seed, solve_seed) ->
      let network = random_network (Prelude.Prng.create net_seed) in
      (* Plant contradictory soft unit clauses so no descent reaches
         cost (0,0), in a network of 17 atoms so the walk proves no
         optimum either: the optimum stop would otherwise skip the
         crashing task and the fault would never fire. *)
      let contradiction positive =
        {
          Network.literals = [| { Network.atom = 16; positive } |];
          weight = Some 1.0;
          source = "pin";
        }
      in
      let network =
        {
          Network.num_atoms = 17;
          Network.clauses =
            Array.append network.Network.clauses
              [| contradiction true; contradiction false |];
        }
      in
      let cost (s : Mln.Maxwalksat.stats) =
        (s.Mln.Maxwalksat.hard_violated, s.Mln.Maxwalksat.soft_cost)
      in
      let _, solo =
        Mln.Maxwalksat.solve ~seed:solve_seed ~max_flips:2_000 ~restarts:1
          network
      in
      with_faults "worker_crash" (fun () ->
          List.for_all
            (fun pool ->
              let _, faulted =
                Mln.Maxwalksat.solve ~seed:solve_seed ~max_flips:2_000
                  ~restarts:4 ~pool network
              in
              faulted.Mln.Maxwalksat.status = Deadline.Degraded
              && cost faulted <= cost solo)
            [ Pool.sequential; Pool.create ~jobs:4 ]))

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
            test_engine_best_effort_survives_expiry;
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
