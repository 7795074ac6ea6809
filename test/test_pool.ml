(* Tests for the domain work pool: ordering, failure propagation,
   nesting rules, and the determinism contract — parallel runs of the
   grounding and the solvers must reproduce the sequential results. *)

module Pool = Prelude.Pool
module Network = Mln.Network

(* A list map over the pool's array combinator. *)
let map pool f xs = Array.to_list (Pool.map_array pool f (Array.of_list xs))

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

(* ------------------------------------------------------------------ *)
(* Pool combinators.                                                   *)

let test_map_order () =
  let pool = Pool.create ~jobs:4 in
  let xs = List.init 200 Fun.id in
  Alcotest.(check (list int))
    "input order" (List.map (fun x -> x * x) xs)
    (map pool (fun x -> x * x) xs);
  Alcotest.(check (list int))
    "sequential agrees"
    (map Pool.sequential (fun x -> x * x) xs)
    (map pool (fun x -> x * x) xs)

let test_map_array () =
  let pool = Pool.create ~jobs:3 in
  let xs = Array.init 50 string_of_int in
  Alcotest.(check (array string)) "array order" xs
    (Pool.map_array pool Fun.id xs)

let test_exception_propagation () =
  let pool = Pool.create ~jobs:4 in
  Alcotest.check_raises "task failure re-raised" (Failure "boom") (fun () ->
      ignore
        (map pool
           (fun x -> if x = 17 then failwith "boom" else x)
           (List.init 64 Fun.id)));
  (* The pool stays usable after a failed operation. *)
  Alcotest.(check (list int)) "pool recovers" [ 0; 1; 2 ]
    (map pool Fun.id [ 0; 1; 2 ])

let test_nested_use_rejected () =
  let pool = Pool.create ~jobs:2 in
  Alcotest.check_raises "nested submit" Pool.Nested_use (fun () ->
      ignore
        (map pool
           (fun _ -> List.length (map pool Fun.id [ 1; 2; 3 ]))
           [ 1; 2; 3; 4 ]))

let test_sequential_nesting_allowed () =
  (* jobs = 1 pools are plain loops and may nest freely. *)
  let total =
    map Pool.sequential
      (fun x ->
        List.fold_left ( + ) 0 (map Pool.sequential (fun y -> x * y) [ 1; 2 ]))
      [ 1; 2; 3 ]
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "nested sequential" 18 total

let test_cross_pool_nesting_degrades () =
  (* Submitting to a different pool from inside a task falls back to a
     sequential loop instead of deadlocking. *)
  let outer = Pool.create ~jobs:2 in
  let inner = Pool.create ~jobs:2 in
  let results =
    map outer
      (fun x ->
        List.fold_left ( + ) 0 (map inner (fun y -> x + y) [ 1; 2; 3 ]))
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list int)) "cross-pool results"
    (List.init 8 (fun x -> (3 * x) + 6))
    results

let test_concurrent_cross_pool_nesting () =
  (* Both tasks of an outer batch enter the same inner pool at once:
     each must degrade to the sequential loop, neither may see
     [Nested_use]. The outer tasks wait for each other before entering,
     and the first inner task waits for the other outer task's, so the
     two degraded loops overlap on every run. [failed] releases the
     spinning task when the other one raised instead. *)
  let outer = Pool.create ~jobs:2 in
  let inner = Pool.create ~jobs:2 in
  let arrived = Atomic.make 0 in
  let entered = Atomic.make 0 in
  let failed = Atomic.make false in
  let results =
    map outer
      (fun x ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do
          Domain.cpu_relax ()
        done;
        try
          map inner
            (fun y ->
              Atomic.incr entered;
              while Atomic.get entered < 2 && not (Atomic.get failed) do
                Domain.cpu_relax ()
              done;
              x + y)
            [ 1; 2 ]
        with e ->
          Atomic.set failed true;
          raise e)
      [ 10; 20 ]
  in
  Alcotest.(check (list (list int))) "both degraded loops ran"
    [ [ 11; 12 ]; [ 21; 22 ] ] results

let test_for_chunked_sum () =
  (* Per-chunk partial sums reduce identically at any job count because
     chunk boundaries only depend on [chunk] and [n]. *)
  let n = 10_000 and chunk = 64 in
  let nchunks = (n + chunk - 1) / chunk in
  let sum_with jobs =
    let pool = Pool.create ~jobs in
    let parts = Array.make nchunks 0.0 in
    Pool.for_ pool ~chunk n (fun i ->
        parts.(i / chunk) <- parts.(i / chunk) +. (1.0 /. float_of_int (i + 1)));
    Array.fold_left ( +. ) 0.0 parts
  in
  let s1 = sum_with 1 and s4 = sum_with 4 in
  Alcotest.(check bool)
    (Printf.sprintf "bitwise equal sums (%.17g vs %.17g)" s1 s4)
    true (Int64.equal (Int64.bits_of_float s1) (Int64.bits_of_float s4))

let test_stats () =
  let pool = Pool.create ~jobs:4 in
  ignore (map pool Fun.id (List.init 10 Fun.id));
  Pool.for_ pool ~chunk:1 2 ignore;
  let s = Pool.stats pool in
  Alcotest.(check int) "calls" 2 s.Pool.calls;
  Alcotest.(check int) "tasks" 12 s.Pool.tasks;
  Alcotest.(check bool) "wall measured" true (s.Pool.wall_ms >= 0.0)

(* A one-job pool is a plain loop: indices in order, across chunk
   boundaries, and nothing recorded. *)
let test_one_job_plain_loop () =
  let pool = Pool.create ~jobs:1 in
  let seen = ref [] in
  Pool.for_ pool ~chunk:3 10 (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "in order" (List.init 10 Fun.id) (List.rev !seen);
  ignore (map pool Fun.id [ 1; 2; 3 ]);
  Pool.for_ pool ~chunk:1 1 ignore;
  let s = Pool.stats pool in
  Alcotest.(check int) "calls" 0 s.Pool.calls;
  Alcotest.(check int) "tasks" 0 s.Pool.tasks;
  Alcotest.(check bool) "no time" true
    (s.Pool.busy_ms = 0.0 && s.Pool.wall_ms = 0.0)

let test_create_and_parse () =
  Alcotest.(check int) "jobs resolved" 3 (Pool.jobs (Pool.create ~jobs:3));
  Alcotest.(check int) "jobs 0 = recommended"
    (Pool.recommended_jobs ())
    (Pool.jobs (Pool.create ~jobs:0));
  Alcotest.check_raises "negative jobs"
    (Invalid_argument "Pool.create: jobs < 0") (fun () ->
      ignore (Pool.create ~jobs:(-1)));
  Alcotest.(check (option int)) "parse 4" (Some 4) (Pool.parse_jobs (Some "4"));
  Alcotest.(check (option int)) "parse 0"
    (Some (Pool.recommended_jobs ()))
    (Pool.parse_jobs (Some "0"));
  Alcotest.(check (option int)) "parse junk" None (Pool.parse_jobs (Some "x"));
  Alcotest.(check (option int)) "parse negative" None
    (Pool.parse_jobs (Some "-2"));
  Alcotest.(check (option int)) "parse absent" None (Pool.parse_jobs None)

(* [TECORE_JOBS] read through [parse_jobs]; unset or unparsable is 1. *)
let test_default_jobs () =
  let var = "TECORE_JOBS" in
  let saved = Sys.getenv_opt var in
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value saved ~default:""))
    (fun () ->
      List.iter
        (fun (value, expect) ->
          Unix.putenv var value;
          Alcotest.(check int) (Printf.sprintf "%S" value) expect
            (Pool.default_jobs ()))
        [
          ("3", 3);
          ("0", Pool.recommended_jobs ());
          ("", 1);
          ("many", 1);
          ("-4", 1);
        ])

(* ------------------------------------------------------------------ *)
(* Determinism across job counts.                                      *)

(* Same generator family as test_mln's solver-agreement property. *)
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

let walksat_jobs_property =
  QCheck.Test.make ~count:40
    ~name:"maxwalksat: jobs=4 equals jobs=1 (assignment and costs)"
    QCheck.(pair small_int small_int)
    (fun (net_seed, solve_seed) ->
      let network = random_network (Prelude.Prng.create net_seed) in
      let solve pool =
        Mln.Maxwalksat.solve ~seed:solve_seed ~max_flips:2_000 ~restarts:4
          ~portfolio:[ 11; 23 ] ~pool network
      in
      let a1, s1 = solve Pool.sequential in
      let a4, s4 = solve (Pool.create ~jobs:4) in
      a1 = a4
      && s1.Mln.Maxwalksat.hard_violated = s4.Mln.Maxwalksat.hard_violated
      && s1.Mln.Maxwalksat.soft_cost = s4.Mln.Maxwalksat.soft_cost)

let ground_fixture () =
  let d = Datagen.Footballdb.generate ~seed:21 ~players:40 ~noise_ratio:0.5 () in
  (d.Datagen.Footballdb.graph, Datagen.Footballdb.constraints ())

let grounding_jobs_property =
  QCheck.Test.make ~count:10 ~name:"grounding: jobs=4 equals jobs=1"
    QCheck.small_int
    (fun seed ->
      let d =
        Datagen.Footballdb.generate ~seed ~players:25 ~noise_ratio:0.5 ()
      in
      let rules = Datagen.Footballdb.constraints () in
      let ground pool =
        let store = Grounder.Atom_store.of_graph d.Datagen.Footballdb.graph in
        let result = Grounder.Ground.run ~pool store rules in
        ( Grounder.Atom_store.size store,
          Instance_view.hidden store,
          List.map
            (Format.asprintf "%a" (Instance_view.pp store))
            (Instance_view.of_result result) )
      in
      ground Pool.sequential = ground (Pool.create ~jobs:4))

let test_admm_jobs_identical () =
  let graph, rules = ground_fixture () in
  let solve jobs =
    let store = Grounder.Atom_store.of_graph graph in
    let ground = Grounder.Ground.run store rules in
    let model = Psl.Hlmrf.build store ground.Grounder.Ground.instances in
    let truth, stats =
      Psl.Admm.solve ~max_iters:300 ~pool:(Pool.create ~jobs) model
    in
    (truth, stats.Psl.Admm.iterations, stats.Psl.Admm.objective)
  in
  let t1, i1, o1 = solve 1 in
  let t4, i4, o4 = solve 4 in
  Alcotest.(check int) "same iterations" i1 i4;
  Alcotest.(check bool) "same objective" true (o1 = o4);
  Alcotest.(check bool) "bitwise identical truth" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       t1 t4)

let test_samplers_jobs_identical () =
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
  let network = Network.build store ground.Grounder.Ground.instances in
  let gibbs jobs =
    (Mln.Gibbs.run ~seed:3 ~burn_in:50 ~samples:400 ~chains:3
       ~pool:(Pool.create ~jobs) network)
      .Mln.Gibbs.marginals
  in
  Alcotest.(check bool) "gibbs chains merge identically" true
    (gibbs 1 = gibbs 4);
  let mcsat jobs =
    (Mln.Mcsat.run ~seed:3 ~burn_in:20 ~samples:150 ~chains:3
       ~pool:(Pool.create ~jobs) network)
      .Mln.Mcsat.marginals
  in
  Alcotest.(check bool) "mcsat chains merge identically" true
    (mcsat 1 = mcsat 4)

let test_engine_jobs_identical () =
  let graph, rules = ground_fixture () in
  let removed jobs engine =
    let result = Tecore.Engine.resolve ~engine ~jobs graph rules in
    List.map
      (fun (_, q) -> Kg.Quad.to_string q)
      result.Tecore.Engine.resolution.Tecore.Conflict.removed
  in
  List.iter
    (fun (name, engine) ->
      Alcotest.(check (list string))
        (name ^ " removals at jobs=4")
        (removed 1 engine) (removed 4 engine))
    [
      ("mln", Tecore.Engine.Mln Mln.Map_inference.default_options);
      ("psl", Tecore.Engine.Psl Psl.Npsl.default_options);
    ]

let () =
  Alcotest.run "pool"
    [
      ( "combinators",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "map_array" `Quick test_map_array;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested use rejected" `Quick
            test_nested_use_rejected;
          Alcotest.test_case "sequential nesting allowed" `Quick
            test_sequential_nesting_allowed;
          Alcotest.test_case "cross-pool nesting degrades" `Quick
            test_cross_pool_nesting_degrades;
          Alcotest.test_case "concurrent cross-pool nesting" `Quick
            test_concurrent_cross_pool_nesting;
          Alcotest.test_case "chunked for_ sums bitwise" `Quick
            test_for_chunked_sum;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "one job: plain loop" `Quick
            test_one_job_plain_loop;
          Alcotest.test_case "create and parse_jobs" `Quick
            test_create_and_parse;
          Alcotest.test_case "default_jobs" `Quick test_default_jobs;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest walksat_jobs_property;
          QCheck_alcotest.to_alcotest grounding_jobs_property;
          Alcotest.test_case "admm bitwise identical" `Quick
            test_admm_jobs_identical;
          Alcotest.test_case "sampler chains identical" `Quick
            test_samplers_jobs_identical;
          Alcotest.test_case "engine removals identical" `Quick
            test_engine_jobs_identical;
        ] );
    ]
