(* Tests for the domain work pool: ordering, failure propagation,
   nesting rules, what the stats record, and the determinism contract —
   a parallel grounding, the pool's one user, must reproduce the
   sequential one, and a resolve gives the pool grounding work only. *)

module Pool = Prelude.Pool

(* A list map over the pool's array combinator. *)
let map pool f xs = Array.to_list (Pool.map_array pool f (Array.of_list xs))

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

let test_stats () =
  let pool = Pool.create ~jobs:4 in
  ignore (map pool Fun.id (List.init 10 Fun.id));
  ignore (map pool Fun.id [ 0; 1 ]);
  let s = Pool.stats pool in
  Alcotest.(check int) "calls" 2 s.Pool.calls;
  Alcotest.(check int) "tasks" 12 s.Pool.tasks;
  Alcotest.(check bool) "wall measured" true (s.Pool.wall_ms >= 0.0)

(* A one-task operation runs on the caller and deals nothing to a
   worker, so it is no pool call. *)
let test_one_task_not_recorded () =
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check (list int)) "result" [ 7 ] (map pool (fun x -> x + 1) [ 6 ]);
  ignore (Pool.map_results pool Fun.id [ 1 ]);
  let s = Pool.stats pool in
  Alcotest.(check (pair int int)) "calls and tasks" (0, 0)
    (s.Pool.calls, s.Pool.tasks);
  Alcotest.(check bool) "no time" true
    (s.Pool.busy_ms = 0.0 && s.Pool.wall_ms = 0.0)

(* [release] joins the crew: the next batch spawns it again, and from
   inside a task it leaves the crew (and the batch) alone. *)
let test_release () =
  let pool = Pool.create ~jobs:3 in
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int)) "before" xs (map pool Fun.id xs);
  Pool.release ();
  Alcotest.(check (list int)) "respawned" xs (map pool Fun.id xs);
  Alcotest.(check (list int)) "released inside tasks" xs
    (map pool
       (fun x ->
         Pool.release ();
         x)
       xs);
  Pool.release ();
  Pool.release ();
  Alcotest.(check (list int)) "after a double release" xs (map pool Fun.id xs)

(* A one-job pool is a plain loop: tasks in order, and nothing
   recorded. *)
let test_one_job_plain_loop () =
  let pool = Pool.create ~jobs:1 in
  let seen = ref [] in
  ignore (map pool (fun i -> seen := i :: !seen) (List.init 10 Fun.id));
  Alcotest.(check (list int)) "in order" (List.init 10 Fun.id) (List.rev !seen);
  ignore (Pool.map_results pool Fun.id [ 1 ]);
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

let test_engine_jobs_identical () =
  let graph, rules = ground_fixture () in
  (* The removals, and the MAP objective bit for bit. *)
  let removed jobs engine =
    let result = Tecore.Engine.resolve ~engine ~jobs graph rules in
    ( List.map
        (fun (_, q) -> Kg.Quad.to_string q)
        result.Tecore.Engine.resolution.Tecore.Conflict.removed,
      Printf.sprintf "%h" result.Tecore.Engine.stats.Tecore.Engine.objective )
  in
  List.iter
    (fun (name, engine) ->
      Alcotest.(check (pair (list string) string))
        (name ^ " removals and objective at jobs=4")
        (removed 1 engine) (removed 4 engine))
    [
      ("mln", Tecore.Engine.Mln Mln.Map_inference.default_options);
      ("psl", Tecore.Engine.Psl Psl.Npsl.default_options);
    ]

(* Only the grounding joins use a resolve's pool: whichever engine
   solves, the report counts exactly the calls and tasks that the same
   grounding deals to a pool of its own. 4,000 players make joins large
   enough to partition, so the grounding deals tasks to the workers. *)
let test_resolve_pool_is_grounding_only () =
  let d =
    Datagen.Footballdb.generate ~seed:1 ~players:4000 ~noise_ratio:0.5 ()
  in
  let graph = d.Datagen.Footballdb.graph in
  let rules = Datagen.Footballdb.constraints () in
  let grounding =
    let pool = Pool.create ~jobs:2 in
    ignore
      (Grounder.Ground.run ~pool ~lazy_constraints:true
         (Grounder.Atom_store.of_graph graph)
         rules);
    let s = Pool.stats pool in
    (s.Pool.calls, s.Pool.tasks)
  in
  let resolve engine =
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        ignore (Tecore.Engine.resolve ~engine ~jobs:2 graph rules);
        let counters =
          match Obs.Report.find (Obs.Report.capture ()) [ "resolve" ] with
          | Some node -> node.Obs.Report.counters
          | None -> Alcotest.fail "no resolve span"
        in
        let count name =
          int_of_float (Option.value (List.assoc_opt name counters) ~default:0.)
        in
        (count "pool.calls", count "pool.tasks"))
  in
  Alcotest.(check bool) "grounding uses the pool" true (fst grounding > 0);
  List.iter
    (fun (name, engine) ->
      Alcotest.(check (pair int int))
        (name ^ ": pool calls and tasks")
        grounding (resolve engine))
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
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "one task: not a pool call" `Quick
            test_one_task_not_recorded;
          Alcotest.test_case "one job: plain loop" `Quick
            test_one_job_plain_loop;
          Alcotest.test_case "release" `Quick test_release;
          Alcotest.test_case "create and parse_jobs" `Quick
            test_create_and_parse;
          Alcotest.test_case "default_jobs" `Quick test_default_jobs;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest grounding_jobs_property;
          Alcotest.test_case "engine removals identical" `Quick
            test_engine_jobs_identical;
          Alcotest.test_case "a resolve deals only grounding to the pool"
            `Quick test_resolve_pool_is_grounding_only;
        ] );
    ]
