(* The solution-cache contract of the shared per-component solve, checked
   once against [Components] with synthetic components: component [i]
   is variable [i] alone, its key a fresh copy of its init slice and
   its solution that slice plus 100. *)

module Deadline = Prelude.Deadline

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* Solves [components] through [cache]; returns the assignment and the
   components actually solved, in order. *)
let run ?cache ?(status = fun _ -> Deadline.Completed) ~init components =
  let solved = ref [] in
  let out, _, _ =
    Components.solve ?cache
      ~vars:(fun i -> [| i |])
      ~key:(fun _ ~init -> Array.copy init)
      ~solve_component:(fun i ~init ->
        solved := i :: !solved;
        (Array.map (fun v -> v + 100) init, status i))
      ~status:snd ~values:fst
      ~merge:(fun () _ -> ())
      ~acc:() ~init components
  in
  (out, List.rev !solved)

let check_stats msg (entries, hits, misses) cache =
  let s = Components.cache_stats cache in
  Alcotest.(check (list int))
    msg [ entries; hits; misses ]
    [ s.Components.entries; s.Components.hits; s.Components.misses ]

let test_structural_hits () =
  let cache = Components.create_cache () in
  (* Components 0 and 1 have structurally equal (physically distinct)
     keys; 2 differs. *)
  let out, solved = run ~cache ~init:[| 7; 7; 8 |] [ 0; 1; 2 ] in
  Alcotest.(check (array int)) "scattered" [| 107; 107; 108 |] out;
  Alcotest.(check (list int)) "1 reuses 0" [ 0; 2 ] solved;
  check_stats "entries, hits, misses" (2, 1, 2) cache;
  let _, solved = run ~cache ~init:[| 8; 9 |] [ 0; 1 ] in
  Alcotest.(check (list int)) "only the new key solves" [ 1 ] solved;
  check_stats "cumulative" (3, 2, 3) cache;
  Components.clear_cache cache;
  check_stats "cleared" (0, 0, 0) cache

let test_only_completed_stored () =
  let cache = Components.create_cache () in
  let status = function
    | 0 -> Deadline.Timed_out
    | 1 -> Deadline.Degraded
    | _ -> Deadline.Completed
  in
  let init = [| 0; 1; 2 |] in
  let _, solved = run ~cache ~status ~init [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "first run solves all" [ 0; 1; 2 ] solved;
  check_stats "only the completed solve is stored" (1, 0, 3) cache;
  let _, solved = run ~cache ~status ~init [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "cut-short solves rerun" [ 0; 1 ] solved;
  check_stats "second run" (1, 1, 5) cache

let test_entry_bound () =
  let cache = Components.create_cache () in
  let init = Array.init 65_537 Fun.id in
  ignore (run ~cache ~init (List.init 65_536 Fun.id));
  check_stats "full table" (65_536, 0, 65_536) cache;
  ignore (run ~cache ~init [ 65_536 ]);
  check_stats "reset, then one insert" (1, 0, 65_537) cache

let test_obs_counters () =
  let counters ?cache () =
    with_obs (fun () ->
        ignore (run ?cache ~init:[| 7; 7; 8 |] [ 0; 1; 2 ]);
        let r = Obs.Report.capture () in
        List.map
          (fun name -> List.assoc name r.Obs.Report.counters)
          [ "solve.components"; "solve.cache_hits"; "solve.cache_misses" ])
  in
  Alcotest.(check (list (float 0.)))
    "without a cache every solve misses" [ 3.; 0.; 3. ] (counters ());
  Alcotest.(check (list (float 0.)))
    "with a cache" [ 3.; 1.; 2. ]
    (counters ~cache:(Components.create_cache ()) ())

let () =
  Alcotest.run "components"
    [
      ( "cache",
        [
          Alcotest.test_case "hits need structurally equal keys" `Quick
            test_structural_hits;
          Alcotest.test_case "only Completed solves are stored" `Quick
            test_only_completed_stored;
          Alcotest.test_case "65,536-entry reset" `Quick test_entry_bound;
          Alcotest.test_case "solve.* counters" `Quick test_obs_counters;
        ] );
    ]
