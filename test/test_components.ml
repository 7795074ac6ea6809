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
let run ?cache ?(status = fun _ -> Deadline.Completed)
    ?(hash = fun k -> Components.Hash.(finish (ints seed k))) ~init components
    =
  let solved = ref [] in
  let out, _, _ =
    Components.solve ?cache
      ~vars:(fun i -> [| i |])
      ~key:(fun _ ~init -> Array.copy init)
      ~hash
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

(* Keys filed under one hash are still told apart structurally. *)
let test_colliding_hashes () =
  let cache = Components.create_cache () in
  let hash _ = 42 in
  let out, solved = run ~cache ~hash ~init:[| 7; 8; 7 |] [ 0; 1; 2 ] in
  Alcotest.(check (array int)) "scattered" [| 107; 108; 107 |] out;
  Alcotest.(check (list int)) "2 reuses 0, 1 solves" [ 0; 1 ] solved;
  check_stats "entries, hits, misses" (2, 1, 2) cache

let test_full_content_hash () =
  let open Components.Hash in
  let h a = finish (ints seed a) in
  (* Polymorphic [Hashtbl.hash] stops reading after ten words. *)
  let a = Array.make 20 0 and b = Array.make 20 0 in
  b.(19) <- 1;
  Alcotest.(check bool) "Hashtbl.hash blind to the tail" true
    (Hashtbl.hash a = Hashtbl.hash b);
  Alcotest.(check bool) "full-content hash reads it" true (h a <> h b);
  Alcotest.(check bool) "length is hashed" true (h [| 0 |] <> h [| 0; 0 |]);
  Alcotest.(check bool) "float bits" true
    (finish (floats seed [| 0.1 |]) <> finish (floats seed [| 0.2 |]));
  Alcotest.(check bool) "bool order" true
    (finish (bools seed [| true; false |])
    <> finish (bools seed [| false; true |]))

(* The largest number of structurally distinct keys sharing one hash. *)
let max_per_hash ~hash keys =
  let by_hash = Hashtbl.create 1024 in
  List.iter
    (fun k ->
      let h = hash k in
      let ks = Option.value (Hashtbl.find_opt by_hash h) ~default:[] in
      if not (List.mem k ks) then Hashtbl.replace by_hash h (k :: ks))
    keys;
  Hashtbl.fold (fun _ ks m -> max m (List.length ks)) by_hash 0

(* Real component keys, MLN and PSL, from FootballDB-1600: many share
   their first few words (all-true inits, the same unit clauses), which
   the polymorphic hash could not tell apart. *)
let test_footballdb_keys_spread () =
  let d =
    Datagen.Footballdb.generate ~seed:1 ~players:1_600 ~noise_ratio:0.5 ()
  in
  let store = Grounder.Atom_store.of_graph d.Datagen.Footballdb.graph in
  let rules = Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules () in
  let ground = Grounder.Ground.run ~lazy_constraints:true store rules in
  let instances = ground.Grounder.Ground.instances in
  let slice init vars = Array.map (fun v -> init.(v)) vars in
  let mln =
    let network = Mln.Network.build store instances in
    let init = Mln.Network.expanded_assignment network in
    List.map
      (fun (c : Mln.Decompose.component) ->
        Mln.Decompose.key c ~init:(slice init c.atoms))
      (Mln.Decompose.split network)
  in
  let psl =
    let model = Psl.Hlmrf.build store instances in
    let init = Array.make model.Psl.Hlmrf.num_vars 1.0 in
    List.map
      (fun (c : Psl.Decompose.component) ->
        Psl.Decompose.key c ~init:(slice init c.vars))
      (Psl.Decompose.split model)
  in
  Alcotest.(check bool) "thousands of components" true
    (List.length mln > 2_000 && List.length psl > 2_000);
  Alcotest.(check bool) "mln: at most 2 keys per hash" true
    (max_per_hash ~hash:Mln.Decompose.hash mln <= 2);
  Alcotest.(check bool) "psl: at most 2 keys per hash" true
    (max_per_hash ~hash:Psl.Decompose.hash psl <= 2)

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
          Alcotest.test_case "colliding hashes" `Quick test_colliding_hashes;
          Alcotest.test_case "full-content hash" `Quick test_full_content_hash;
          Alcotest.test_case "FootballDB-1600 keys spread" `Quick
            test_footballdb_keys_spread;
          Alcotest.test_case "only Completed solves are stored" `Quick
            test_only_completed_stored;
          Alcotest.test_case "65,536-entry reset" `Quick test_entry_bound;
          Alcotest.test_case "solve.* counters" `Quick test_obs_counters;
        ] );
    ]
