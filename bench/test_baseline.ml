(* Tests for the baseline core of the bench harness: each gate it
   implements must be able to fail. *)

module Json = Obs.Json

(* [f ()] must raise [Failure] with a message containing [needle]. *)
let fails_with needle f =
  match f () with
  | _ -> Alcotest.failf "expected a failure mentioning %S" needle
  | exception Failure msg ->
      let n = String.length needle and m = String.length msg in
      let rec has i = i + n <= m && (String.sub msg i n = needle || has (i + 1)) in
      if not (has 0) then
        Alcotest.failf "failure %S does not mention %S" msg needle

let temp_file contents =
  let path = Filename.temp_file "test_baseline" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let test_tolerance_both_directions () =
  let tol = Baseline.timing in
  Alcotest.(check bool) "equal" true (Baseline.within tol 100.0 100.0);
  Alcotest.(check bool) "25x slower" true (Baseline.within tol 2500.0 100.0);
  Alcotest.(check bool) "26x slower" false (Baseline.within tol 2600.0 100.0);
  Alcotest.(check bool) "26x faster" false (Baseline.within tol 100.0 2600.0);
  let fails =
    Baseline.compare tol
      ~committed:[ ("slow", 10.0); ("fast", 1000.0) ]
      ~fresh:[ ("slow", 1000.0); ("fast", 10.0) ]
  in
  Alcotest.(check int) "both cells fail" 2 (List.length fails)

let test_floor () =
  let tol = Baseline.timing in
  Alcotest.(check bool) "under the floor" true (Baseline.within tol 4.9 0.01);
  Alcotest.(check bool) "over the floor" false (Baseline.within tol 5.1 0.01);
  Alcotest.(check bool)
    "no floor for memory" false
    (Baseline.within Baseline.memory 0.3 0.1);
  Alcotest.(check bool) "memory 2x" true (Baseline.within Baseline.memory 2.0 1.0)

let test_missing_cell () =
  Alcotest.(check (list string))
    "missing"
    [ "b: missing from the baseline" ]
    (Baseline.compare Baseline.timing ~committed:[ ("a", 1.0) ]
       ~fresh:[ ("a", 1.0); ("b", 1.0) ]);
  Alcotest.(check (list string))
    "no cells" [ "no cell measured" ]
    (Baseline.compare Baseline.timing ~committed:[ ("a", 1.0) ] ~fresh:[])

let test_missing_file () =
  fails_with "run `bench obs` to regenerate it" (fun () ->
      Baseline.read ~experiment:"obs" ~path:"no-such-baseline.json"
        ~schema:"tecore-bench-obs/1")

let test_wrong_schema () =
  let path = temp_file {|{"schema":"tecore-bench-obs/0","runs":[]}|} in
  fails_with "schema is not tecore-bench-obs/1; run `bench obs`" (fun () ->
      Baseline.read ~experiment:"obs" ~path ~schema:"tecore-bench-obs/1");
  Sys.remove path

let test_non_finite () =
  fails_with "non-finite \"ms\"" (fun () ->
      Baseline.num "ms" (Json.Obj [ ("ms", Json.Num Float.nan) ]));
  (* Non-finite numbers render as null, so a written document that holds
     one fails its own round trip. *)
  let path = Filename.temp_file "test_baseline" ".json" in
  let doc inf =
    Json.Obj
      [ ("runs", Json.Arr [ Json.Obj [ ("ms", Json.Num inf) ] ]) ]
  in
  Baseline.write ~path ~fields:[ "ms" ] (doc 1.0);
  fails_with "non-finite \"ms\"" (fun () ->
      Baseline.write ~path ~fields:[ "ms" ] (doc Float.infinity));
  Sys.remove path

let () =
  Alcotest.run "baseline"
    [
      ( "core",
        [
          Alcotest.test_case "tolerance both directions" `Quick
            test_tolerance_both_directions;
          Alcotest.test_case "floor" `Quick test_floor;
          Alcotest.test_case "missing cell" `Quick test_missing_cell;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "wrong schema" `Quick test_wrong_schema;
          Alcotest.test_case "non-finite number" `Quick test_non_finite;
        ] );
    ]
