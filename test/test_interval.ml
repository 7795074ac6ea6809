(* Tests for discrete time intervals. *)

module I = Kg.Interval

let iv lo hi = I.make lo hi

let interval_testable =
  Alcotest.testable I.pp I.equal

let test_make_valid () =
  let i = iv 2000 2004 in
  Alcotest.(check int) "lo" 2000 (I.lo i);
  Alcotest.(check int) "hi" 2004 (I.hi i);
  Alcotest.(check int) "length" 5 (I.length i)

let test_make_invalid () =
  match iv 5 3 with
  | exception I.Invalid _ -> ()
  | _ -> Alcotest.fail "expected Invalid"

let test_point () =
  let p = I.point 1951 in
  Alcotest.(check int) "lo" 1951 (I.lo p);
  Alcotest.(check int) "hi" 1951 (I.hi p);
  Alcotest.(check int) "length" 1 (I.length p)

let test_overlaps () =
  Alcotest.(check bool) "overlap" true (I.overlaps (iv 1 5) (iv 5 9));
  Alcotest.(check bool) "no overlap" false (I.overlaps (iv 1 4) (iv 5 9));
  Alcotest.(check bool) "contained overlaps" true (I.overlaps (iv 1 9) (iv 3 4))

let test_intersect () =
  Alcotest.(check (option interval_testable)) "proper"
    (Some (iv 3 5))
    (I.intersect (iv 1 5) (iv 3 9));
  Alcotest.(check (option interval_testable)) "empty" None
    (I.intersect (iv 1 2) (iv 3 9));
  Alcotest.(check (option interval_testable)) "single point"
    (Some (iv 5 5))
    (I.intersect (iv 1 5) (iv 5 9))

let test_hull () =
  Alcotest.check interval_testable "hull spans" (iv 1 9)
    (I.hull (iv 1 3) (iv 7 9));
  Alcotest.check interval_testable "hull of nested" (iv 1 9)
    (I.hull (iv 1 9) (iv 3 4))

let test_compare_order () =
  Alcotest.(check bool) "lex by lo" true (I.compare (iv 1 9) (iv 2 3) < 0);
  Alcotest.(check bool) "lex by hi" true (I.compare (iv 1 3) (iv 1 9) < 0);
  Alcotest.(check int) "equal" 0 (I.compare (iv 1 3) (iv 1 3))

let test_to_string () =
  Alcotest.(check string) "pair" "[2000,2004]" (I.to_string (iv 2000 2004));
  Alcotest.(check string) "point" "[1951]" (I.to_string (I.point 1951))

let test_of_string () =
  let ok s expected =
    match I.of_string s with
    | Ok i -> Alcotest.check interval_testable s expected i
    | Error e -> Alcotest.fail e
  in
  ok "[2000,2004]" (iv 2000 2004);
  ok "[1951]" (I.point 1951);
  ok "1951" (I.point 1951);
  ok "[ 3 , 7 ]" (iv 3 7);
  ok "[-5,-1]" (iv (-5) (-1));
  let bad s =
    match I.of_string s with
    | Ok _ -> Alcotest.fail (s ^ " should not parse")
    | Error _ -> ()
  in
  bad "[5,3]";
  bad "[a,b]";
  bad "";
  bad "[1,2"

let arbitrary_interval =
  QCheck.map
    (fun (a, b) -> if a <= b then iv a b else iv b a)
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string i) = i" ~count:500
    arbitrary_interval (fun i ->
      match I.of_string (I.to_string i) with
      | Ok j -> I.equal i j
      | Error _ -> false)

let qcheck_intersect_commutes =
  QCheck.Test.make ~name:"intersect commutes" ~count:500
    QCheck.(pair arbitrary_interval arbitrary_interval)
    (fun (a, b) ->
      Option.equal I.equal (I.intersect a b) (I.intersect b a))

(* [outer] covers every point of [inner]. *)
let subsumes outer inner = I.lo outer <= I.lo inner && I.hi inner <= I.hi outer

let qcheck_intersect_subsumed =
  QCheck.Test.make ~name:"intersection inside both" ~count:500
    QCheck.(pair arbitrary_interval arbitrary_interval)
    (fun (a, b) ->
      match I.intersect a b with
      | None -> not (I.overlaps a b)
      | Some c -> subsumes a c && subsumes b c)

let qcheck_hull_contains =
  QCheck.Test.make ~name:"hull contains both" ~count:500
    QCheck.(pair arbitrary_interval arbitrary_interval)
    (fun (a, b) ->
      let h = I.hull a b in
      subsumes h a && subsumes h b)

let qcheck_overlaps_symmetric =
  QCheck.Test.make ~name:"overlaps symmetric" ~count:500
    QCheck.(pair arbitrary_interval arbitrary_interval)
    (fun (a, b) -> I.overlaps a b = I.overlaps b a)

let qcheck_length_positive =
  QCheck.Test.make ~name:"length >= 1" ~count:500 arbitrary_interval
    (fun i -> I.length i >= 1)

let () =
  Alcotest.run "interval"
    [
      ( "construction",
        [
          Alcotest.test_case "make valid" `Quick test_make_valid;
          Alcotest.test_case "make invalid" `Quick test_make_invalid;
          Alcotest.test_case "point" `Quick test_point;
        ] );
      ( "relations",
        [
          Alcotest.test_case "overlaps" `Quick test_overlaps;
          Alcotest.test_case "intersect" `Quick test_intersect;
          Alcotest.test_case "hull" `Quick test_hull;
          Alcotest.test_case "compare" `Quick test_compare_order;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "of_string" `Quick test_of_string;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_intersect_commutes;
          QCheck_alcotest.to_alcotest qcheck_intersect_subsumed;
          QCheck_alcotest.to_alcotest qcheck_hull_contains;
          QCheck_alcotest.to_alcotest qcheck_overlaps_symmetric;
          QCheck_alcotest.to_alcotest qcheck_length_positive;
        ] );
    ]
