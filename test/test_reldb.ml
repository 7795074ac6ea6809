(* Tests for the in-memory relational engine. *)

module V = Reldb.Value
module Tbl = Reldb.Table
module RA = Reldb.Relalg
module I = Kg.Interval

(* Codes come from one graph's symbol table. *)
let syms = Kg.Graph.symbols (Kg.Graph.create ())
let term t = V.of_term_id (Kg.Graph.intern_term syms t)
let interval i = V.of_interval_id (Kg.Graph.intern_interval syms i)
let iri s = term (Kg.Term.iri s)
let int = V.of_int

let table name columns rows =
  let t = Tbl.create ~name ~columns in
  List.iter (fun r -> Tbl.insert_codes t (Array.of_list r)) rows;
  t

let cell t ~row ~col = (Tbl.column_data t col).(row)

(* Every row of a table as its code array, in table order. *)
let rows t =
  List.init (Tbl.cardinal t) (fun row ->
      Array.init (Tbl.width t) (fun col -> cell t ~row ~col))

let int_at t ~row ~col =
  let c = cell t ~row ~col in
  let n = V.payload c in
  if c = int n then n else Alcotest.fail "non-int cell"

let people () =
  table "people" [ "name"; "age"; "city" ]
    [
      [ iri "ada"; int 36; iri "london" ];
      [ iri "alan"; int 41; iri "london" ];
      [ iri "grace"; int 85; iri "arlington" ];
    ]

let cities () =
  table "cities" [ "city"; "country" ]
    [
      [ iri "london"; iri "uk" ];
      [ iri "arlington"; iri "usa" ];
      [ iri "paris"; iri "france" ];
    ]

let test_value_kinds () =
  Alcotest.(check bool) "term code stable" true (iri "a" = iri "a");
  Alcotest.(check bool) "int vs term" false (int 1 = term (Kg.Term.int 1));
  Alcotest.(check bool) "interval code stable" true
    (interval (I.make 1 2) = interval (I.make 1 2));
  Alcotest.(check int) "int payload" 3 (V.payload (int 3));
  Alcotest.(check bool) "decode_interval" true
    (V.decode_interval syms (interval (I.make 1 2)) = Some (I.make 1 2));
  Alcotest.(check bool) "decode_term" true
    (V.decode_term syms (iri "a") = Some (Kg.Term.iri "a"));
  Alcotest.(check bool) "null decodes to nothing" true
    (V.decode_term syms V.null = None && V.decode_interval syms V.null = None);
  Alcotest.(check bool) "an unseen symbol has no code" true
    (Kg.Graph.find_term syms (Kg.Term.iri "never-interned-anywhere") = None)

let test_int_codes () =
  let ns = [ 0; 1; -1; 2; -2; 1 lsl 40; -(1 lsl 40); (1 lsl 59) - 1 ] in
  let codes = List.map int ns in
  Alcotest.(check int) "distinct ints get distinct codes" (List.length ns)
    (List.length (List.sort_uniq compare codes));
  List.iter2
    (fun n c ->
      Alcotest.(check int) "round trip" n (V.payload c);
      Alcotest.(check bool) "an int is no term" true
        (V.decode_term syms c = None);
      Alcotest.(check bool) "an int is no interval" true
        (V.decode_interval syms c = None))
    ns codes;
  Alcotest.(check bool) "null is no int" true (V.null <> int 0)

(* The code constructors keep the kinds apart, [payload] gives the
   symbol code back, and the decoders read the table that gave it. *)
let test_codes_of_ids () =
  let t = Kg.Term.iri "codes-of-ids" and i = I.make 7 9 in
  let tid = Kg.Graph.intern_term syms t
  and iid = Kg.Graph.intern_interval syms i in
  Alcotest.(check int) "term" (term t) (V.of_term_id tid);
  Alcotest.(check int) "interval" (interval i) (V.of_interval_id iid);
  Alcotest.(check (list int)) "payloads" [ tid; iid; -12 ]
    (List.map V.payload [ V.of_term_id tid; V.of_interval_id iid; V.of_int (-12) ]);
  Alcotest.(check bool) "kinds stay apart" true
    (V.of_term_id tid <> V.of_interval_id tid && V.of_term_id tid <> V.of_int tid);
  Alcotest.(check bool) "decodes" true
    (V.decode_term syms (V.of_term_id tid) = Some t
    && V.decode_interval syms (V.of_interval_id iid) = Some i)

let test_table_basics () =
  let t = people () in
  Alcotest.(check int) "cardinal" 3 (Tbl.cardinal t);
  Alcotest.(check int) "width" 3 (Tbl.width t);
  Alcotest.(check int) "column_index" 1 (Tbl.column_index t "age");
  (match Tbl.column_index t "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown column must raise");
  Alcotest.(check int) "cell" 41 (int_at t ~row:1 ~col:1);
  Alcotest.(check int) "count_for" 2
    (Tbl.count_for t ~col:2 ~code:(iri "london"))

let test_table_schema_checks () =
  (match Tbl.create ~name:"dup" ~columns:[ "a"; "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate columns accepted");
  let t = Tbl.create ~name:"t" ~columns:[ "a" ] in
  match Tbl.insert_codes t [| int 1; int 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch accepted"

let test_reserve_keeps_rows () =
  let t = people () in
  let before = rows t in
  Tbl.reserve t 1_000;
  Alcotest.(check int) "reserve adds no rows" 3 (Tbl.cardinal t);
  Alcotest.(check bool) "reserve keeps contents" true (rows t = before);
  let fresh = Tbl.create ~name:"fresh" ~columns:[ "a"; "b" ] in
  Tbl.reserve fresh 4;
  for i = 0 to 9 do
    Tbl.insert_codes fresh [| int i; int (-i) |]
  done;
  Alcotest.(check (list int)) "growth past the reservation"
    (List.init 10 (fun i -> -i))
    (List.init 10 (fun row -> int_at fresh ~row ~col:1))

let test_column_data () =
  let t = people () in
  for col = 0 to Tbl.width t - 1 do
    let data = Tbl.column_data t col in
    Alcotest.(check bool) "backing array covers the rows" true
      (Array.length data >= Tbl.cardinal t)
  done;
  Alcotest.(check bool) "cells are the inserted codes" true
    (rows t
    = [
        [| iri "ada"; int 36; iri "london" |];
        [| iri "alan"; int 41; iri "london" |];
        [| iri "grace"; int 85; iri "arlington" |];
      ])

let test_count_for_growth () =
  let t = people () in
  let london = iri "london" in
  Alcotest.(check int) "before" 2 (Tbl.count_for t ~col:2 ~code:london);
  Tbl.insert_codes t [| iri "tim"; int 70; london |];
  Alcotest.(check int) "rebuilt after an insert" 3
    (Tbl.count_for t ~col:2 ~code:london);
  Alcotest.(check int) "absent code" 0
    (Tbl.count_for t ~col:2 ~code:(iri "paris"));
  Alcotest.(check int) "other column" 1
    (Tbl.count_for t ~col:1 ~code:(int 70))

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let filtered_rows () =
  let r = Obs.Report.capture () in
  Option.value (List.assoc_opt "ground.filtered_rows" r.Obs.Report.counters)
    ~default:0.

let test_select_codes () =
  let t = people () in
  let older =
    RA.select_codes
      (fun r ->
        V.payload r.(1) > 40)
      t
  in
  Alcotest.(check (list string)) "schema kept" (Tbl.columns t)
    (Tbl.columns older);
  Alcotest.(check (list int)) "ages in table order" [ 41; 85 ]
    (List.init (Tbl.cardinal older) (fun row -> int_at older ~row ~col:1));
  Alcotest.(check int) "nothing passes" 0
    (Tbl.cardinal (RA.select_codes (fun _ -> false) t));
  Alcotest.(check bool) "everything passes" true
    (rows (RA.select_codes (fun _ -> true) t) = rows t)

let test_filtered_rows_counter () =
  let counted f = with_obs (fun () -> ignore (f ()); filtered_rows ()) in
  Alcotest.(check (float 0.)) "select_codes" 2.
    (counted (fun () ->
         RA.select_codes (fun r -> r.(2) = iri "arlington") (people ())));
  Alcotest.(check (float 0.)) "hash_join filter" 2.
    (counted (fun () ->
         RA.hash_join
           ~filter:(fun r -> r.(0) = iri "ada")
           ~on:[ ("city", "city") ] (people ()) (cities ())));
  Alcotest.(check (float 0.)) "product filter" 6.
    (counted (fun () ->
         RA.product ~filter:(fun r -> r.(2) = r.(3)) (people ()) (cities ())))

let test_filter_project_copy_and_miss () =
  let t = people () in
  let copy =
    RA.filter_project t ~name:"copy" ~filters:[]
      ~keep:(List.mapi (fun i c -> (i, c)) (Tbl.columns t))
  in
  Alcotest.(check string) "name" "copy" (Tbl.name copy);
  Alcotest.(check bool) "filterless identity keep copies every row" true
    (rows copy = rows t);
  let none =
    RA.filter_project t ~name:"none"
      ~filters:[ `Eq (2, iri "paris") ]
      ~keep:[ (0, "who") ]
  in
  Alcotest.(check int) "no match" 0 (Tbl.cardinal none);
  Alcotest.(check (list string)) "empty result keeps its schema" [ "who" ]
    (Tbl.columns none)

let test_hash_join_two_keys () =
  let left =
    table "l" [ "a"; "b"; "x" ]
      [
        [ int 1; int 1; int 10 ];
        [ int 1; int 2; int 11 ];
        [ int 2; int 1; int 12 ];
      ]
  in
  let right =
    table "r" [ "a"; "b"; "y" ]
      [
        [ int 1; int 2; int 20 ];
        [ int 2; int 1; int 21 ];
        [ int 2; int 2; int 22 ];
      ]
  in
  let j = RA.hash_join ~on:[ ("a", "a"); ("b", "b") ] left right in
  Alcotest.(check (list string)) "schema" [ "a"; "b"; "x"; "y" ]
    (Tbl.columns j);
  Alcotest.(check (list (pair int int))) "both keys must match"
    [ (11, 20); (12, 21) ]
    (List.init (Tbl.cardinal j) (fun row ->
         (int_at j ~row ~col:2, int_at j ~row ~col:3))
    |> List.sort compare)

let test_hash_join_column_clash () =
  let left = table "l" [ "k"; "v" ] [ [ int 1; int 10 ] ] in
  let right = table "r" [ "k"; "v" ] [ [ int 1; int 20 ] ] in
  let j = RA.hash_join ~on:[ ("k", "k") ] left right in
  Alcotest.(check (list string)) "right duplicate is prefixed"
    [ "k"; "v"; "r.v" ] (Tbl.columns j);
  Alcotest.(check (list int)) "values" [ 1; 10; 20 ]
    (List.init 3 (fun col -> int_at j ~row:0 ~col))

let test_hash_join_build_side () =
  (* The left side is larger here, so the right side is hashed; the
     output schema and contents must not depend on that choice. *)
  let big = people () in
  Tbl.insert_codes big [| iri "tim"; int 70; iri "london" |];
  let small =
    table "uk" [ "city"; "country" ] [ [ iri "london"; iri "uk" ] ]
  in
  let j = RA.hash_join ~on:[ ("city", "city") ] big small in
  Alcotest.(check (list string)) "left columns first"
    [ "name"; "age"; "city"; "country" ] (Tbl.columns j);
  Alcotest.(check (list int)) "one row per londoner, in probe order"
    [ 36; 41; 70 ]
    (List.init (Tbl.cardinal j) (fun row -> int_at j ~row ~col:1));
  let swapped = RA.hash_join ~on:[ ("city", "city") ] small big in
  Alcotest.(check (list string)) "swapped schema"
    [ "city"; "country"; "name"; "age" ] (Tbl.columns swapped);
  Alcotest.(check int) "swapped cardinality" 3 (Tbl.cardinal swapped)

let test_product_renaming_and_filter () =
  let p = RA.product (people ()) (cities ()) in
  Alcotest.(check (list string)) "clashing right column is prefixed"
    [ "name"; "age"; "city"; "cities.city"; "country" ]
    (Tbl.columns p);
  Alcotest.(check int) "left-major order" (iri "ada")
    (cell p ~row:2 ~col:0);
  Alcotest.(check int) "right cycles fastest" (iri "paris")
    (cell p ~row:2 ~col:3);
  let same_city =
    RA.product ~filter:(fun r -> r.(2) = r.(3)) (people ()) (cities ())
  in
  Alcotest.(check int) "filter = equi-join" 3 (Tbl.cardinal same_city);
  let empty = Tbl.create ~name:"empty" ~columns:[ "z" ] in
  Alcotest.(check int) "empty right" 0
    (Tbl.cardinal (RA.product (people ()) empty));
  Alcotest.(check int) "empty left" 0
    (Tbl.cardinal (RA.product empty (people ())))

let test_filter_project () =
  let t = people () in
  let londoners =
    RA.filter_project t ~name:"londoners"
      ~filters:[ `Eq (2, iri "london") ]
      ~keep:[ (1, "years"); (0, "who") ]
  in
  Alcotest.(check (list string)) "kept columns" [ "years"; "who" ]
    (Tbl.columns londoners);
  Alcotest.(check (list int)) "ages in table order" [ 36; 41 ]
    (List.init (Tbl.cardinal londoners) (fun row ->
         int_at londoners ~row ~col:0));
  let same =
    table "pairs" [ "a"; "b" ] [ [ int 1; int 1 ]; [ int 1; int 2 ] ]
  in
  Alcotest.(check int) "repeated column filter" 1
    (Tbl.cardinal
       (RA.filter_project same ~name:"same" ~filters:[ `Same (1, 0) ]
          ~keep:[ (0, "a") ]))

let test_hash_join () =
  let joined = RA.hash_join ~on:[ ("city", "city") ] (people ()) (cities ()) in
  Alcotest.(check int) "three matches" 3 (Tbl.cardinal joined);
  Alcotest.(check (list string)) "join schema"
    [ "name"; "age"; "city"; "country" ]
    (Tbl.columns joined);
  (* Every output row is consistent with its inputs. *)
  List.iter
    (fun r ->
      let expected = if r.(2) = iri "london" then iri "uk" else iri "usa" in
      Alcotest.(check int) "country" expected r.(3))
    (rows joined)

let test_join_empty_sides () =
  let empty = Tbl.create ~name:"empty" ~columns:[ "city" ] in
  let j = RA.hash_join ~on:[ ("city", "city") ] empty (cities ()) in
  Alcotest.(check int) "left empty" 0 (Tbl.cardinal j);
  let j2 = RA.hash_join ~on:[ ("city", "city") ] (cities ()) empty in
  Alcotest.(check int) "right empty" 0 (Tbl.cardinal j2)

let test_product () =
  let p = RA.product (people ()) (cities ()) in
  Alcotest.(check int) "3x3" 9 (Tbl.cardinal p);
  Alcotest.(check int) "5 columns" 5 (Tbl.width p)

(* Differential: above the partition threshold the join runs the
   partitioned code path — its output must equal the row-oriented
   reference as a multiset, and must be bitwise identical between a
   sequential run and a 4-worker pool (the determinism contract the
   grounding pipeline relies on). *)
let test_partitioned_join_matches_reference () =
  let n = 12_000 in
  (* 12k + 12k rows crosses the 16_384-row partition threshold. *)
  let mk name salt =
    let t = Tbl.create ~name ~columns:[ "k"; name ^ "v" ] in
    let rows = ref [] in
    let state = ref salt in
    for i = 0 to n - 1 do
      state := ((!state * 48271) + 11) land 0xFFFFFF;
      let k = !state mod 997 in
      Tbl.insert_codes t [| int k; int i |];
      rows := (k, i) :: !rows
    done;
    (t, List.rev !rows)
  in
  let left, left_rows = mk "l" 1 in
  let right, right_rows = mk "r" 2 in
  let seq = RA.hash_join ~on:[ ("k", "k") ] left right in
  let par =
    RA.hash_join
      ~pool:(Prelude.Pool.create ~jobs:4)
      ~on:[ ("k", "k") ] left right
  in
  Alcotest.(check int) "same cardinality" (Tbl.cardinal seq) (Tbl.cardinal par);
  Alcotest.(check bool) "jobs=4 bitwise equals jobs=1" true
    (rows seq = rows par);
  let by_key = Hashtbl.create 997 in
  List.iter
    (fun (k, rv) ->
      Hashtbl.replace by_key k
        (rv :: Option.value (Hashtbl.find_opt by_key k) ~default:[]))
    right_rows;
  let expected =
    List.concat_map
      (fun (k, lv) ->
        List.rev_map
          (fun rv -> (k, lv, rv))
          (Option.value (Hashtbl.find_opt by_key k) ~default:[]))
      left_rows
    |> List.sort compare
  in
  let got =
    List.init (Tbl.cardinal seq) (fun row ->
        ( int_at seq ~row ~col:0,
          int_at seq ~row ~col:1,
          int_at seq ~row ~col:2 ))
    |> List.sort compare
  in
  Alcotest.(check int) "reference cardinality" (List.length expected)
    (List.length got);
  Alcotest.(check bool) "matches row-oriented reference" true (expected = got)

(* Property: hash join agrees with nested-loop join. *)
let arbitrary_rows =
  QCheck.(
    list_of_size (Gen.int_range 0 30) (pair (int_range 0 8) (int_range 0 8)))

let qcheck_join_vs_nested_loop =
  QCheck.Test.make ~name:"hash_join = nested loop join" ~count:300
    QCheck.(pair arbitrary_rows arbitrary_rows)
    (fun (left_rows, right_rows) ->
      let mk name cols rows =
        table name cols (List.map (fun (k, v) -> [ int k; int v ]) rows)
      in
      let left = mk "l" [ "k"; "lv" ] left_rows in
      let right = mk "r" [ "k"; "rv" ] right_rows in
      let joined = RA.hash_join ~on:[ ("k", "k") ] left right in
      let fast =
        List.init (Tbl.cardinal joined) (fun row ->
            ( int_at joined ~row ~col:0,
              int_at joined ~row ~col:1,
              int_at joined ~row ~col:2 ))
        |> List.sort compare
      in
      let naive =
        List.concat_map
          (fun (k, lv) ->
            List.filter_map
              (fun (k', rv) -> if k = k' then Some (k, lv, rv) else None)
              right_rows)
          left_rows
        |> List.sort compare
      in
      fast = naive)

(* Property: a two-key hash join agrees with a nested-loop join. *)
let qcheck_two_key_join_vs_nested_loop =
  let triples =
    QCheck.(
      list_of_size (Gen.int_range 0 25)
        (triple (int_range 0 3) (int_range 0 3) (int_range 0 9)))
  in
  QCheck.Test.make ~name:"two-key hash_join = nested loop join" ~count:300
    QCheck.(pair triples triples)
    (fun (left_rows, right_rows) ->
      let mk name v rows =
        table name [ "a"; "b"; v ]
          (List.map (fun (a, b, x) -> [ int a; int b; int x ]) rows)
      in
      let joined =
        RA.hash_join ~on:[ ("a", "a"); ("b", "b") ] (mk "l" "x" left_rows)
          (mk "r" "y" right_rows)
      in
      let fast =
        List.init (Tbl.cardinal joined) (fun row ->
            List.init 4 (fun col -> int_at joined ~row ~col))
        |> List.sort compare
      in
      let naive =
        List.concat_map
          (fun (a, b, x) ->
            List.filter_map
              (fun (a', b', y) ->
                if a = a' && b = b' then Some [ a; b; x; y ] else None)
              right_rows)
          left_rows
        |> List.sort compare
      in
      fast = naive)

(* Property: [filter_project] is a list filter followed by a map, and
   keeps table order. *)
let qcheck_filter_project_vs_list =
  QCheck.Test.make ~name:"filter_project = list filter" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 30)
           (triple (int_range 0 3) (int_range 0 3) (int_range 0 9)))
        (int_range 0 3))
    (fun (rs, c) ->
      let t =
        table "t" [ "a"; "b"; "x" ]
          (List.map (fun (a, b, x) -> [ int a; int b; int x ]) rs)
      in
      let out =
        RA.filter_project t ~name:"out"
          ~filters:[ `Eq (0, int c); `Same (0, 1) ]
          ~keep:[ (2, "x"); (0, "a") ]
      in
      let got =
        List.init (Tbl.cardinal out) (fun row ->
            (int_at out ~row ~col:0, int_at out ~row ~col:1))
      in
      got
      = List.filter_map
          (fun (a, b, x) -> if a = c && b = a then Some (x, a) else None)
          rs)

let () =
  Alcotest.run "reldb"
    [
      ( "value",
        [
          Alcotest.test_case "kinds" `Quick test_value_kinds;
          Alcotest.test_case "int codes" `Quick test_int_codes;
          Alcotest.test_case "codes of ids" `Quick test_codes_of_ids;
        ] );
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "schema checks" `Quick test_table_schema_checks;
          Alcotest.test_case "reserve keeps rows" `Quick
            test_reserve_keeps_rows;
          Alcotest.test_case "column_data" `Quick test_column_data;
          Alcotest.test_case "count_for after growth" `Quick
            test_count_for_growth;
        ] );
      ( "relalg",
        [
          Alcotest.test_case "select_codes" `Quick test_select_codes;
          Alcotest.test_case "filtered rows counter" `Quick
            test_filtered_rows_counter;
          Alcotest.test_case "filter_project" `Quick test_filter_project;
          Alcotest.test_case "filter_project copy and miss" `Quick
            test_filter_project_copy_and_miss;
          Alcotest.test_case "hash join on two keys" `Quick
            test_hash_join_two_keys;
          Alcotest.test_case "hash join column clash" `Quick
            test_hash_join_column_clash;
          Alcotest.test_case "hash join build side" `Quick
            test_hash_join_build_side;
          Alcotest.test_case "hash join" `Quick test_hash_join;
          Alcotest.test_case "join empty sides" `Quick test_join_empty_sides;
          Alcotest.test_case "partitioned join = reference" `Quick
            test_partitioned_join_matches_reference;
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "product renaming and filter" `Quick
            test_product_renaming_and_filter;
          QCheck_alcotest.to_alcotest qcheck_join_vs_nested_loop;
          QCheck_alcotest.to_alcotest qcheck_two_key_join_vs_nested_loop;
          QCheck_alcotest.to_alcotest qcheck_filter_project_vs_list;
        ] );
    ]
