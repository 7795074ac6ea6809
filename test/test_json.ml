(* Tests for the JSON rendering, validated with a minimal JSON parser so
   the output is checked for well-formedness, not just by substring. *)

(* ------------- a tiny JSON validator ------------- *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JArr of json list
  | JObj of (string * json) list

exception Bad of string

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (text.[!pos] = ' ' || text.[!pos] = '\n' || text.[!pos] = '\t'
        || text.[!pos] = '\r')
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match text.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "bad escape"
             else
               match text.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'u' ->
                   if !pos + 4 >= n then fail "bad unicode escape";
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape %c" c));
            incr pos;
            loop ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> JStr (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          JObj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((key, value) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((key, value) :: acc)
            | _ -> fail "expected , or }"
          in
          JObj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          JArr []
        end
        else begin
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (value :: acc)
            | Some ']' ->
                incr pos;
                List.rev (value :: acc)
            | _ -> fail "expected , or ]"
          in
          JArr (items [])
        end
    | Some 't' ->
        pos := !pos + 4;
        JBool true
    | Some 'f' ->
        pos := !pos + 5;
        JBool false
    | Some 'n' ->
        pos := !pos + 4;
        JNull
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && (match text.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub text start (!pos - start)) with
        | Some f -> JNum f
        | None -> fail "bad number")
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

let field name = function
  | JObj members -> (
      match List.assoc_opt name members with
      | Some v -> v
      | None -> Alcotest.fail ("missing field " ^ name))
  | _ -> Alcotest.fail "not an object"

(* ------------- tests ------------- *)

module J = Tecore.Json_out

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

(* Strings are escaped as Obs.Json escapes them: quotes, backslashes,
   newlines and control bytes, exactly. *)
let test_escape () =
  let q =
    Kg.Quad.v "a\001b" "p" (Kg.Term.str "q\"b\\n\nc") (1, 2) 0.5
  in
  let json = J.of_quad q in
  let has needle =
    let n = String.length needle and h = String.length json in
    let rec at i = i + n <= h && (String.sub json i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "control byte" true (has {|"subject":"a\u0001b"|});
  Alcotest.(check bool) "quote, backslash, newline" true
    (has {|"object":"q\"b\\n\nc"|});
  Alcotest.(check bool) "same bytes as Obs.Json" true
    (has (Obs.Json.to_string (Obs.Json.Str "a\001b")))

let test_quad_json () =
  let q = Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9 in
  match parse_json (J.of_quad q) with
  | JObj _ as j ->
      (match field "subject" j with
      | JStr "CR" -> ()
      | _ -> Alcotest.fail "subject");
      (match field "from" j with
      | JNum f -> Alcotest.(check bool) "from" true (f = 2000.0)
      | _ -> Alcotest.fail "from");
      (match field "confidence" j with
      | JNum c -> Alcotest.(check bool) "confidence" true (Float.abs (c -. 0.9) < 1e-9)
      | _ -> Alcotest.fail "confidence")
  | _ -> Alcotest.fail "not an object"

let test_quad_with_tricky_strings () =
  let q =
    Kg.Quad.v "s\"ubj" "p" (Kg.Term.str "line\nbreak \\ quote\"") (1, 2) 0.5
  in
  match parse_json (J.of_quad q) with
  | JObj _ as j -> (
      match field "object" j with
      | JStr s -> Alcotest.(check string) "roundtrip" "line\nbreak \\ quote\"" s
      | _ -> Alcotest.fail "object")
  | _ -> Alcotest.fail "not an object"

let test_result_json () =
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
        Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
      ]
  in
  let rules =
    parse_rules
      {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .|}
  in
  let result = Tecore.Engine.resolve g rules in
  let j = parse_json (J.of_result result) in
  (match field "engine" j with
  | JStr ("mln" | "psl") -> ()
  | _ -> Alcotest.fail "engine");
  let resolution = field "resolution" j in
  (match field "removed" resolution with
  | JArr [ removed ] -> (
      match field "object" removed with
      | JStr "Napoli" -> ()
      | _ -> Alcotest.fail "removed object")
  | _ -> Alcotest.fail "one removed fact expected");
  (match field "derived" resolution with
  | JArr [ derived ] -> (
      match field "predicate" derived with
      | JStr "worksFor" -> ()
      | _ -> Alcotest.fail "derived predicate")
  | _ -> Alcotest.fail "one derived fact expected");
  match field "kept" resolution with
  | JNum k -> Alcotest.(check bool) "kept 2" true (k = 2.0)
  | _ -> Alcotest.fail "kept"

let test_namespace_shrinking () =
  let ns = Kg.Namespace.create () in
  let q =
    Kg.Quad.v "http://example.org/CR" "http://example.org/coach"
      (Kg.Term.iri "http://example.org/Chelsea")
      (2000, 2004) 0.9
  in
  match parse_json (J.of_quad ~namespace:ns q) with
  | JObj _ as j -> (
      match field "subject" j with
      | JStr "ex:CR" -> ()
      | JStr other -> Alcotest.fail ("not shrunk: " ^ other)
      | _ -> Alcotest.fail "subject")
  | _ -> Alcotest.fail "not an object"

let test_atemporal_derived () =
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "Kid" "playsFor" (Kg.Term.iri "Ajax") (2010, 2012) 0.8;
        Kg.Quad.v "Kid" "birthDate" (Kg.Term.int 1994) (1994, 2017) 0.95;
      ]
  in
  let rules =
    parse_rules
      "rule f3 2.9: playsFor(x, y)@t ^ birthDate(x, z)@t2 ^ t - t2 < 20 => Teen(x) ."
  in
  let result = Tecore.Engine.resolve g rules in
  let j = parse_json (J.of_result result) in
  match field "derived" (field "resolution" j) with
  | JArr [ derived ] -> (
      (* Atemporal atoms have no from/to fields. *)
      match derived with
      | JObj members ->
          Alcotest.(check bool) "no from" true
            (not (List.mem_assoc "from" members));
          (match field "args" derived with
          | JArr [ JStr "Kid" ] -> ()
          | _ -> Alcotest.fail "args")
      | _ -> Alcotest.fail "derived not an object")
  | _ -> Alcotest.fail "one derived expected"

let () =
  Alcotest.run "json"
    [
      ( "rendering",
        [
          Alcotest.test_case "escape" `Quick test_escape;
          Alcotest.test_case "quad" `Quick test_quad_json;
          Alcotest.test_case "tricky strings" `Quick test_quad_with_tricky_strings;
          Alcotest.test_case "full result" `Quick test_result_json;
          Alcotest.test_case "namespace shrinking" `Quick
            test_namespace_shrinking;
          Alcotest.test_case "atemporal derived" `Quick test_atemporal_derived;
        ] );
    ]
