(* Tests for the weighted FOL layer: terms, substitutions, atoms,
   conditions and rules. *)

open Logic
module I = Kg.Interval

let iv = I.make

let subst_bind pairs tpairs =
  let s =
    List.fold_left
      (fun s (v, c) ->
        match Subst.bind s v c with
        | Some s -> s
        | None -> Alcotest.fail ("bind failed on " ^ v))
      Subst.empty pairs
  in
  List.fold_left
    (fun s (v, i) ->
      match Subst.bind_time s v i with
      | Some s -> s
      | None -> Alcotest.fail ("bind_time failed on " ^ v))
    s tpairs

let test_subst_bind_conflict () =
  let s = subst_bind [ ("x", Kg.Term.iri "a") ] [] in
  Alcotest.(check bool) "rebind same ok" true
    (Subst.bind s "x" (Kg.Term.iri "a") <> None);
  Alcotest.(check bool) "rebind different fails" true
    (Subst.bind s "x" (Kg.Term.iri "b") = None)

let test_subst_eval_time () =
  let s = subst_bind [] [ ("t", iv 1 5); ("u", iv 3 9) ] in
  Alcotest.(check bool) "var" true
    (Subst.eval_time s (Lterm.Tvar "t") = Some (iv 1 5));
  Alcotest.(check bool) "const" true
    (Subst.eval_time s (Lterm.Tconst (iv 7 8)) = Some (iv 7 8));
  Alcotest.(check bool) "intersection" true
    (Subst.eval_time s (Lterm.Tinter (Lterm.Tvar "t", Lterm.Tvar "u"))
    = Some (iv 3 5));
  Alcotest.(check bool) "hull" true
    (Subst.eval_time s (Lterm.Thull (Lterm.Tvar "t", Lterm.Tvar "u"))
    = Some (iv 1 9));
  (* Empty intersection evaluates to None: the rule instance is dropped. *)
  let s2 = subst_bind [] [ ("t", iv 1 2); ("u", iv 5 9) ] in
  Alcotest.(check bool) "empty intersection" true
    (Subst.eval_time s2 (Lterm.Tinter (Lterm.Tvar "t", Lterm.Tvar "u")) = None);
  Alcotest.(check bool) "unbound" true
    (Subst.eval_time s (Lterm.Tvar "zz") = None)

let test_lterm_vars () =
  Alcotest.(check (list string)) "var" [ "x" ] (Lterm.vars (Lterm.var "x"));
  Alcotest.(check (list string)) "const" [] (Lterm.vars (Lterm.const (Kg.Term.iri "a")));
  Alcotest.(check (list string)) "tvars dedup" [ "t"; "u" ]
    (Lterm.tvars
       (Lterm.Tinter (Lterm.Tvar "t", Lterm.Thull (Lterm.Tvar "u", Lterm.Tvar "t"))))

let quad_atom p s o t =
  Atom.quad_pattern p ~subject:s ~object_:o ~time:t

let test_atom_vars () =
  let a =
    quad_atom "coach" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t")
  in
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Atom.vars a);
  Alcotest.(check (list string)) "tvars" [ "t" ] (Atom.tvars a);
  let repeated = Atom.make "p" [ Lterm.var "x"; Lterm.var "x" ] in
  Alcotest.(check (list string)) "dedup vars" [ "x" ] (Atom.vars repeated)

let test_atom_instantiate () =
  let a =
    quad_atom "coach" (Lterm.var "x") (Lterm.const (Kg.Term.iri "Chelsea")) (Lterm.Tvar "t")
  in
  let s = subst_bind [ ("x", Kg.Term.iri "CR") ] [ ("t", iv 2000 2004) ] in
  (match Atom.instantiate s a with
  | Some g ->
      Alcotest.(check string) "pp"
        "coach(CR, Chelsea)@[2000,2004]"
        (Atom.Ground.to_string g)
  | None -> Alcotest.fail "instantiate failed");
  (* Unbound variable: no instance. *)
  Alcotest.(check bool) "unbound" true
    (Atom.instantiate Subst.empty a = None);
  (* Computed empty interval: no instance. *)
  let computed =
    quad_atom "livesIn" (Lterm.var "x") (Lterm.const (Kg.Term.iri "Rome"))
      (Lterm.Tinter (Lterm.Tconst (iv 1 2), Lterm.Tconst (iv 5 6)))
  in
  Alcotest.(check bool) "empty computed time" true
    (Atom.instantiate s computed = None)

let test_ground_quad_conversion () =
  let q = Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9 in
  let g = Atom.Ground.of_quad q in
  Alcotest.(check string) "predicate" "coach" g.Atom.Ground.predicate;
  (match Atom.Ground.to_quad ~confidence:0.9 g with
  | Some q' -> Alcotest.(check bool) "roundtrip" true (q = q')
  | None -> Alcotest.fail "to_quad failed");
  (* Atemporal and non-binary atoms have no quad form. *)
  Alcotest.(check bool) "atemporal" true
    (Atom.Ground.to_quad (Atom.Ground.make "p" [ Kg.Term.iri "a"; Kg.Term.iri "b" ]) = None);
  Alcotest.(check bool) "unary" true
    (Atom.Ground.to_quad
       (Atom.Ground.make ~time:(iv 1 2) "p" [ Kg.Term.iri "a" ])
    = None)

let test_cond_allen () =
  let s = subst_bind [] [ ("t", iv 1 4); ("u", iv 5 9) ] in
  let c = Cond.allen_set Kg.Allen.Set.disjoint (Lterm.Tvar "t") (Lterm.Tvar "u") in
  Alcotest.(check (option bool)) "disjoint true" (Some true) (Cond.eval s c);
  let c2 = Cond.allen_set (Kg.Allen.Set.singleton Kg.Allen.Overlaps) (Lterm.Tvar "t") (Lterm.Tvar "u") in
  Alcotest.(check (option bool)) "overlaps false" (Some false) (Cond.eval s c2);
  let unbound = Cond.allen_set (Kg.Allen.Set.singleton Kg.Allen.Before) (Lterm.Tvar "zz") (Lterm.Tvar "u") in
  Alcotest.(check (option bool)) "unbound" None (Cond.eval s unbound)

let test_cond_arith () =
  let s =
    subst_bind
      [ ("z", Kg.Term.int 1951) ]
      [ ("t", iv 1984 1986); ("u", iv 1951 2017) ]
  in
  (* start(t) - start(u) < 20: 1984 - 1951 = 33, so false. *)
  let age_cond =
    Cond.Cmp
      (Cond.Lt, Cond.Sub (Cond.Start_of (Lterm.Tvar "t"),
                          Cond.Start_of (Lterm.Tvar "u")),
       Cond.Num 20)
  in
  Alcotest.(check (option bool)) "33 < 20 false" (Some false)
    (Cond.eval s age_cond);
  let len_cond =
    Cond.Cmp (Cond.Eq_cmp, Cond.Length_of (Lterm.Tvar "t"), Cond.Num 3)
  in
  Alcotest.(check (option bool)) "length" (Some true) (Cond.eval s len_cond);
  let value_cond =
    Cond.Cmp
      (Cond.Ge, Cond.Sub (Cond.End_of (Lterm.Tvar "u"), Cond.Value_of (Lterm.var "z")),
       Cond.Num 66)
  in
  Alcotest.(check (option bool)) "2017-1951 >= 66" (Some true)
    (Cond.eval s value_cond);
  (* Value_of a non-numeric constant: not evaluable. *)
  let s2 = subst_bind [ ("z", Kg.Term.iri "Chelsea") ] [] in
  Alcotest.(check (option bool)) "non-numeric" None
    (Cond.eval s2 (Cond.Cmp (Cond.Lt, Cond.Value_of (Lterm.var "z"), Cond.Num 1)))

let test_cond_eq_neq () =
  let s = subst_bind [ ("y", Kg.Term.iri "a"); ("z", Kg.Term.iri "b") ] [] in
  Alcotest.(check (option bool)) "neq" (Some true)
    (Cond.eval s (Cond.Neq (Lterm.var "y", Lterm.var "z")));
  Alcotest.(check (option bool)) "eq false" (Some false)
    (Cond.eval s (Cond.Eq (Lterm.var "y", Lterm.var "z")));
  Alcotest.(check (option bool)) "eq self" (Some true)
    (Cond.eval s (Cond.Eq (Lterm.var "y", Lterm.var "y")))

let test_rule_safety () =
  let body =
    [ quad_atom "coach" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t") ]
  in
  (* Head variable not bound by the body. *)
  (match
     Rule.make ~name:"bad" ~body
       (Rule.Infer (quad_atom "p" (Lterm.var "x") (Lterm.var "w") (Lterm.Tvar "t")))
   with
  | exception Rule.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unsafe head accepted");
  (* Condition variable not bound. *)
  (match
     Rule.make ~name:"bad2" ~body
       ~conditions:[ Cond.Neq (Lterm.var "x", Lterm.var "q") ]
       Rule.Bottom
   with
  | exception Rule.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unsafe condition accepted");
  (* Temporal head variable not bound. *)
  (match
     Rule.make ~name:"bad3" ~body
       (Rule.Require
          (Cond.allen_set (Kg.Allen.Set.singleton Kg.Allen.Before) (Lterm.Tvar "t") (Lterm.Tvar "nope")))
   with
  | exception Rule.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unsafe temporal accepted");
  (* Safe rule passes. *)
  let ok =
    Rule.make ~name:"ok" ~weight:2.5 ~body
      (Rule.Infer (quad_atom "worksFor" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t")))
  in
  Alcotest.(check bool) "inference" true (Rule.is_inference ok);
  Alcotest.(check bool) "soft" false (Rule.is_hard ok)

(* [check_safety] names every unbound variable, object ones first; a
   rule edited after [make] is checked the same way. *)
let test_rule_check_safety () =
  let body =
    [ quad_atom "coach" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t") ]
  in
  let ok =
    Rule.make ~name:"ok" ~body
      (Rule.Infer (quad_atom "worksFor" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t")))
  in
  Alcotest.(check bool) "safe rule" true (Rule.check_safety ok = Ok ());
  let unsafe =
    {
      ok with
      Rule.name = "loose";
      head =
        Rule.Infer
          (quad_atom "worksFor" (Lterm.var "x") (Lterm.var "w") (Lterm.Tvar "u"));
    }
  in
  Alcotest.(check (result unit string))
    "unbound variables named"
    (Error "unsafe rule loose: unbound variable(s) ?w, ?u")
    (Rule.check_safety unsafe);
  Alcotest.(check bool) "denial of the body is safe" true
    (Rule.check_safety { ok with Rule.head = Rule.Bottom } = Ok ())

let test_lterm_pp_time () =
  let t = Lterm.Tvar "t" and u = Lterm.Tvar "u" in
  Alcotest.(check string) "variable" "?t" (Format.asprintf "%a" Lterm.pp_time t);
  Alcotest.(check string) "constant" "[2000,2004]"
    (Format.asprintf "%a" Lterm.pp_time (Lterm.Tconst (iv 2000 2004)));
  Alcotest.(check string) "nested intersection and hull" "(?t n (?u u [1,2]))"
    (Format.asprintf "%a" Lterm.pp_time
       (Lterm.Tinter (t, Lterm.Thull (u, Lterm.Tconst (iv 1 2)))))

let test_rule_validation () =
  (match Rule.make ~name:"empty" ~body:[] Rule.Bottom with
  | exception Rule.Ill_formed _ -> ()
  | _ -> Alcotest.fail "empty body accepted");
  match
    Rule.make ~name:"negweight" ~weight:(-1.0)
      ~body:[ Atom.make "p" [ Lterm.var "x" ] ]
      Rule.Bottom
  with
  | exception Rule.Ill_formed _ -> ()
  | _ -> Alcotest.fail "negative weight accepted"

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let test_rule_pp () =
  let r =
    Rule.make ~name:"c2"
      ~conditions:[ Cond.Neq (Lterm.var "y", Lterm.var "z") ]
      ~body:
        [
          quad_atom "coach" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t");
          quad_atom "coach" (Lterm.var "x") (Lterm.var "z") (Lterm.Tvar "u");
        ]
      (Rule.Require
         (Cond.allen_set Kg.Allen.Set.disjoint (Lterm.Tvar "t") (Lterm.Tvar "u")))
  in
  let s = Rule.to_string r in
  Alcotest.(check bool) "mentions name" true
    (String.length s > 0 && String.sub s 0 2 = "c2");
  Alcotest.(check bool) "hard marker" true (contains_substring s "[hard]")

let () =
  Alcotest.run "logic"
    [
      ( "subst",
        [
          Alcotest.test_case "bind conflict" `Quick test_subst_bind_conflict;
          Alcotest.test_case "eval_time" `Quick test_subst_eval_time;
          Alcotest.test_case "lterm vars" `Quick test_lterm_vars;
          Alcotest.test_case "lterm pp_time" `Quick test_lterm_pp_time;
        ] );
      ( "atom",
        [
          Alcotest.test_case "vars" `Quick test_atom_vars;
          Alcotest.test_case "instantiate" `Quick test_atom_instantiate;
          Alcotest.test_case "quad conversion" `Quick test_ground_quad_conversion;
        ] );
      ( "cond",
        [
          Alcotest.test_case "allen" `Quick test_cond_allen;
          Alcotest.test_case "arith" `Quick test_cond_arith;
          Alcotest.test_case "eq/neq" `Quick test_cond_eq_neq;
        ] );
      ( "rule",
        [
          Alcotest.test_case "safety" `Quick test_rule_safety;
          Alcotest.test_case "check_safety" `Quick test_rule_check_safety;
          Alcotest.test_case "validation" `Quick test_rule_validation;
          Alcotest.test_case "pp" `Quick test_rule_pp;
        ] );
    ]
