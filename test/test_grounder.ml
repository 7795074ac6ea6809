(* Tests for the atom store, relational body grounding and the closure. *)

module Store = Grounder.Atom_store
module Ground = Grounder.Ground
module Body = Grounder.Body
open Logic

let iv = Kg.Interval.make

(* An empty store over a fresh graph's symbol table. *)
let new_store () = Store.create (Kg.Graph.symbols (Kg.Graph.create ()))

let quad_atom p s o t = Atom.quad_pattern p ~subject:s ~object_:o ~time:t

let cr_graph () =
  Kg.Graph.of_list
    [
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Leicester") (2015, 2017) 0.7;
      Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
      Kg.Quad.v "CR" "birthDate" (Kg.Term.int 1951) (1951, 2017) 1.0;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
    ]

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let test_store_of_graph () =
  let store = Store.of_graph (cr_graph ()) in
  Alcotest.(check int) "five atoms" 5 (Store.size store);
  Store.iter
    (fun id _atom origin ->
      Alcotest.(check bool) "all evidence" true
        (match origin with Store.Evidence _ -> true | Store.Hidden -> false);
      Alcotest.(check bool) "evidence flag" true (Store.is_evidence store id))
    store

let test_store_intern_dedup () =
  let store = new_store () in
  let atom =
    Atom.Ground.make ~time:(iv 1 2) "p" [ Kg.Term.iri "a"; Kg.Term.iri "b" ]
  in
  let id1 = Store.intern store Store.Hidden atom in
  let id2 = Store.intern store Store.Hidden atom in
  Alcotest.(check int) "same id" id1 id2;
  Alcotest.(check int) "size 1" 1 (Store.size store);
  Alcotest.(check bool) "find" true (Store.find store atom = Some id1)

let test_store_evidence_upgrade () =
  let store = new_store () in
  let atom =
    Atom.Ground.make ~time:(iv 1 2) "p" [ Kg.Term.iri "a"; Kg.Term.iri "b" ]
  in
  let id = Store.intern store Store.Hidden atom in
  Alcotest.(check bool) "hidden" false (Store.is_evidence store id);
  let id' =
    Store.intern store (Store.Evidence { confidence = 0.7; fact = 0 }) atom
  in
  Alcotest.(check int) "same id" id id';
  Alcotest.(check bool) "upgraded" true (Store.is_evidence store id);
  (* Higher confidence wins. *)
  ignore (Store.intern store (Store.Evidence { confidence = 0.9; fact = 1 }) atom);
  (match Store.origin store id with
  | Store.Evidence { confidence; _ } ->
      Alcotest.(check bool) "max confidence" true (confidence = 0.9)
  | Store.Hidden -> Alcotest.fail "should stay evidence");
  (* Lower confidence does not downgrade. *)
  ignore (Store.intern store (Store.Evidence { confidence = 0.2; fact = 2 }) atom);
  match Store.origin store id with
  | Store.Evidence { confidence; _ } ->
      Alcotest.(check bool) "still max" true (confidence = 0.9)
  | Store.Hidden -> Alcotest.fail "should stay evidence"

let test_store_tables () =
  let store = Store.of_graph (cr_graph ()) in
  (match Store.table_for store "coach" ~arity:2 ~temporal:true with
  | Some t ->
      Alcotest.(check int) "coach rows" 3 (Reldb.Table.cardinal t);
      Alcotest.(check string) "table name scheme" "coach/2@" (Reldb.Table.name t)
  | None -> Alcotest.fail "coach table missing");
  Alcotest.(check bool) "absent predicate" true
    (Store.table_for store "zzz" ~arity:2 ~temporal:true = None)

let test_grounding_tables_queryable () =
  (* The extension tables are plain code columns: every row reads back
     as the atom its [atom] cell names. *)
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
        Kg.Quad.v "Kid" "coach" (Kg.Term.iri "Ajax") (2010, 2012) 0.8;
      ]
  in
  let store = Store.of_graph graph in
  let table =
    match Store.table_for store "coach" ~arity:2 ~temporal:true with
    | Some t -> t
    | None -> Alcotest.fail "coach/2@ missing"
  in
  let module Tbl = Reldb.Table in
  let module V = Reldb.Value in
  let cell ~row name = (Tbl.column_data table (Tbl.column_index table name)).(row) in
  let syms = Store.symbols store in
  let some = function Some v -> v | None -> Alcotest.fail "mistyped cell" in
  let cr_rows = ref 0 in
  for row = 0 to Tbl.cardinal table - 1 do
    let subject = some (V.decode_term syms (cell ~row "a0")) in
    let stored =
      Atom.Ground.make
        ~time:(some (V.decode_interval syms (cell ~row "t")))
        "coach"
        [ subject; some (V.decode_term syms (cell ~row "a1")) ]
    in
    let id = V.payload (cell ~row "atom") in
    Alcotest.(check string) "atom cell names the interned atom"
      (Atom.Ground.to_string stored)
      (Atom.Ground.to_string (Store.atom store id));
    Alcotest.(check (option int)) "and the store agrees" (Some id)
      (Store.find store stored);
    if Kg.Term.equal subject (Kg.Term.iri "CR") then incr cr_rows
  done;
  Alcotest.(check int) "CR rows" 2 !cr_rows

let test_body_single_atom () =
  let store = Store.of_graph (cr_graph ()) in
  let rule =
    Rule.make ~name:"r" ~weight:1.0
      ~body:[ quad_atom "coach" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t") ]
      (Rule.Infer (quad_atom "worksFor" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t")))
  in
  let bindings = Body.all store rule in
  Alcotest.(check int) "three coach bindings" 3 (List.length bindings);
  List.iter
    (fun { Body.subst; body_atoms } ->
      Alcotest.(check int) "one body atom" 1 (List.length body_atoms);
      Alcotest.(check bool) "x is CR" true
        (Subst.eval_term subst (Lterm.var "x") = Some (Kg.Term.iri "CR")))
    bindings

let test_body_join_with_condition () =
  let store = Store.of_graph (cr_graph ()) in
  let rule =
    List.hd
      (parse_rules
         "constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .")
  in
  let bindings = Body.all store rule in
  (* 3 coach facts, ordered pairs with distinct objects: 3*2 = 6. *)
  Alcotest.(check int) "six ordered pairs" 6 (List.length bindings)

let test_body_constant_filter () =
  let store = Store.of_graph (cr_graph ()) in
  let rule =
    Rule.make ~name:"r"
      ~body:[ quad_atom "coach" (Lterm.var "x") (Lterm.const (Kg.Term.iri "Chelsea")) (Lterm.Tvar "t") ]
      Rule.Bottom
  in
  Alcotest.(check int) "only chelsea" 1 (List.length (Body.all store rule))

let test_body_constant_interval () =
  let store = Store.of_graph (cr_graph ()) in
  let rule =
    Rule.make ~name:"r"
      ~body:
        [ quad_atom "coach" (Lterm.var "x") (Lterm.var "y")
            (Lterm.Tconst (iv 2015 2017)) ]
      Rule.Bottom
  in
  Alcotest.(check int) "only leicester" 1 (List.length (Body.all store rule))

let test_body_missing_predicate () =
  let store = Store.of_graph (cr_graph ()) in
  let rule =
    Rule.make ~name:"r"
      ~body:[ quad_atom "zzz" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t") ]
      Rule.Bottom
  in
  Alcotest.(check int) "no bindings" 0 (List.length (Body.all store rule))

let test_body_rejects_computed_time () =
  let store = Store.of_graph (cr_graph ()) in
  let rule =
    Rule.make ~name:"r"
      ~body:
        [
          quad_atom "coach" (Lterm.var "x") (Lterm.var "y") (Lterm.Tvar "t");
          quad_atom "coach" (Lterm.var "x") (Lterm.var "z")
            (Lterm.Tinter (Lterm.Tvar "t", Lterm.Tvar "t"));
        ]
      Rule.Bottom
  in
  match Body.all store rule with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "computed body time accepted"

let test_closure_derives () =
  let store = Store.of_graph (cr_graph ()) in
  let rules =
    parse_rules "rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t ."
  in
  ignore (Ground.run store rules);
  let hidden = Instance_view.hidden store in
  Alcotest.(check int) "one derived atom" 1 (List.length hidden);
  Alcotest.(check int) "six atoms total" 6 (Store.size store);
  let derived = List.hd hidden in
  Alcotest.(check string) "derived atom"
    "worksFor(CR, Palermo)@[1984,1986]"
    (Atom.Ground.to_string (Store.atom store derived));
  Alcotest.(check bool) "derived is hidden" false (Store.is_evidence store derived)

(* f1 feeds f2: declared in that order, both close in one pass; the
   other way round, f2 joins again in a second pass, after f1 derived
   its input. The atoms are the same. *)
let test_closure_chain () =
  let ground rules =
    let graph =
      Kg.Graph.of_list
        [
          Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
          Kg.Quad.v "Palermo" "locatedIn" (Kg.Term.iri "Sicily") (1900, 2017)
            1.0;
        ]
    in
    let store = Store.of_graph graph in
    let result = Ground.run store (parse_rules rules) in
    let hidden =
      List.map
        (fun id -> Atom.Ground.to_string (Store.atom store id))
        (Instance_view.hidden store)
    in
    (result, hidden)
  in
  let f1 = "rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .\n"
  and f2 =
    "rule f2 1.6: worksFor(x, y)@t ^ locatedIn(y, z)@t2 ^ intersects(t, t2) \
     => livesIn(x, z)@(t * t2) .\n"
  in
  let result, hidden = ground (f1 ^ f2) in
  (* livesIn gets the computed intersection interval. *)
  Alcotest.(check (list string))
    "two derived"
    [ "worksFor(CR, Palermo)@[1984,1986]"; "livesIn(CR, Sicily)@[1984,1986]" ]
    hidden;
  Alcotest.(check int) "one round" 1 result.Ground.rounds;
  Alcotest.(check (array int)) "each rule joined once" [| 1; 1 |]
    result.Ground.joins;
  let result, reversed = ground (f2 ^ f1) in
  Alcotest.(check (list string)) "same atoms, f2 first" hidden reversed;
  Alcotest.(check int) "two rounds, f2 first" 2 result.Ground.rounds;
  Alcotest.(check (array int)) "f2 joined again" [| 2; 1 |]
    result.Ground.joins

(* The sum of a counter over the whole report. *)
let counter_total (r : Obs.Report.t) name =
  let own counters = Option.value ~default:0. (List.assoc_opt name counters) in
  let rec node (n : Obs.Report.node) =
    List.fold_left
      (fun acc c -> acc +. node c)
      (own n.Obs.Report.counters) n.Obs.Report.children
  in
  List.fold_left (fun acc n -> acc +. node n) (own r.Obs.Report.counters)
    r.Obs.Report.spans

(* FootballDB's rules each read only evidence, and with lazy
   constraints every joined row is an instance: each rule is joined
   exactly once, so the rows joined are the instances. *)
let test_each_rule_joined_once () =
  let d = Datagen.Footballdb.generate ~seed:1 ~players:150 ~noise_ratio:0.5 () in
  let rules = Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules () in
  let store = Store.of_graph d.Datagen.Footballdb.graph in
  Obs.reset ();
  Obs.set_enabled true;
  let result, report =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        let result = Ground.run ~lazy_constraints:true store rules in
        (result, Obs.Report.capture ()))
  in
  let instances = Array.length result.Ground.instances.Ground.rule in
  Alcotest.(check bool) "some instances" true (instances > 0);
  Alcotest.(check (float 0.)) "join_rows = instances" (float_of_int instances)
    (counter_total report "ground.join_rows");
  Alcotest.(check (array int)) "one join per rule"
    (Array.make (List.length rules) 1)
    result.Ground.joins

let test_instances_heads () =
  let store = Store.of_graph (cr_graph ()) in
  let rules =
    parse_rules
      {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .|}
  in
  let result = Ground.run store rules in
  let violated, satisfied, derives =
    List.fold_left
      (fun (v, s, d) i ->
        match i.Instance_view.head with
        | Instance_view.Violated -> (v + 1, s, d)
        | Instance_view.Satisfied -> (v, s + 1, d)
        | Instance_view.Derives _ -> (v, s, d + 1))
      (0, 0, 0) (Instance_view.of_result result)
  in
  (* Chelsea/Napoli clash in both orders: 2 violated; the other 4 ordered
     pairs are disjoint: satisfied. *)
  Alcotest.(check int) "violated" 2 violated;
  Alcotest.(check int) "satisfied" 4 satisfied;
  Alcotest.(check int) "derives" 1 derives

let test_equality_generating_head () =
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "P" "birthDate" (Kg.Term.int 1951) (1951, 2017) 0.9;
        Kg.Quad.v "P" "birthDate" (Kg.Term.int 1953) (1953, 2017) 0.6;
      ]
  in
  let store = Store.of_graph graph in
  let rules =
    parse_rules
      "constraint b: birthDate(x, y)@t ^ birthDate(x, z)@t2 ^ intersects(t, t2) => y = z ."
  in
  let result = Ground.run store rules in
  let violated =
    List.filter
      (fun i -> i.Instance_view.head = Instance_view.Violated)
      (Instance_view.of_result result)
  in
  (* (1951,1953) and (1953,1951): both violate y = z. The reflexive
     pairings satisfy it. *)
  Alcotest.(check int) "two violations" 2 (List.length violated)

let test_arith_condition_grounding () =
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "Kid" "playsFor" (Kg.Term.iri "Ajax") (2010, 2012) 0.8;
        Kg.Quad.v "Kid" "birthDate" (Kg.Term.int 1994) (1994, 2017) 0.95;
        Kg.Quad.v "Old" "playsFor" (Kg.Term.iri "Ajax") (2010, 2012) 0.8;
        Kg.Quad.v "Old" "birthDate" (Kg.Term.int 1970) (1970, 2017) 0.95;
      ]
  in
  let store = Store.of_graph graph in
  let rules =
    parse_rules
      "rule f3 2.9: playsFor(x, y)@t ^ birthDate(x, z)@t2 ^ t - t2 < 20 => TeenPlayer(x) ."
  in
  ignore (Ground.run store rules);
  (* Kid: 2010-1994=16 < 20 fires; Old: 2010-1970=40 does not. *)
  Alcotest.(check int) "one derived" 1
    (List.length (Instance_view.hidden store));
  let teen =
    Store.find store (Atom.Ground.make "TeenPlayer" [ Kg.Term.iri "Kid" ])
  in
  Alcotest.(check bool) "Kid is the teen" true (teen <> None)

let test_closure_terminates () =
  (* A self-feeding rule must reach a fixpoint, not loop. *)
  let graph =
    Kg.Graph.of_list [ Kg.Quad.v "a" "p" (Kg.Term.iri "b") (1, 10) 0.9 ]
  in
  let store = Store.of_graph graph in
  let rules = parse_rules "rule loop 1: p(x, y)@t => p(x, y)@t ." in
  ignore (Ground.run store rules);
  Alcotest.(check int) "nothing new" 0
    (List.length (Instance_view.hidden store))

(* Properties over the intern layer: the process-wide symbol table and
   the code-packed atom store must both be loss-free dictionaries —
   decoding returns the value interned, re-interning is the identity on
   ids, and distinct values get distinct ids. *)

let arbitrary_term =
  QCheck.(
    oneof
      [
        map (fun i -> Kg.Term.iri (Printf.sprintf "e%d" i)) (int_range 0 500);
        map Kg.Term.str (string_of_size (Gen.int_range 0 8));
        map Kg.Term.int (int_range (-1000) 1000);
        (* Eighths are exact in binary, so structural equality holds. *)
        map (fun i -> Kg.Term.float (float_of_int i /. 8.))
          (int_range (-800) 800);
      ])

(* One graph's table across all cases, so lookups hit earlier cases'
   symbols as well as fresh ones. *)
let shared_symbols = Kg.Graph.symbols (Kg.Graph.create ())

let qcheck_symbol_roundtrip =
  QCheck.Test.make ~name:"Graph symbols: term/interval intern round-trips"
    ~count:500
    QCheck.(pair arbitrary_term (pair (int_range 0 3000) (int_range 0 50)))
    (fun (t, (lo, len)) ->
      let s = shared_symbols in
      let id = Kg.Graph.intern_term s t in
      let iv = Kg.Interval.make lo (lo + len) in
      let iid = Kg.Graph.intern_interval s iv in
      Kg.Term.equal (Kg.Graph.term s id) t
      && Kg.Graph.intern_term s t = id
      && Kg.Graph.find_term s t = Some id
      && id < Kg.Graph.term_count s
      && Kg.Interval.(
           lo (Kg.Graph.interval s iid) = lo iv
           && hi (Kg.Graph.interval s iid) = hi iv)
      && Kg.Graph.intern_interval s iv = iid
      && Kg.Graph.find_interval s iv = Some iid
      && iid < Kg.Graph.interval_count s)

let arbitrary_ground_atom =
  QCheck.(
    map
      (fun (p, args, time) ->
        let time = Option.map (fun (lo, len) -> iv lo (lo + len)) time in
        Atom.Ground.make ?time p args)
      (triple
         (oneofl [ "p"; "q"; "r" ])
         (list_of_size (Gen.int_range 0 3) arbitrary_term)
         (option (pair (int_range 0 100) (int_range 0 20)))))

let qcheck_store_roundtrip =
  QCheck.Test.make
    ~name:"Atom_store: intern/decode round-trips, distinct atoms distinct ids"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 0 25) arbitrary_ground_atom)
    (fun atoms ->
      let store = new_store () in
      let ids = List.map (Store.intern store Store.Hidden) atoms in
      let distinct = List.sort_uniq compare atoms in
      Store.size store = List.length distinct
      && List.for_all2
           (fun atom id ->
             Store.atom store id = atom
             && Store.find store atom = Some id
             && Store.intern store Store.Hidden atom = id)
           atoms ids)

(* Differential: [Body.all] against a nested-loop enumeration over
   [Atom_store.iter] that never touches the relational tables. Small
   random stores over three predicate shapes, and rules of one to three
   body atoms mixing constants, repeated variables and an Allen or
   numeric condition. Compared as multisets of (substitution, body
   atoms). *)

let body_consts = [| "a"; "b"; "c" |]
let body_intervals = [| iv 1 3; iv 2 5; iv 4 6 |]

(* Predicate shapes: p and q are binary temporal, r is unary atemporal;
   q's objects are small integers so numeric conditions have values. *)
let body_shape = function
  | "p" | "q" -> (2, true)
  | _ -> (1, false)

let gen_body_case =
  let open QCheck.Gen in
  let pred = oneofl [ "p"; "q"; "r" ] in
  let const pred j =
    if pred = "q" && j = 1 then map Kg.Term.int (int_range 1 3)
    else map (fun i -> Kg.Term.iri body_consts.(i)) (int_range 0 2)
  in
  let fact =
    pred >>= fun p ->
    let arity, temporal = body_shape p in
    let* args = flatten_l (List.init arity (const p)) in
    let* time = map (fun i -> body_intervals.(i)) (int_range 0 2) in
    return (Atom.Ground.make ?time:(if temporal then Some time else None) p args)
  in
  let body_atom =
    pred >>= fun p ->
    let arity, temporal = body_shape p in
    let arg j =
      frequency
        [
          (3, map Lterm.var (oneofl [ "x"; "y"; "z" ]));
          (1, map (fun c -> Lterm.Const c) (const p j));
        ]
    in
    let* args = flatten_l (List.init arity arg) in
    let* time =
      frequency
        [
          (3, map (fun v -> Lterm.Tvar v) (oneofl [ "t"; "u" ]));
          (1, map (fun i -> Lterm.Tconst body_intervals.(i)) (int_range 0 2));
        ]
    in
    return (Atom.make ?time:(if temporal then Some time else None) p args)
  in
  let* facts = list_size (int_range 0 12) fact in
  let* body = list_size (int_range 1 3) body_atom in
  let* relation = oneofl Kg.Allen.all in
  let* cmp = oneofl Cond.[ Lt; Le; Gt; Ge; Eq_cmp; Ne_cmp ] in
  let* bound = int_range 0 4 in
  let* kind = int_range 0 3 in
  let* pick = int_range 0 8 in
  let body_vars = List.sort_uniq compare (List.concat_map Atom.vars body) in
  let body_tvars = List.sort_uniq compare (List.concat_map Atom.tvars body) in
  let nth l = List.nth l (pick mod List.length l) in
  let nth' l = List.nth l (pick / 3 mod List.length l) in
  let conditions =
    match kind with
    | 0 when body_tvars <> [] ->
        [ Cond.allen_set (Kg.Allen.Set.singleton relation) (Lterm.Tvar (nth body_tvars))
            (Lterm.Tvar (nth' body_tvars)) ]
    | 1 when body_tvars <> [] ->
        [ Cond.Cmp (cmp, Cond.Start_of (Lterm.Tvar (nth body_tvars)), Cond.Num bound) ]
    | 2 when body_vars <> [] ->
        [ Cond.Cmp (cmp, Cond.Value_of (Lterm.var (nth body_vars)), Cond.Num bound) ]
    | 3 when body_vars <> [] ->
        [ Cond.Neq (Lterm.var (nth body_vars), Lterm.var (nth' body_vars)) ]
    | _ -> []
  in
  return (facts, Rule.make ~name:"r" ~conditions ~body Rule.Bottom)

let print_body_case (facts, rule) =
  String.concat " . " (List.map Atom.Ground.to_string facts)
  ^ " |- " ^ Rule.to_string rule

(* A binding as comparable data: the bindings of the rule body's
   variables and time variables, sorted, plus the body atom ids. *)
let canonical_binding (rule : Rule.t) subst body_atoms =
  let sorted vars = List.sort_uniq compare (List.concat_map vars rule.body) in
  ( List.map
      (fun v ->
        let c = Option.get (Subst.eval_term subst (Lterm.var v)) in
        (v, Kg.Term.to_string c))
      (sorted Atom.vars),
    List.map
      (fun v ->
        let i = Option.get (Subst.eval_time subst (Lterm.Tvar v)) in
        (v, Kg.Interval.lo i, Kg.Interval.hi i))
      (sorted Atom.tvars),
    body_atoms )

let brute_force_bindings store (rule : Rule.t) =
  let atoms = ref [] in
  Store.iter (fun id atom _ -> atoms := (id, atom) :: !atoms) store;
  let atoms = List.rev !atoms in
  let match_atom subst (pattern : Atom.t) (ground : Atom.Ground.t) =
    let bind_arg subst term value =
      Option.bind subst (fun s ->
          match term with
          | Lterm.Var v -> Subst.bind s v value
          | Lterm.Const c -> if Kg.Term.equal c value then Some s else None)
    in
    if
      pattern.predicate <> ground.predicate
      || List.length pattern.args <> List.length ground.args
      || Option.is_some pattern.time <> Option.is_some ground.time
    then None
    else
      let subst =
        List.fold_left2 bind_arg (Some subst) pattern.args ground.args
      in
      match (pattern.time, ground.time) with
      | Some (Lterm.Tvar v), Some i -> Option.bind subst (fun s -> Subst.bind_time s v i)
      | Some (Lterm.Tconst c), Some i ->
          if Kg.Interval.equal c i then subst else None
      | _ -> subst
  in
  let rec extend subst ids = function
    | [] ->
        if List.for_all (fun c -> Cond.eval subst c = Some true) rule.conditions
        then [ canonical_binding rule subst (List.rev ids) ]
        else []
    | pattern :: rest ->
        List.concat_map
          (fun (id, ground) ->
            match match_atom subst pattern ground with
            | Some subst -> extend subst (id :: ids) rest
            | None -> [])
          atoms
  in
  extend Subst.empty [] rule.body

let qcheck_body_matches_brute_force =
  QCheck.Test.make ~name:"Body.all = nested-loop enumeration" ~count:500
    (QCheck.make ~print:print_body_case gen_body_case)
    (fun (facts, rule) ->
      let store = new_store () in
      List.iter (fun atom -> ignore (Store.intern store Store.Hidden atom)) facts;
      let fast =
        List.map
          (fun { Body.subst; body_atoms } ->
            canonical_binding rule subst body_atoms)
          (Body.all store rule)
      in
      List.sort compare fast = List.sort compare (brute_force_bindings store rule))

(* The condition compiler answers exactly what [Cond.eval] answers on
   the decoded row, for a condition and for its negation. Rows bind x,
   y, z to terms (numeric and not) and t, u to intervals; conditions
   also mention the unbound w and v, constants that were never
   interned, and intersections that may be empty. *)
let cond_terms =
  Kg.Term.[| iri "a"; iri "b"; int 3; int (-2); str "7"; str "x"; float 2.0 |]

let cond_intervals = [| iv 1 3; iv 2 5; iv 4 6; iv 5 5; iv 8 9 |]

let gen_cond_case =
  let open QCheck.Gen in
  let never = Kg.Term.iri "cond-never-interned" in
  let term =
    frequency
      [
        (4, map Lterm.var (oneofl [ "x"; "y"; "z" ]));
        (1, return (Lterm.var "w"));
        (2, map (fun c -> Lterm.Const c) (oneofa cond_terms));
        (1, return (Lterm.Const never));
      ]
  in
  let rec ttime depth =
    let leaf =
      frequency
        [
          (4, map (fun v -> Lterm.Tvar v) (oneofl [ "t"; "u" ]));
          (1, return (Lterm.Tvar "v"));
          (1, map (fun i -> Lterm.Tconst i) (oneofa cond_intervals));
        ]
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map2 (fun a b -> Lterm.Tinter (a, b)) (ttime (depth - 1)) (ttime (depth - 1)));
          (1, map2 (fun a b -> Lterm.Thull (a, b)) (ttime (depth - 1)) (ttime (depth - 1)));
        ]
  in
  let rec arith depth =
    let leaf =
      frequency
        [
          (2, map (fun n -> Cond.Num n) (int_range (-3) 10));
          (1, map (fun t -> Cond.Start_of t) (ttime 2));
          (1, map (fun t -> Cond.End_of t) (ttime 2));
          (1, map (fun t -> Cond.Length_of t) (ttime 2));
          (2, map (fun t -> Cond.Value_of t) term);
        ]
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (1, map2 (fun a b -> Cond.Add (a, b)) (arith (depth - 1)) (arith (depth - 1)));
          (1, map2 (fun a b -> Cond.Sub (a, b)) (arith (depth - 1)) (arith (depth - 1)));
        ]
  in
  let cond =
    frequency
      [
        ( 2,
          let* rels = list_size (int_range 0 13) (oneofl Kg.Allen.all) in
          map2 (Cond.allen_set (Kg.Allen.Set.of_list rels)) (ttime 2) (ttime 2) );
        ( 3,
          let* op = oneofl Cond.[ Lt; Le; Gt; Ge; Eq_cmp; Ne_cmp ] in
          map2 (fun a b -> Cond.Cmp (op, a, b)) (arith 2) (arith 2) );
        (1, map2 (fun a b -> Cond.Eq (a, b)) term term);
        (1, map2 (fun a b -> Cond.Neq (a, b)) term term);
      ]
  in
  let* cond = cond in
  let* xs = array_repeat 3 (oneofa cond_terms) in
  let* ts = array_repeat 2 (oneofa cond_intervals) in
  return (cond, xs, ts)

let qcheck_condition_matches_eval =
  QCheck.Test.make ~name:"compiled condition = Cond.eval" ~count:2000
    (QCheck.make
       ~print:(fun (c, _, _) -> Format.asprintf "%a" Cond.pp c)
       gen_cond_case)
    (fun (cond, xs, ts) ->
      let syms = Kg.Graph.symbols (Kg.Graph.create ()) in
      let layout = Body.layout syms ~vars:[ "x"; "y"; "z" ] ~tvars:[ "t"; "u" ] in
      let row =
        Array.append
          (Array.map
             (fun t -> Reldb.Value.of_term_id (Kg.Graph.intern_term syms t))
             xs)
          (Array.map
             (fun i ->
               Reldb.Value.of_interval_id (Kg.Graph.intern_interval syms i))
             ts)
      in
      let subst = Option.get (Body.subst layout row) in
      Body.condition layout cond row = Cond.eval subst cond)

let () =
  Alcotest.run "grounder"
    [
      ( "store",
        [
          Alcotest.test_case "of_graph" `Quick test_store_of_graph;
          Alcotest.test_case "intern dedup" `Quick test_store_intern_dedup;
          Alcotest.test_case "evidence upgrade" `Quick test_store_evidence_upgrade;
          Alcotest.test_case "tables" `Quick test_store_tables;
          Alcotest.test_case "grounder tables queryable" `Quick
            test_grounding_tables_queryable;
          QCheck_alcotest.to_alcotest qcheck_symbol_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_store_roundtrip;
        ] );
      ( "body",
        [
          Alcotest.test_case "single atom" `Quick test_body_single_atom;
          Alcotest.test_case "join with condition" `Quick
            test_body_join_with_condition;
          Alcotest.test_case "constant filter" `Quick test_body_constant_filter;
          Alcotest.test_case "constant interval" `Quick test_body_constant_interval;
          Alcotest.test_case "missing predicate" `Quick test_body_missing_predicate;
          Alcotest.test_case "rejects computed time" `Quick
            test_body_rejects_computed_time;
          QCheck_alcotest.to_alcotest qcheck_body_matches_brute_force;
          QCheck_alcotest.to_alcotest qcheck_condition_matches_eval;
        ] );
      ( "closure",
        [
          Alcotest.test_case "derives" `Quick test_closure_derives;
          Alcotest.test_case "chain (f1 -> f2)" `Quick test_closure_chain;
          Alcotest.test_case "terminates" `Quick test_closure_terminates;
          Alcotest.test_case "each rule joined once" `Quick
            test_each_rule_joined_once;
        ] );
      ( "instances",
        [
          Alcotest.test_case "heads" `Quick test_instances_heads;
          Alcotest.test_case "equality-generating" `Quick
            test_equality_generating_head;
          Alcotest.test_case "arithmetic condition" `Quick
            test_arith_condition_grounding;
        ] );
    ]
