(* Packed grounding ≡ boxed grounding.

   [Boxed] below is the grounder as it was before grounding moved onto
   interned codes, kept verbatim apart from module paths, the
   observability, deadline and replay-log plumbing, and its closure
   rounds, which leave out the final round that derives nothing. It
   re-joins every inference rule each round and joins every rule once
   more for the instances, where the packed grounder joins a rule only
   when its inputs grew. Binding rows are decoded into
   [Logic.Subst.t]s, heads are built with [Logic.Atom.instantiate],
   conditions are checked with [Logic.Cond.eval], and atoms are
   interned boxed — evidence through [Ground.of_quad]; instances are
   boxed records in one list. The packed
   grounder must build the same store (key, origin and evidence facts
   per id), the same instances — its flat buffer read back through
   {!Instance_view}, instance by instance: rule name, body atoms in
   order, head — and intern the same symbols in the same order. The
   store's hidden atoms must be exactly the boxed closure's derived
   list.

   Symbols are interned into the graph's own table, so each side
   grounds its own copy of the graph, and both start from the same
   table. A separate check builds a table the boxed way — each fact's
   predicate, subject, object and interval, fact by fact — and requires
   the graph's own table, which [Kg.Graph.add] filled, to equal it. *)

module Store = Grounder.Atom_store
module Ground = Grounder.Ground
module Instance = Instance_view

module Boxed_body = struct
  module Value = Reldb.Value
  module Table = Reldb.Table
  module Relalg = Reldb.Relalg

  type binding = {
    subst : Logic.Subst.t;
    body_atoms : Grounder.Atom_store.id list;
  }

  let var_col v = "?" ^ v
  let tvar_col v = "!" ^ v
  let atom_col i = "#" ^ string_of_int i

  let is_var_col c = String.length c > 0 && c.[0] = '?'
  let is_tvar_col c = String.length c > 0 && c.[0] = '!'

  let col_var c = String.sub c 1 (String.length c - 1)

  (* The code of a constant in the store's symbol table, [None] when it
     was never interned. *)
  let term_code store = Value.find_term (Grounder.Atom_store.symbols store)

  let interval_code store =
    Value.find_interval (Grounder.Atom_store.symbols store)

  (* Rebuild a substitution from one row of a bindings table, decoding
     only the variable columns. *)
  let subst_of_row symbols table =
    let typed =
      List.filter
        (fun (c, _) -> is_var_col c || is_tvar_col c)
        (List.mapi (fun i c -> (c, i)) (Table.columns table))
    in
    fun row ->
      List.fold_left
        (fun subst (c, col) ->
          match subst with
          | None -> None
          | Some s ->
              let code = (Table.column_data table col).(row) in
              if is_var_col c then
                match Value.decode_term symbols code with
                | Some term -> Logic.Subst.bind s (col_var c) term
                | None -> None
              else
                match Value.decode_interval symbols code with
                | Some iv -> Logic.Subst.bind_time s (col_var c) iv
                | None -> None)
        (Some Logic.Subst.empty) typed

  (* Compile a batch of conditions against a column layout into a filter
     over code rows. [conds] are [(cond, expected)] pairs: body conditions
     expect [true] (keep rows where the condition holds — [None] drops,
     matching eager evaluation); a pushed-down constraint-head condition
     expects [false] (drop only the rows that provably satisfy it, so a
     non-evaluable head still reaches the instance phase and raises there
     exactly as the eager path does). Only the columns the conditions
     actually mention are decoded. *)
  let compile_conditions symbols cols conds =
    let positions = List.mapi (fun i c -> (c, i)) cols in
    let needed =
      List.sort_uniq compare
        (List.concat_map
           (fun (cond, _) ->
             List.map (fun v -> `V v) (Logic.Cond.vars cond)
             @ List.map (fun v -> `T v) (Logic.Cond.tvars cond))
           conds)
    in
    let slots =
      List.map
        (fun need ->
          match need with
          | `V v -> (need, List.assoc (var_col v) positions)
          | `T v -> (need, List.assoc (tvar_col v) positions))
        needed
    in
    fun (codes : Value.code array) ->
      let subst =
        List.fold_left
          (fun subst (need, i) ->
            match subst with
            | None -> None
            | Some s -> (
                match need with
                | `V v -> (
                    match Value.decode_term symbols codes.(i) with
                    | Some term -> Logic.Subst.bind s v term
                    | None -> None)
                | `T v -> (
                    match Value.decode_interval symbols codes.(i) with
                    | Some iv -> Logic.Subst.bind_time s v iv
                    | None -> None)))
          (Some Logic.Subst.empty) slots
      in
      match subst with
      | None -> false
      | Some s ->
          List.for_all
            (fun (cond, expected) ->
              if expected then Logic.Cond.eval s cond = Some true
              else Logic.Cond.eval s cond <> Some true)
            conds

  (* A condition is ready once every variable it mentions has a column. *)
  let split_ready cols pending =
    List.partition
      (fun (cond, _) ->
        List.for_all (fun v -> List.mem (var_col v) cols) (Logic.Cond.vars cond)
        && List.for_all
             (fun v -> List.mem (tvar_col v) cols)
             (Logic.Cond.tvars cond))
      pending

  (* Transform one body atom's extension table into a bindings fragment:
     one fused columnar pass selects constants and intra-atom repeated
     variables, renames argument columns to variable columns and keeps
     one column per variable plus the atom-id column. *)
  let atom_fragment store index (atom : Logic.Atom.t) =
    let temporal = Option.is_some atom.time in
    let arity = List.length atom.args in
    match Grounder.Atom_store.table_for store atom.predicate ~arity ~temporal with
    | None -> None
    | Some table ->
        let first_of_var = Hashtbl.create 8 in
        let keep = ref [] in
        let filters = ref [] in
        let unmatchable = ref false in
        List.iteri
          (fun j term ->
            match term with
            | Logic.Lterm.Const c -> (
                match term_code store c with
                | Some code -> filters := `Eq (j, code) :: !filters
                | None -> unmatchable := true)
            | Logic.Lterm.Var v -> (
                match Hashtbl.find_opt first_of_var v with
                | None ->
                    Hashtbl.replace first_of_var v j;
                    keep := (j, var_col v) :: !keep
                | Some first -> filters := `Same (j, first) :: !filters))
          atom.args;
        let tcol = arity in
        (match atom.time with
        | None -> ()
        | Some (Logic.Lterm.Tvar v) -> keep := (tcol, tvar_col v) :: !keep
        | Some (Logic.Lterm.Tconst i) -> (
            match interval_code store i with
            | Some code -> filters := `Eq (tcol, code) :: !filters
            | None -> unmatchable := true)
        | Some (Logic.Lterm.Tinter _ | Logic.Lterm.Thull _) ->
            invalid_arg
              (Printf.sprintf
                 "body atom %s: computed intervals are not allowed in bodies"
                 atom.predicate));
        keep := (arity + 1, atom_col index) :: !keep;
        if !unmatchable then
          (* A constant that was never interned occurs in no table. *)
          Some
            (Table.create
               ~name:(Table.name table ^ "'")
               ~columns:(List.map snd (List.rev !keep)))
        else
          Some
            (Relalg.filter_project table
               ~name:(Table.name table ^ "'")
               ~filters:(List.rev !filters) ~keep:(List.rev !keep))

  (* Join-order heuristic: fold the most selective fragments first.
     Greedy: start from the smallest extension, then repeatedly take the
     smallest remaining atom that shares a variable with what is already
     bound (falling back to the overall smallest when the join graph is
     disconnected and a product is unavoidable). Original body position
     breaks ties, and [atom_col] keeps the original position, so the
     produced bindings are order-insensitive.

     The size of an atom's fragment is not estimated: post-interning, the
     extension tables keep per-value occurrence counts, so an atom with a
     constant argument reads its actual cardinality in O(1) —
     [playsFor(x, Chelsea)@t] costs [count(a1 = Chelsea)] rows, not
     [count(playsFor)]. *)
  let atom_cardinality store (atom : Logic.Atom.t) =
    match
      Grounder.Atom_store.table_for store atom.predicate
        ~arity:(List.length atom.args)
        ~temporal:(Option.is_some atom.time)
    with
    | None -> 0
    | Some table ->
        let narrow acc col = function
          | None -> 0
          | Some code -> min acc (Table.count_for table ~col ~code)
        in
        let card = ref (Table.cardinal table) in
        List.iteri
          (fun j term ->
            match term with
            | Logic.Lterm.Const c -> card := narrow !card j (term_code store c)
            | Logic.Lterm.Var _ -> ())
          atom.args;
        (match atom.time with
        | Some (Logic.Lterm.Tconst i) ->
            card :=
              narrow !card (List.length atom.args) (interval_code store i)
        | _ -> ());
        !card

  let atom_vars (atom : Logic.Atom.t) =
    let term_vars =
      List.filter_map
        (function Logic.Lterm.Var v -> Some (var_col v) | Logic.Lterm.Const _ -> None)
        atom.args
    in
    match atom.time with
    | Some (Logic.Lterm.Tvar v) -> tvar_col v :: term_vars
    | _ -> term_vars

  let join_order store (rule : Logic.Rule.t) =
    let items =
      List.mapi (fun i a -> (i, a, atom_cardinality store a, atom_vars a)) rule.body
    in
    let smallest candidates =
      List.fold_left
        (fun best ((i, _, card, _) as item) ->
          match best with
          | Some (bi, _, bcard, _) when (bcard, bi) <= (card, i) -> best
          | _ -> Some item)
        None candidates
    in
    let rec pick bound acc = function
      | [] -> List.rev acc
      | remaining ->
          let connected =
            List.filter
              (fun (_, _, _, vars) -> List.exists (fun v -> List.mem v bound) vars)
              remaining
          in
          let candidates = if connected = [] then remaining else connected in
          let ((i, atom, _, vars) as chosen) =
            match smallest candidates with Some item -> item | None -> assert false
          in
          let remaining = List.filter (fun item -> item != chosen) remaining in
          pick (vars @ bound) ((i, atom) :: acc) remaining
    in
    pick [] [] items

  (* Evaluate the body as a left-deep join over the fragments, pushing
     conditions down into the first join (or scan) where all their
     variables are bound: the join's emit path evaluates them on the
     assembled row and rejected rows are never stored. [violation] is the
     head condition of a constraint rule with the polarity flipped — with
     it, combinations that satisfy the constraint never materialise, and
     every produced binding is a violation. *)
  let plan ?(pool = Prelude.Pool.sequential) ?violation store
      (rule : Logic.Rule.t) =
    let pending0 =
      List.map (fun c -> (c, true)) rule.conditions
      @ match violation with Some c -> [ (c, false) ] | None -> []
    in
    let rec loop acc pending = function
      | [] -> (acc, pending)
      | (index, atom) :: rest -> (
          match atom_fragment store index atom with
          | None -> (None, pending)
          | Some fragment -> (
              match acc with
              | None -> (None, pending)
              | Some bindings ->
                  let is_start =
                    Table.cardinal bindings = 0 && Table.columns bindings = []
                  in
                  let out_cols =
                    if is_start then Table.columns fragment
                    else
                      let bcols = Table.columns bindings in
                      bcols
                      @ List.filter
                          (fun c -> not (List.mem c bcols))
                          (Table.columns fragment)
                  in
                  let ready, still_pending = split_ready out_cols pending in
                  let filter =
                    match ready with
                    | [] -> None
                    | _ ->
                        Some
                          (compile_conditions
                             (Grounder.Atom_store.symbols store)
                             out_cols ready)
                  in
                  let joined =
                    if is_start then
                      match filter with
                      | None -> fragment
                      | Some f -> Relalg.select_codes f fragment
                    else begin
                      let shared =
                        List.filter
                          (fun c ->
                            (is_var_col c || is_tvar_col c)
                            && List.mem c (Table.columns bindings))
                          (Table.columns fragment)
                      in
                      if shared = [] then Relalg.product ?filter bindings fragment
                      else
                        Relalg.hash_join ~pool ?filter
                          ~on:(List.map (fun c -> (c, c)) shared)
                          bindings fragment
                    end
                  in
                  if Table.cardinal joined = 0 then (None, still_pending)
                  else loop (Some joined) still_pending rest))
    in
    let start = Table.create ~name:"empty" ~columns:[] in
    let result, pending =
      loop (Some start)
        pending0
        (join_order store rule)
    in
    match result with
    | None -> None
    | Some bindings ->
        (match pending with
        | [] -> ()
        | (c, _) :: _ ->
            (* Rule.make validates safety, so this is unreachable for rules
               built through the public API. *)
            invalid_arg
              (Format.asprintf "rule %s: condition %a has unbound variables"
                 rule.name Logic.Cond.pp c));
        Some bindings

  (* Stream the bindings straight out of the joined table: the table is
     fully materialised before the first [f] call, so a callback that
     interns new atoms (and thereby grows the extension tables) cannot
     perturb the iteration. At 10^6-fact scale this is what keeps the
     per-binding [Subst] records transient instead of pinned in a
     million-element list. *)
  let fold ?pool ?violation store (rule : Logic.Rule.t) ~init ~f =
    match plan ?pool ?violation store rule with
    | None -> init
    | Some bindings ->
        let to_subst =
          subst_of_row (Grounder.Atom_store.symbols store) bindings
        in
        let atom_positions =
          List.mapi (fun i _ -> Table.column_index bindings (atom_col i)) rule.body
        in
        let acc = ref init in
        for row = 0 to Table.cardinal bindings - 1 do
          match to_subst row with
          | None -> ()
          | Some subst ->
              let body_atoms =
                List.map
                  (fun col ->
                    Value.payload (Table.column_data bindings col).(row))
                  atom_positions
              in
              acc := f !acc { subst; body_atoms }
        done;
        !acc

end

module Boxed = struct
  module Body = Boxed_body
  module Atom_store = Store

  let of_graph graph =
    let t = Atom_store.create (Kg.Graph.symbols graph) in
    Kg.Graph.iter
      (fun fact q ->
        ignore
          (Atom_store.intern t
             (Atom_store.Evidence { confidence = q.Kg.Quad.confidence; fact })
             (Logic.Atom.Ground.of_quad q)))
      graph;
    t

  let head_atom (rule : Logic.Rule.t) =
    match rule.head with Logic.Rule.Infer a -> Some a | _ -> None

  let closure ?(max_rounds = 50) store rules =
    let inference = List.filter Logic.Rule.is_inference rules in
    let derived = ref [] in
    let rec loop round =
      if round > max_rounds then
        failwith
          (Printf.sprintf "Grounder.closure: no fixpoint after %d rounds"
             max_rounds);
      let before = Atom_store.size store in
      List.iter
        (fun rule ->
          match head_atom rule with
          | None -> ()
          | Some head ->
              Body.fold store rule ~init:()
                ~f:(fun () { Body.subst; _ } ->
                  match Logic.Atom.instantiate subst head with
                  | None -> () (* e.g. empty interval intersection *)
                  | Some ground ->
                      if Atom_store.find store ground = None then
                        derived :=
                          Atom_store.intern store Atom_store.Hidden ground
                          :: !derived))
        inference;
      let added = Atom_store.size store - before in
      if added > 0 then loop (round + 1) else round - 1
    in
    let rounds = loop 1 in
    (List.rev !derived, rounds)

  let instance_of_binding store (rule : Logic.Rule.t)
      { Body.subst; body_atoms } =
    match rule.head with
    | Logic.Rule.Infer head -> (
        match Logic.Atom.instantiate subst head with
        | None -> None
        | Some ground ->
            let id = Atom_store.intern store Atom_store.Hidden ground in
            Some { Instance.rule; body_atoms; head = Instance.Derives id })
    | Logic.Rule.Require cond -> (
        match Logic.Cond.eval subst cond with
        | Some true -> Some { Instance.rule; body_atoms; head = Instance.Satisfied }
        | Some false -> Some { Instance.rule; body_atoms; head = Instance.Violated }
        | None ->
            invalid_arg
              (Format.asprintf "rule %s: head condition %a not evaluable under %a"
                 rule.name Logic.Cond.pp cond Logic.Subst.pp subst))
    | Logic.Rule.Bottom ->
        Some { Instance.rule; body_atoms; head = Instance.Violated }

  let instances_of_rule ~lazy_constraints store (rule : Logic.Rule.t) =
    let violation =
      match rule.head with
      | Logic.Rule.Require cond when lazy_constraints -> Some cond
      | _ -> None
    in
    List.rev
      (Body.fold ?violation store rule ~init:[] ~f:(fun acc binding ->
           match instance_of_binding store rule binding with
           | Some inst -> inst :: acc
           | None -> acc))

  let run ~lazy_constraints store rules =
    let derived, rounds = closure store rules in
    let instances =
      List.concat_map (instances_of_rule ~lazy_constraints store) rules
    in
    (instances, derived, rounds)
end

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

(* The symbols of a table from code [terms0] and [intervals0] on. *)
let symbols_since syms (terms0, intervals0) =
  let b = Buffer.create 256 in
  for i = terms0 to Kg.Graph.term_count syms - 1 do
    Printf.bprintf b "term %d %S\n" i (Kg.Term.to_string (Kg.Graph.term syms i))
  done;
  for i = intervals0 to Kg.Graph.interval_count syms - 1 do
    Printf.bprintf b "interval %d %s\n" i
      (Kg.Interval.to_string (Kg.Graph.interval syms i))
  done;
  Buffer.contents b

let symbol_state syms = (Kg.Graph.term_count syms, Kg.Graph.interval_count syms)

(* Every atom (key, boxed view, origin, evidence facts), every instance
   (rule, body atoms, head), the derived atoms and the closure rounds of
   one grounding. *)
let digest store (instances, derived, rounds) =
  let b = Buffer.create 4096 in
  for id = 0 to Store.size store - 1 do
    Printf.bprintf b "atom %d [%s] %s %s [%s]\n" id
      (String.concat " " (Array.to_list (Array.map string_of_int (Store.key store id))))
      (Logic.Atom.Ground.to_string (Store.atom store id))
      (match Store.origin store id with
      | Store.Evidence { confidence; fact } -> Printf.sprintf "evidence(%h,%d)" confidence fact
      | Store.Hidden -> "hidden")
      (String.concat " " (List.map string_of_int (Store.evidence_facts store id)))
  done;
  List.iter
    (fun { Instance.rule; body_atoms; head } ->
      Printf.bprintf b "instance %s [%s] %s\n" rule.Logic.Rule.name
        (String.concat " " (List.map string_of_int body_atoms))
        (match head with
        | Instance.Derives id -> "derives " ^ string_of_int id
        | Instance.Satisfied -> "satisfied"
        | Instance.Violated -> "violated"))
    instances;
  Printf.bprintf b "derived [%s] rounds %d\n"
    (String.concat " " (List.map string_of_int derived))
    rounds;
  Buffer.contents b

(* The packed result in the digest's terms: the buffer as a list, and
   the store's hidden atoms as the derived ones. *)
let packed store (result : Ground.result) =
  digest store
    (Instance.of_result result, Instance.hidden store, result.Ground.rounds)

(* The digest of [f graph] plus the symbols it interned into the
   graph's table; a failure is part of the answer. *)
let run_digest graph f =
  let syms = Kg.Graph.symbols graph in
  let state = symbol_state syms in
  let d =
    match f graph with
    | d -> d
    | exception (Invalid_argument m | Failure m) -> "error: " ^ m
  in
  d ^ symbols_since syms state

(* [edit] (when given) is applied to the graph after a first grounding:
   the boxed side then grounds the edited graph from scratch, the
   packed side replays its recorded snapshot with [reground] — or, in
   the eager mode, which is never recorded, grounds afresh. *)
let boxed_digest ?edit ~lazy_constraints graph rules =
  run_digest graph (fun graph ->
      let store = Boxed.of_graph graph in
      let result = Boxed.run ~lazy_constraints store rules in
      match edit with
      | None -> digest store result
      | Some (edit, _) ->
          edit graph;
          let store = Boxed.of_graph graph in
          digest store (Boxed.run ~lazy_constraints store rules))

let packed_digest ?edit ~lazy_constraints graph rules =
  run_digest graph (fun graph ->
      let store = Store.of_graph graph in
      match edit with
      | None -> packed store (Ground.run ~lazy_constraints store rules)
      | Some (edit, _) when not lazy_constraints ->
          ignore (Ground.run store rules);
          edit graph;
          let store = Store.of_graph graph in
          packed store (Ground.run store rules)
      | Some (edit, delta) -> (
          let snapshot =
            (store, Ground.run ~lazy_constraints:true store rules)
          in
          edit graph;
          let store = Store.of_graph graph in
          let affected = Ground.affected_rules ~delta rules in
          match Ground.reground ~snapshot ~affected store rules with
          | Some result -> packed store result
          | None -> "reground refused"))

(* Each side grounds its own copy, from the same symbol table. *)
let same_grounding ?edit ~lazy_constraints graph rules =
  let boxed =
    boxed_digest ?edit ~lazy_constraints (Kg.Graph.copy graph) rules
  in
  let packed =
    packed_digest ?edit ~lazy_constraints (Kg.Graph.copy graph) rules
  in
  String.equal boxed packed
  || begin
       Printf.eprintf "--- boxed\n%s--- packed\n%s" boxed packed;
       false
     end

(* The table [Kg.Graph.add] fills equals the one the boxed store fills
   from an empty table: θ of each fact, interned predicate, subject,
   object, interval, fact by fact. *)
let same_symbols graph =
  let added = Kg.Graph.of_list (Kg.Graph.to_list graph) in
  let boxed = Kg.Graph.create () in
  let store = Store.create (Kg.Graph.symbols boxed) in
  Kg.Graph.iter
    (fun fact q ->
      ignore
        (Store.intern store
           (Store.Evidence { confidence = q.Kg.Quad.confidence; fact })
           (Logic.Atom.Ground.of_quad q)))
    added;
  let all g = symbols_since (Kg.Graph.symbols g) (0, 0) in
  String.equal (all added) (all boxed)
  || begin
       Printf.eprintf "--- boxed\n%s--- added\n%s" (all boxed) (all added);
       false
     end

let live_ids graph =
  let acc = ref [] in
  Kg.Graph.iter (fun id _ -> acc := id :: !acc) graph;
  List.rev !acc

(* [n] random edits of [graph], each retracting one fact and asserting
   one new one: a random fact's predicate, object and interval under
   another random fact's subject. Each is the edit (applied to a copy
   of the graph) and the predicates it touches. *)
let random_edits ~seed graph n =
  let rng = Prelude.Prng.create seed in
  let ids = Array.of_list (live_ids graph) in
  List.init n (fun _ ->
      let gone = Prelude.Prng.pick rng ids in
      let from = Kg.Graph.find graph (Prelude.Prng.pick rng ids) in
      let added =
        {
          from with
          Kg.Quad.subject =
            (Kg.Graph.find graph (Prelude.Prng.pick rng ids)).Kg.Quad.subject;
        }
      in
      let pred id =
        Kg.Term.to_string (Kg.Graph.find graph id).Kg.Quad.predicate
      in
      ( (fun g ->
          Kg.Graph.remove g gone;
          ignore (Kg.Graph.add g added)),
        List.sort_uniq String.compare
          [ pred gone; Kg.Term.to_string added.Kg.Quad.predicate ] ))

let check_dataset name graph rules =
  Alcotest.(check bool) (name ^ ", symbols in θ's order") true
    (same_symbols graph);
  List.iter
    (fun lazy_constraints ->
      Alcotest.(check bool)
        (Printf.sprintf "%s, lazy_constraints=%b" name lazy_constraints)
        true
        (same_grounding ~lazy_constraints graph rules))
    [ false; true ];
  (* Retract the first fact of the first predicate, then replay. *)
  match live_ids graph with
  | [] -> ()
  | id :: _ ->
      let q = Kg.Graph.find graph id in
      let delta = [ Kg.Term.to_string q.Kg.Quad.predicate ] in
      Alcotest.(check bool)
        (name ^ ", run then reground") true
        (same_grounding
           ~edit:((fun g -> Kg.Graph.remove g id), delta)
           ~lazy_constraints:true graph rules);
      List.iteri
        (fun k edit ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, random edit %d then reground" name k)
            true
            (same_grounding ~edit ~lazy_constraints:true graph rules))
        (random_edits ~seed:(Hashtbl.hash name) graph 3)

let test_footballdb () =
  List.iter
    (fun seed ->
      let d =
        Datagen.Footballdb.generate ~seed ~players:150 ~noise_ratio:0.5 ()
      in
      check_dataset
        (Printf.sprintf "FootballDB-150 seed %d" seed)
        d.Datagen.Footballdb.graph
        (Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ()))
    [ 1; 2; 3 ]

let test_wikidata () =
  let d =
    Datagen.Wikidata.generate ~seed:1 ~total_facts:2_000 ~conflict_rate:0.01 ()
  in
  check_dataset "Wikidata-2000" d.Datagen.Wikidata.graph
    (Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules ())

(* Two self-recursive closures over independent predicates: paths
   along [edge] and along [step], intervals intersected on the way. A
   cycle in [edge] leaves constraint violations. [reach1] and [path1]
   join once per pass until their paths stop growing; a replay after an
   [edge] edit re-joins the [reach] rules and [path1] and replays
   [path0]. *)
let test_reachability () =
  let fact s p o (lo, hi) = Kg.Quad.v s p (Kg.Term.iri o) (lo, hi) 0.8 in
  let graph =
    Kg.Graph.of_list
      (List.init 7 (fun i ->
           fact (Printf.sprintf "n%d" i) "edge"
             (Printf.sprintf "n%d" (i + 1))
             (i, 20 + i))
      @ [
          fact "n7" "edge" "n2" (5, 30);
          fact "n3" "edge" "m0" (1, 4);
          fact "m0" "step" "m1" (1, 9);
          fact "m1" "step" "m2" (2, 8);
          fact "m2" "step" "m3" (3, 7);
        ])
  in
  let rules =
    match
      Rulelang.Parser.parse_string
        {|rule reach0 1.0: edge(x, y)@t => reach(x, y)@t .
rule reach1 1.0: reach(x, y)@t ^ edge(y, z)@t2 ^ intersects(t, t2) => reach(x, z)@(t * t2) .
rule path0 0.5: step(x, y)@t => path(x, y)@t .
rule path1 0.5: path(x, y)@t ^ step(y, z)@t2 ^ intersects(t, t2) => path(x, z)@(t * t2) .
constraint no_cycle: reach(x, y)@t ^ reach(y, x)@t2 => disjoint(t, t2) .|}
    with
    | Ok rules -> rules
    | Error e -> Alcotest.failf "%a" Rulelang.Parser.pp_error e
  in
  check_dataset "reachability" graph rules

let test_data_files () =
  List.iter
    (fun (tq, rules) ->
      let ns = Kg.Namespace.create () in
      let graph =
        match Kg.Nquads.parse_file ~namespace:ns tq with
        | Ok g -> g
        | Error e -> Alcotest.failf "%s: %a" tq Kg.Nquads.pp_error e
      in
      let rules =
        match Rulelang.Parser.parse_file ~namespace:ns rules with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %a" rules Rulelang.Parser.pp_error e
      in
      check_dataset tq graph rules)
    [
      ("../data/ranieri.tq", "../data/ranieri.rules");
      ("../data/football.tq", "../data/football.rules");
    ]

(* ------------------------------------------------------------------ *)
(* Random graphs and rules                                             *)
(* ------------------------------------------------------------------ *)

(* Facts over p and q; objects mix IRIs, ints, numeric and non-numeric
   strings (so [value] can be undefined). Rules join p, q and the
   derived w (binary temporal) and s (unary atemporal); heads draw from
   the body's variables, a constant that occurs nowhere in the graph
   and intervals computed with ∩ and hull, so grounding interns symbols
   the graph's table has not seen — which is what makes the symbol
   order observable. Every case salts its predicates, IRIs and
   intervals. *)
type vocab = {
  p : string;
  q : string;
  w : string;
  s : string;
  subjects : Kg.Term.t array;
  objects : Kg.Term.t array;
  intervals : Kg.Interval.t array;
  fresh_interval : Kg.Interval.t;
  missing : Kg.Term.t;
}

let vocab salt =
  let name x = Printf.sprintf "%s%d" x salt in
  let interval lo hi = Kg.Interval.make ((10 * salt) + lo) ((10 * salt) + hi) in
  let subjects = Kg.Term.[| iri (name "a"); iri (name "b"); iri (name "c") |] in
  {
    p = name "p";
    q = name "q";
    w = name "w";
    s = name "s";
    subjects;
    objects = Array.append subjects Kg.Term.[| int 1; int 2; str "3"; str "x" |];
    intervals =
      [| interval 1 3; interval 2 5; interval 4 6; interval 5 5; interval 7 9 |];
    fresh_interval = interval 3 8;
    missing = Kg.Term.iri (name "never_in_graph");
  }

let gen_graph v =
  let open QCheck.Gen in
  let fact =
    let* s = oneofa v.subjects in
    let* p = oneofl [ v.p; v.q ] in
    let* o = oneofa v.objects in
    let* i = oneofa v.intervals in
    let* c = oneofl [ 0.3; 0.6; 0.9; 1.0 ] in
    return
      (Kg.Quad.make ~confidence:c ~subject:s ~predicate:(Kg.Term.iri p)
         ~object_:o i)
  in
  list_size (int_range 0 14) fact

let gen_rule v name =
  let open QCheck.Gen in
  let open Logic in
  let body_atom =
    let* p =
      frequency [ (3, return v.p); (2, return v.q); (1, return v.w); (1, return v.s) ]
    in
    let arg =
      frequency
        [
          (4, map Lterm.var (oneofl [ "x"; "y"; "z" ]));
          (1, map (fun c -> Lterm.Const c) (oneofa v.objects));
        ]
    in
    if p = v.s then map (fun a -> Atom.make p [ a ]) arg
    else
      let* a = arg and* b = arg in
      let* time =
        frequency
          [
            (5, map (fun v -> Lterm.Tvar v) (oneofl [ "t"; "u" ]));
            (1, map (fun i -> Lterm.Tconst i) (oneofa v.intervals));
          ]
      in
      return (Atom.make ~time p [ a; b ])
  in
  let* body = list_size (int_range 1 3) body_atom in
  let vars = List.sort_uniq compare (List.concat_map Atom.vars body) in
  let tvars = List.sort_uniq compare (List.concat_map Atom.tvars body) in
  let term =
    if vars = [] then map (fun c -> Lterm.Const c) (oneofa v.objects)
    else
      frequency
        [
          (4, map Lterm.var (oneofl vars));
          (1, map (fun c -> Lterm.Const c) (oneofa v.objects));
          (1, return (Lterm.Const v.missing));
        ]
  in
  let rec ttime depth =
    let leaf =
      if tvars = [] then map (fun i -> Lterm.Tconst i) (oneofa v.intervals)
      else map (fun v -> Lterm.Tvar v) (oneofl tvars)
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (4, leaf);
          (1, return (Lterm.Tconst v.fresh_interval));
          (1, map2 (fun a b -> Lterm.Tinter (a, b)) (ttime 0) (ttime 0));
          (1, map2 (fun a b -> Lterm.Thull (a, b)) (ttime 0) (ttime 0));
        ]
  in
  let rec arith depth =
    let leaf =
      frequency
        [
          (2, map (fun n -> Cond.Num n) (int_range (-2) 8));
          (2, map (fun t -> Cond.Start_of t) (ttime 1));
          (1, map (fun t -> Cond.End_of t) (ttime 1));
          (1, map (fun t -> Cond.Length_of t) (ttime 1));
          (2, map (fun t -> Cond.Value_of t) term);
        ]
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map2 (fun a b -> Cond.Add (a, b)) (arith 0) (arith 0));
          (1, map2 (fun a b -> Cond.Sub (a, b)) (arith 0) (arith 0));
        ]
  in
  let cond =
    frequency
      [
        ( 2,
          let* rels = list_size (int_range 1 4) (oneofl Kg.Allen.all) in
          map2 (Cond.allen_set (Kg.Allen.Set.of_list rels)) (ttime 1) (ttime 1) );
        ( 2,
          let* op = oneofl Cond.[ Lt; Le; Gt; Ge; Eq_cmp; Ne_cmp ] in
          map2 (fun a b -> Cond.Cmp (op, a, b)) (arith 1) (arith 1) );
        (1, map2 (fun a b -> Cond.Eq (a, b)) term term);
        (1, map2 (fun a b -> Cond.Neq (a, b)) term term);
      ]
  in
  let* conditions = frequency [ (2, return []); (1, map (fun c -> [ c ]) cond) ] in
  let* head =
    frequency
      [
        ( 3,
          let* a = term and* b = term and* time = ttime 1 in
          return (Rule.Infer (Atom.make ~time v.w [ a; b ])) );
        (1, map (fun a -> Rule.Infer (Atom.make v.s [ a ])) term);
        (2, map (fun c -> Rule.Require c) cond);
        (1, return Rule.Bottom);
      ]
  in
  let* weight = oneofl [ None; Some 1.5 ] in
  let weight = match head with Rule.Infer _ -> Some 1.0 | _ -> weight in
  return (Rule.make ?weight ~conditions ~name ~body head)

let gen_case =
  let open QCheck.Gen in
  let* v = map vocab (int_range 1 100_000_000) in
  let* facts = gen_graph v in
  let* n = int_range 1 3 in
  let* rules =
    flatten_l (List.init n (fun i -> gen_rule v (Printf.sprintf "r%d" i)))
  in
  let* retract = nat in
  return (facts, rules, retract)

let print_case (facts, rules, retract) =
  String.concat "\n"
    (List.map Kg.Quad.to_string facts
    @ List.map Logic.Rule.to_string rules
    @ [ Printf.sprintf "retract #%d" retract ])

let qcheck_packed_equals_boxed =
  QCheck.Test.make ~name:"packed grounding = boxed grounding" ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (facts, rules, retract) ->
      let graph = Kg.Graph.of_list facts in
      let plain lazy_constraints =
        same_grounding ~lazy_constraints graph rules
      in
      let replayed =
        match facts with
        | [] -> true
        | _ ->
            let id = retract mod List.length facts in
            let q = Kg.Graph.find graph id in
            same_grounding
              ~edit:((fun g -> Kg.Graph.remove g id),
                     [ Kg.Term.to_string q.Kg.Quad.predicate ])
              ~lazy_constraints:(retract mod 2 = 0) graph rules
      in
      same_symbols graph && plain false && plain true && replayed)

let () =
  Alcotest.run "packed"
    [
      ( "oracle",
        [
          Alcotest.test_case "FootballDB-150, seeds 1-3" `Quick test_footballdb;
          Alcotest.test_case "quick Wikidata" `Quick test_wikidata;
          Alcotest.test_case "data/*.tq" `Quick test_data_files;
          Alcotest.test_case "self-recursive rules" `Quick test_reachability;
          QCheck_alcotest.to_alcotest qcheck_packed_equals_boxed;
        ] );
    ]
