module Ivec = Prelude.Ivec

type instances = {
  rules : Logic.Rule.t array;
  rule : int array;
  head : int array;
  offsets : int array;
  body : Atom_store.id array;
}

let violated = -1
let satisfied = -2

let body_atoms t i =
  let start = t.offsets.(i) in
  List.init (t.offsets.(i + 1) - start) (fun k -> t.body.(start + k))

type result = {
  instances : instances;
  rounds : int;
}

exception Timed_out of { atoms : int; rounds : int }

let head_atom (rule : Logic.Rule.t) =
  match rule.head with Logic.Rule.Infer a -> Some a | _ -> None

(* ------------------------------------------------------------------ *)
(* Heads compiled over code rows                                       *)
(* ------------------------------------------------------------------ *)

(* How one position of a head key comes out of a bindings row: [read]
   answers the code, or -1 while the symbol it names is not interned
   yet; [intern] answers it, interning the symbol. Both raise
   [No_head] when the head does not instantiate on the row (an unbound
   variable, an empty ∩). *)
type slot = {
  read : Reldb.Value.code array -> int;
  intern : Reldb.Value.code array -> int;
}

exception No_head

let column col ~offset =
  let read row = Reldb.Value.payload row.(col) + offset in
  { read; intern = read }

let no_head _ = raise No_head

(* A symbol the row does not carry (the predicate, a constant). It is
   looked up lazily: one not interned yet may be interned by an earlier
   row's head, and ids are append-only, so an id once found is final. *)
let symbol ~find ~intern ~offset value =
  let id = ref (-1) in
  let read _ =
    if !id < 0 then Option.iter (fun i -> id := i) (find value);
    if !id < 0 then -1 else !id + offset
  in
  let intern _ =
    if !id < 0 then id := intern value;
    !id + offset
  in
  { read; intern }

(* A head compiled against a row layout: one slot per key position, in
   key order — predicate, arguments, interval — which is also the order
   {!Atom_store.intern} interns a boxed atom's symbols in, so symbol
   codes come out as on the boxed path. [key] is reused row to row. *)
type head = { key : Atom_store.key; slots : slot array }

let compile_head store layout (head : Logic.Atom.t) =
  let s = Atom_store.symbols store in
  let find_interval = Kg.Graph.find_interval s
  and intern_interval = Kg.Graph.intern_interval s in
  let term_symbol =
    symbol ~find:(Kg.Graph.find_term s) ~intern:(Kg.Graph.intern_term s)
      ~offset:0
  in
  let arg = function
    | Logic.Lterm.Var v -> (
        match Body.var_column layout v with
        | Some col -> column col ~offset:0
        | None -> { read = no_head; intern = no_head })
    | Logic.Lterm.Const c -> term_symbol c
  in
  let time =
    match head.time with
    | None -> { read = (fun _ -> 0); intern = (fun _ -> 0) }
    | Some (Logic.Lterm.Tvar v) -> (
        match Body.tvar_column layout v with
        | Some col -> column col ~offset:1
        | None -> { read = no_head; intern = no_head })
    | Some (Logic.Lterm.Tconst i) ->
        symbol ~find:find_interval ~intern:intern_interval ~offset:1 i
    | Some tt ->
        let eval = Body.interval layout tt in
        let value row = match eval row with Some i -> i | None -> raise No_head in
        {
          read =
            (fun row ->
              match find_interval (value row) with
              | Some id -> id + 1
              | None -> -1);
          intern = (fun row -> intern_interval (value row) + 1);
        }
  in
  let slots =
    Array.of_list
      ((term_symbol (Kg.Term.iri head.predicate) :: List.map arg head.args)
      @ [ time ])
  in
  { key = Array.make (Array.length slots) 0; slots }

(* Write the row's head into [head.key]; false when it does not
   instantiate. *)
let fill head row =
  match
    for i = 0 to Array.length head.slots - 1 do
      head.key.(i) <- head.slots.(i).read row
    done
  with
  | () -> true
  | exception No_head -> false

(* Intern the filled head, interning its new symbols first. *)
let intern_head store head row =
  for i = 0 to Array.length head.slots - 1 do
    if head.key.(i) < 0 then head.key.(i) <- head.slots.(i).intern row
  done;
  Atom_store.intern_key store Atom_store.Hidden head.key

(* ------------------------------------------------------------------ *)
(* The replay snapshot                                                 *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_store : Atom_store.t;
  rounds_log : int array array array;
      (** [rounds_log.(r).(i)]: the keys of the candidate heads produced
          in closure round [r+1] by the [i]-th inference rule, in
          binding order, concatenated (each is as long as that rule's
          head key). Keys hold symbol codes, so they mean the same atom
          in every store over the graph's symbol table. *)
  snap_instances : instances;
  rule_start : int array;
      (** rule [r]'s slice of [snap_instances] is the instances
          [rule_start.(r) .. rule_start.(r+1) - 1] *)
}

(* ------------------------------------------------------------------ *)
(* Closure                                                             *)
(* ------------------------------------------------------------------ *)

(* One closure round of one inference rule, joined live: every
   instantiable head, in row order, is interned if absent and, when
   [log] is given, its key appended there (the candidate stream a
   replay re-interns). Answers the number of joined rows. *)
let derive_live ~pool ?log store rule head_pattern =
  let rows = ref 0 in
  Body.fold ~pool store rule ~init:() ~f:(fun layout ->
      let head = compile_head store layout head_pattern in
      fun () row ->
        incr rows;
        if fill head row then begin
          ignore (intern_head store head row);
          Option.iter
            (fun log -> Ivec.append log head.key ~pos:0 ~len:(Array.length head.key))
            log
        end);
  !rows

(* One closure round of one inference rule, replayed: re-intern the
   recorded candidate keys, [stride] codes each. Interning decides
   afresh whether each atom is new, which keeps the replayed store
   byte-identical to a fresh grounding even when a retraction makes an
   atom internable that was already present last time. *)
let derive_replayed store candidates ~stride =
  let key = Array.make stride 0 in
  for k = 0 to (Array.length candidates / stride) - 1 do
    Array.blit candidates (k * stride) key 0 stride;
    ignore (Atom_store.intern_key store Atom_store.Hidden key)
  done

(* Saturate the store under inference rules. Derived atoms are interned
   as Hidden, which inserts them into the extension tables, so later
   rounds see them; the loop stops when a round adds no atom. Under
   [replay], a rule not [affected] re-interns its recorded candidates
   for the round instead of joining; rounds past the recorded horizon
   reuse the last recorded round (the rule's extension is frozen
   there, so a fresh run would recompute exactly that stream). When
   [log] is given, every round's candidate streams are pushed on it.
   The deadline is polled between rounds: a completed round is the
   safe point. *)
let closure ~max_rounds ~deadline ~pool ?replay ?log store rules =
  let inference = List.filter Logic.Rule.is_inference rules in
  let rec loop round =
    if round > max_rounds then
      failwith
        (Printf.sprintf "Grounder.closure: no fixpoint after %d rounds"
           max_rounds);
    if Prelude.Deadline.Faults.active "slow_ground" then
      Obs.event ~level:Obs.Events.Warn "fault.slow_ground"
        [
          ("round", Obs.Events.Int round);
          ("delay_ms", Obs.Events.Int (Prelude.Deadline.Faults.arg "slow_ground"));
        ];
    Prelude.Deadline.Faults.delay "slow_ground";
    if Prelude.Deadline.expired deadline then
      raise
        (Timed_out { atoms = Atom_store.size store; rounds = round - 1 });
    let before = Atom_store.size store in
    let round_candidates =
      List.mapi
        (fun ri rule ->
          let head = Option.get (head_atom rule) in
          match replay with
          | Some (snap, affected) when not (affected rule) ->
              let recorded = snap.rounds_log in
              let candidates =
                recorded.(min (round - 1) (Array.length recorded - 1)).(ri)
              in
              derive_replayed store candidates
                ~stride:(List.length head.Logic.Atom.args + 2);
              candidates
          | _ ->
              let candidates = Option.map (fun _ -> Ivec.create ()) log in
              let rows = derive_live ~pool ?log:candidates store rule head in
              Obs.count ~n:rows "ground.join_rows";
              Option.fold ~none:[||] ~some:Ivec.to_array candidates)
        inference
    in
    Option.iter (fun log -> log := Array.of_list round_candidates :: !log) log;
    let added = Atom_store.size store - before in
    Obs.event ~level:Obs.Events.Debug "ground.round"
      [ ("round", Obs.Events.Int round); ("new_atoms", Obs.Events.Int added) ];
    if added > 0 then loop (round + 1) else round
  in
  loop 1

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

(* The instance buffer while it is written; [offsets] leads with 0. *)
type buffer = {
  rule_ix : Ivec.t;
  heads : Ivec.t;
  ends : Ivec.t;
  atoms : Ivec.t;
}

(* Close an instance whose body atoms are already pushed. *)
let push_instance buf ~rule ~head =
  Ivec.push buf.rule_ix rule;
  Ivec.push buf.heads head;
  Ivec.push buf.ends (Ivec.length buf.atoms)

(* The head code of one bindings row, compiled once per plan;
   [no_head_code] when an inference head does not instantiate. *)
let no_head_code = min_int

let compile_instance store (rule : Logic.Rule.t) layout =
  match rule.head with
  | Logic.Rule.Infer head_pattern ->
      let head = compile_head store layout head_pattern in
      fun row ->
        if fill head row then intern_head store head row else no_head_code
  | Logic.Rule.Require cond -> (
      let eval = Body.condition layout cond in
      fun row ->
        match eval row with
        | Some true -> satisfied
        | Some false -> violated
        | None ->
            invalid_arg
              (Format.asprintf
                 "rule %s: head condition %a not evaluable under %a" rule.name
                 Logic.Cond.pp cond Logic.Subst.pp
                 (Option.get (Body.subst layout row))))
  | Logic.Rule.Bottom -> fun _ -> violated

(* Rule [ri]'s instances, joined live and written to [buf] in row
   order. Under [lazy_constraints], a constraint's head condition is
   pushed down into the body joins with flipped polarity: combinations
   that satisfy the constraint are vetoed inside the join and never
   materialise, so the produced rows are exactly the violations. *)
let instances_of_rule ~pool ~lazy_constraints buf store ri
    (rule : Logic.Rule.t) =
  let violation =
    match rule.head with
    | Logic.Rule.Require cond when lazy_constraints -> Some cond
    | _ -> None
  in
  let rows = ref 0 in
  Body.fold ~pool ?violation store rule ~init:() ~f:(fun layout ->
      let head_of = compile_instance store rule layout in
      let cols = Body.atom_columns layout in
      fun () row ->
        incr rows;
        let head = head_of row in
        if head <> no_head_code then begin
          for k = 0 to Array.length cols - 1 do
            Ivec.push buf.atoms (Reldb.Value.payload row.(cols.(k)))
          done;
          push_instance buf ~rule:ri ~head
        end);
  Obs.count ~n:!rows "ground.join_rows"

exception Replay_miss

(* Rule [ri]'s recorded slice, appended to [buf] with every atom id
   mapped through [remap] (an old id's new id, [-1] when the new store
   lacks it). *)
let replay_slice buf snap ri ~remap =
  let old = snap.snap_instances in
  let map id =
    let nid = if id < Array.length remap then remap.(id) else -1 in
    if nid < 0 then raise Replay_miss;
    nid
  in
  for i = snap.rule_start.(ri) to snap.rule_start.(ri + 1) - 1 do
    for j = old.offsets.(i) to old.offsets.(i + 1) - 1 do
      Ivec.push buf.atoms (map old.body.(j))
    done;
    let h = old.head.(i) in
    push_instance buf ~rule:ri ~head:(if h >= 0 then map h else h)
  done

let emit_result_counters store (result : result) =
  let hidden = ref 0 in
  for id = 0 to Atom_store.size store - 1 do
    if not (Atom_store.is_evidence store id) then incr hidden
  done;
  Obs.count ~n:(Array.length result.instances.rule) "ground.instances";
  Obs.count ~n:!hidden "ground.derived_atoms";
  Obs.count ~n:result.rounds "ground.rounds";
  Obs.count ~n:(Atom_store.size store) "ground.atoms"

(* ------------------------------------------------------------------ *)
(* The grounding core                                                  *)
(* ------------------------------------------------------------------ *)

(* Closure, then the instance buffer, one rule slice after another in
   rule order. With [replay], a rule [affected] by the edit joins live
   and every other rule replays its recorded candidates and slice.
   When [log] is given, the closure's candidate streams are pushed on
   it. Answers the result and where each rule's slice starts. *)
let ground ?(max_rounds = 50) ?(deadline = Prelude.Deadline.none)
    ?(pool = Prelude.Pool.sequential) ~lazy_constraints ?log ?replay store
    rules =
  let rounds =
    Obs.span "closure" (fun () ->
        closure ~max_rounds ~deadline ~pool ?replay ?log store rules)
  in
  if Prelude.Deadline.expired deadline then
    raise (Timed_out { atoms = Atom_store.size store; rounds });
  let buf =
    {
      rule_ix = Ivec.create ();
      heads = Ivec.create ();
      ends = Ivec.create ();
      atoms = Ivec.create ();
    }
  in
  Ivec.push buf.ends 0;
  let rule_start = Ivec.create () in
  (* Rules are grounded sequentially in rule order and the parallelism
     lives inside each join (partitioned hash join on [pool]): the same
     pool must not be used at two nesting levels. Every Infer head
     already exists at the fixpoint, so interning here is lookup-only,
     which keeps atom ids independent of the job count. A replayed
     slice's atoms must all exist in the new store (their supporting
     predicates are untouched); a miss means the affected set was
     wrong, and the replay is refused. *)
  Obs.span "instances" (fun () ->
      let remap =
        match replay with
        | None -> [||]
        | Some (snap, _) ->
            Array.init (Atom_store.size snap.snap_store) (fun id ->
                Option.value ~default:(-1)
                  (Atom_store.find_in store ~src:snap.snap_store id))
      in
      List.iteri
        (fun ri rule ->
          Ivec.push rule_start (Ivec.length buf.rule_ix);
          match replay with
          | Some (snap, affected) when not (affected rule) ->
              replay_slice buf snap ri ~remap
          | _ -> instances_of_rule ~pool ~lazy_constraints buf store ri rule)
        rules;
      Ivec.push rule_start (Ivec.length buf.rule_ix));
  let instances =
    {
      rules = Array.of_list rules;
      rule = Ivec.to_array buf.rule_ix;
      head = Ivec.to_array buf.heads;
      offsets = Ivec.to_array buf.ends;
      body = Ivec.to_array buf.atoms;
    }
  in
  let result = { instances; rounds } in
  emit_result_counters store result;
  (result, Ivec.to_array rule_start)

(* [log] holds the closure rounds newest first. *)
let with_snapshot store log (result, rule_start) =
  ( result,
    {
      snap_store = store;
      rounds_log = Array.of_list (List.rev !log);
      snap_instances = result.instances;
      rule_start;
    } )

let run ?max_rounds ?deadline ?pool ?(lazy_constraints = false) store rules =
  fst (ground ?max_rounds ?deadline ?pool ~lazy_constraints store rules)

let run_record ?max_rounds ?deadline ?pool store rules =
  let log = ref [] in
  with_snapshot store log
    (ground ?max_rounds ?deadline ?pool ~lazy_constraints:true ~log store rules)

let affected_rules ~delta rules =
  (* Transitive closure over predicates: a rule is affected when its
     body mentions an affected predicate; the head predicate of an
     affected inference rule becomes affected in turn (its extension
     may change, re-exciting rules that join over it). Everything else
     sees byte-identical per-round extensions and can be replayed. *)
  let affected_preds = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace affected_preds p ()) delta;
  let body_preds (r : Logic.Rule.t) =
    List.map (fun (a : Logic.Atom.t) -> a.Logic.Atom.predicate) r.Logic.Rule.body
  in
  let rule_touched r =
    List.exists (Hashtbl.mem affected_preds) (body_preds r)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Logic.Rule.t) ->
        match r.Logic.Rule.head with
        | Logic.Rule.Infer head when rule_touched r ->
            let p = head.Logic.Atom.predicate in
            if not (Hashtbl.mem affected_preds p) then begin
              Hashtbl.replace affected_preds p ();
              changed := true
            end
        | _ -> ())
      rules
  done;
  rule_touched

let reground ~snapshot ~affected ?max_rounds ?pool store rules =
  (* Recorded slices replay only under the same rules — names, bodies,
     conditions, heads and weights — and against a store over the same
     symbol table, the one the recorded keys are coded in; anything
     else is a fresh grounding. *)
  if
    Array.of_list rules <> snapshot.snap_instances.rules
    || Atom_store.symbols store != Atom_store.symbols snapshot.snap_store
  then None
  else
    let log = ref [] in
    match
      ground ?max_rounds ?pool ~lazy_constraints:true ~log
        ~replay:(snapshot, affected) store rules
    with
    | grounding -> Some (with_snapshot store log grounding)
    | exception Replay_miss -> None
