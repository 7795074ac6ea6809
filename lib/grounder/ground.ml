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
  joins : int array;
}

exception Timed_out of { atoms : int; rounds : int }

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
(* Rule slices                                                         *)
(* ------------------------------------------------------------------ *)

(* One rule's instances while they are written: per instance its head
   code and where its body atoms end in [atoms]. *)
type slice = { heads : Ivec.t; ends : Ivec.t; atoms : Ivec.t }

let empty_slice () =
  { heads = Ivec.create (); ends = Ivec.create (); atoms = Ivec.create () }

(* Close an instance whose body atoms are already pushed. *)
let push_instance slice ~head =
  Ivec.push slice.heads head;
  Ivec.push slice.ends (Ivec.length slice.atoms)

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

(* One join of a rule, writing its instances to [slice] in row order.
   An Infer head is interned as Hidden on the way, which inserts it
   into the extension tables the closure reads. Under
   [lazy_constraints], a constraint's head condition is pushed down
   into the body joins with flipped polarity: combinations that satisfy
   the constraint are vetoed inside the join and never materialise, so
   the produced rows are exactly the violations. *)
let join_rule ~pool ~lazy_constraints slice store (rule : Logic.Rule.t) =
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
            Ivec.push slice.atoms (Reldb.Value.payload row.(cols.(k)))
          done;
          push_instance slice ~head
        end);
  Obs.count ~n:!rows "ground.join_rows"

exception Replay_miss

(* Instances [first .. last - 1] of [old], a grounding of store [src],
   appended to [slice] as the same join would write them into [store]:
   each head key re-interned (which decides afresh whether the atom is
   new, so the store stays byte-identical to a fresh grounding even
   when a retraction makes a derived atom internable that was evidence
   last time), each body atom looked up. *)
let replay_slice slice store ~src (old : instances) ~first ~last =
  let find id =
    match Atom_store.find_in store ~src id with
    | Some id -> id
    | None -> raise Replay_miss
  in
  for i = first to last - 1 do
    let h = old.head.(i) in
    let head =
      if h >= 0 then
        Atom_store.intern_key store Atom_store.Hidden (Atom_store.key src h)
      else h
    in
    for j = old.offsets.(i) to old.offsets.(i + 1) - 1 do
      Ivec.push slice.atoms (find old.body.(j))
    done;
    push_instance slice ~head
  done

(* Where each rule's slice starts in [t]; [n + 1] entries for [n]
   rules. *)
let slice_starts (t : instances) =
  let starts = Array.make (Array.length t.rules + 1) 0 in
  Array.iter (fun r -> starts.(r + 1) <- starts.(r + 1) + 1) t.rule;
  for r = 1 to Array.length t.rules do
    starts.(r) <- starts.(r) + starts.(r - 1)
  done;
  starts

(* The slices, concatenated in rule order. *)
let concat rules slices =
  let n = Array.fold_left (fun n s -> n + Ivec.length s.heads) 0 slices in
  let m = Array.fold_left (fun m s -> m + Ivec.length s.atoms) 0 slices in
  let rule = Array.make n 0
  and head = Array.make n 0
  and offsets = Array.make (n + 1) 0
  and body = Array.make m 0 in
  let i = ref 0 and j = ref 0 in
  Array.iteri
    (fun ri s ->
      let k = Ivec.length s.heads in
      Array.fill rule !i k ri;
      Array.blit (Ivec.raw s.heads) 0 head !i k;
      for x = 0 to k - 1 do
        offsets.(!i + x + 1) <- !j + Ivec.get s.ends x
      done;
      Array.blit (Ivec.raw s.atoms) 0 body !j (Ivec.length s.atoms);
      i := !i + k;
      j := !j + Ivec.length s.atoms)
    slices;
  { rules; rule; head; offsets; body }

(* The rows of every extension table the rule's body reads, in body
   order. *)
let body_rows store (rule : Logic.Rule.t) =
  Array.of_list
    (List.map
       (fun (a : Logic.Atom.t) ->
         match
           Atom_store.table_for store a.predicate
             ~arity:(List.length a.args) ~temporal:(Option.is_some a.time)
         with
         | Some table -> Reldb.Table.cardinal table
         | None -> 0)
       rule.body)

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

(* Saturate the store under the inference rules [inference] (indices),
   one pass after another in rule order. [turn ri] joins rule [ri];
   [dirty ri] holds when the rule has not joined yet or an extension
   table its body reads gained a row since its last join began —
   including rows it added itself. A clean rule's join would add
   nothing, so only dirty rules join, and the loop stops after a pass
   with no dirty rule left. The deadline is polled at the top of each
   pass: a completed pass is the safe point. Answers the passes that
   derived at least one atom. *)
let closure ~max_rounds ~deadline store ~dirty ~turn inference =
  let rec pass p rounds =
    if p > 1 && not (List.exists dirty inference) then rounds
    else begin
      if p > max_rounds then
        failwith
          (Printf.sprintf "Grounder.closure: no fixpoint after %d rounds"
             max_rounds);
      if Prelude.Deadline.Faults.active "slow_ground" then
        Obs.event ~level:Obs.Events.Warn "fault.slow_ground"
          [
            ("round", Obs.Events.Int p);
            ( "delay_ms",
              Obs.Events.Int (Prelude.Deadline.Faults.arg "slow_ground") );
          ];
      Prelude.Deadline.Faults.delay "slow_ground";
      if Prelude.Deadline.expired deadline then
        raise (Timed_out { atoms = Atom_store.size store; rounds });
      let before = Atom_store.size store in
      List.iter (fun ri -> if dirty ri then turn ri) inference;
      let added = Atom_store.size store - before in
      Obs.event ~level:Obs.Events.Debug "ground.round"
        [ ("round", Obs.Events.Int p); ("new_atoms", Obs.Events.Int added) ];
      pass (p + 1) (if added > 0 then rounds + 1 else rounds)
    end
  in
  pass 1 0

(* The closure, then the constraints, each joined once after the
   fixpoint; every rule writes its own slice, and the slices are
   concatenated in rule order. A rule that joins again replaces its
   slice. At the fixpoint every rule's last join saw its final inputs,
   so each slice is what a join over the final store writes.

   With [replay = ((src, old), affected)], a rule not [affected] whose
   recorded grounding [old] (over store [src]) joined it exactly once
   replays that slice at its first turn instead of joining. Its inputs
   are byte-identical to the recorded ones, so the replay writes what
   the join would. A replayed atom the new store lacks means the
   affected set was wrong: {!Replay_miss}. *)
let ground ?(max_rounds = 50) ?(deadline = Prelude.Deadline.none)
    ?(pool = Prelude.Pool.sequential) ~lazy_constraints ?replay store rules =
  let rules = Array.of_list rules in
  let n = Array.length rules in
  let slices = Array.init n (fun _ -> empty_slice ()) in
  let joins = Array.make n 0 in
  let seen = Array.make n [||] in
  let replayable =
    match replay with
    | None -> fun _ -> None
    | Some ((src, old), affected) ->
        let starts = slice_starts old.instances in
        fun ri ->
          if joins.(ri) = 0 && old.joins.(ri) = 1 && not (affected rules.(ri))
          then Some (src, old.instances, starts.(ri), starts.(ri + 1))
          else None
  in
  (* Rules are joined sequentially in rule order and the parallelism
     lives inside each join (partitioned hash join on [pool]): the same
     pool must not be used at two nesting levels. *)
  let turn ri =
    let slice = slices.(ri) in
    seen.(ri) <- body_rows store rules.(ri);
    Ivec.clear slice.heads;
    Ivec.clear slice.ends;
    Ivec.clear slice.atoms;
    (match replayable ri with
    | Some (src, old, first, last) -> replay_slice slice store ~src old ~first ~last
    | None -> join_rule ~pool ~lazy_constraints slice store rules.(ri));
    joins.(ri) <- joins.(ri) + 1
  in
  let dirty ri = joins.(ri) = 0 || body_rows store rules.(ri) <> seen.(ri) in
  let indices = List.init n Fun.id in
  let inference, constraints =
    List.partition (fun ri -> Logic.Rule.is_inference rules.(ri)) indices
  in
  let rounds =
    Obs.span "closure" (fun () ->
        closure ~max_rounds ~deadline store ~dirty ~turn inference)
  in
  if Prelude.Deadline.expired deadline then
    raise (Timed_out { atoms = Atom_store.size store; rounds });
  Obs.span "instances" (fun () -> List.iter turn constraints);
  let result = { instances = concat rules slices; rounds; joins } in
  emit_result_counters store result;
  result

let run ?max_rounds ?deadline ?pool ?(lazy_constraints = false) store rules =
  ground ?max_rounds ?deadline ?pool ~lazy_constraints store rules

type snapshot = Atom_store.t * result

let affected_rules ~delta rules =
  (* Transitive closure over predicates: a rule is affected when its
     body mentions an affected predicate; the head predicate of an
     affected inference rule becomes affected in turn (its extension
     may change, re-exciting rules that join over it). Everything else
     sees byte-identical extensions and can be replayed. *)
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

let reground ~snapshot:((src, old) as snapshot) ~affected ?max_rounds ?pool
    store rules =
  (* Recorded slices replay only under the same rules — names, bodies,
     conditions, heads and weights — and against a store over the same
     symbol table, the one the recorded keys are coded in; anything
     else is a fresh grounding. *)
  if
    Array.of_list rules <> old.instances.rules
    || Atom_store.symbols store != Atom_store.symbols src
  then None
  else
    match
      ground ?max_rounds ?pool ~lazy_constraints:true
        ~replay:(snapshot, affected) store rules
    with
    | result -> Some result
    | exception Replay_miss -> None
