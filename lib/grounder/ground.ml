module Ivec = Prelude.Ivec

module Instance = struct
  type head_state =
    | Derives of Atom_store.id
    | Satisfied
    | Violated

  type t = {
    rule : Logic.Rule.t;
    body_atoms : Atom_store.id list;
    head : head_state;
  }

  let pp store ppf t =
    let pp_atom ppf id = Logic.Atom.Ground.pp ppf (Atom_store.atom store id) in
    Format.fprintf ppf "%s: %a -> " t.rule.Logic.Rule.name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ^ ")
         pp_atom)
      t.body_atoms;
    match t.head with
    | Derives id -> pp_atom ppf id
    | Satisfied -> Format.pp_print_string ppf "(satisfied)"
    | Violated -> Format.pp_print_string ppf "(violated)"
end

type result = {
  instances : Instance.t list;
  derived : Atom_store.id list;
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

let term_symbol = symbol ~find:Kg.Symbol.find_term ~intern:Kg.Symbol.term_id ~offset:0

(* A head compiled against a row layout: one slot per key position, in
   key order — predicate, arguments, interval — which is also the order
   {!Atom_store.intern} interns a boxed atom's symbols in, so symbol ids
   come out as on the boxed path. [key] is reused row to row. *)
type head = { key : Atom_store.key; slots : slot array }

let compile_head layout (head : Logic.Atom.t) =
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
        symbol ~find:Kg.Symbol.find_interval ~intern:Kg.Symbol.interval_id
          ~offset:1 i
    | Some tt ->
        let eval = Body.interval layout tt in
        let value row = match eval row with Some i -> i | None -> raise No_head in
        {
          read =
            (fun row ->
              match Kg.Symbol.find_interval (value row) with
              | Some id -> id + 1
              | None -> -1);
          intern = (fun row -> Kg.Symbol.interval_id (value row) + 1);
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

(* One closure round of one inference rule, joined live: every
   instantiable head, in row order, is interned if absent — a new one
   is pushed on [derived] — and, when [log] is given, its key appended
   there (the candidate stream {!reground} replays). Answers the number
   of joined rows. *)
let derive_live ~pool ?log store derived rule head_pattern =
  let rows = ref 0 in
  Body.fold ~pool store rule ~init:() ~f:(fun layout ->
      let head = compile_head layout head_pattern in
      fun () row ->
        incr rows;
        if fill head row then begin
          let fresh = Atom_store.size store in
          let id = intern_head store head row in
          if id = fresh then derived := id :: !derived;
          Option.iter
            (fun log -> Ivec.append log head.key ~pos:0 ~len:(Array.length head.key))
            log
        end);
  !rows

(* Saturate the store under inference rules. Derived atoms are interned as
   Hidden, which inserts them into the extension tables, so subsequent
   rounds see them; the loop stops when a round adds no atom. The
   deadline is polled between rounds — a completed round is the safe
   point: stopping mid-round would leave the extension tables ahead of
   [derived]. *)
let closure ?(max_rounds = 50) ?(deadline = Prelude.Deadline.none)
    ?(pool = Prelude.Pool.sequential) ?log store rules =
  let inference = List.filter Logic.Rule.is_inference rules in
  let n_inference = List.length inference in
  let derived = ref [] in
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
    let round_candidates = Array.make n_inference [||] in
    List.iteri
      (fun ri rule ->
        match head_atom rule with
        | None -> ()
        | Some head ->
            (* Stream the bindings: each instantiable head (in binding
               order — not just the newly interned ones) is interned on
               the fly; the candidate keys are only kept when a
               recording caller asked for the log. The replay in
               {!reground} re-decides interning dynamically, which is
               what keeps it exact when a retraction makes an atom
               internable that was already present last time. *)
            let candidates = Option.map (fun _ -> Ivec.create ()) log in
            let rows = derive_live ~pool ?log:candidates store derived rule head in
            Obs.count ~n:rows "ground.join_rows";
            Option.iter
              (fun c -> round_candidates.(ri) <- Ivec.to_array c)
              candidates)
      inference;
    (match log with
    | None -> ()
    | Some log -> log := round_candidates :: !log);
    let added = Atom_store.size store - before in
    Obs.event ~level:Obs.Events.Debug "ground.round"
      [ ("round", Obs.Events.Int round); ("new_atoms", Obs.Events.Int added) ];
    if added > 0 then loop (round + 1) else round
  in
  let rounds = loop 1 in
  (List.rev !derived, rounds)

(* The instance of one bindings row, compiled once per plan. *)
let compile_instance store (rule : Logic.Rule.t) layout =
  let instance row head =
    Some { Instance.rule; body_atoms = Body.body_atoms layout row; head }
  in
  match rule.head with
  | Logic.Rule.Infer head_pattern ->
      let head = compile_head layout head_pattern in
      fun row ->
        if fill head row then
          instance row (Instance.Derives (intern_head store head row))
        else None
  | Logic.Rule.Require cond -> (
      let eval = Body.condition layout cond in
      fun row ->
        match eval row with
        | Some true -> instance row Instance.Satisfied
        | Some false -> instance row Instance.Violated
        | None ->
            invalid_arg
              (Format.asprintf
                 "rule %s: head condition %a not evaluable under %a" rule.name
                 Logic.Cond.pp cond Logic.Subst.pp
                 (Option.get (Body.subst layout row))))
  | Logic.Rule.Bottom -> fun row -> instance row Instance.Violated

let emit_result_counters store (result : result) =
  Obs.count ~n:(List.length result.instances) "ground.instances";
  Obs.count ~n:(List.length result.derived) "ground.derived_atoms";
  Obs.count ~n:result.rounds "ground.rounds";
  Obs.count ~n:(Atom_store.size store) "ground.atoms";
  Obs.count ~n:(Kg.Symbol.terms_interned ()) "intern.terms";
  Obs.count ~n:(Kg.Symbol.intervals_interned ()) "intern.intervals"

(* One rule's instance-phase grounding, streamed. Under
   [lazy_constraints], a constraint's head condition is pushed down into
   the body joins with flipped polarity: combinations that satisfy the
   constraint are vetoed inside the join and never materialise, so the
   produced bindings are exactly the violations. The [Satisfied]
   instances are therefore not produced in that mode — sound for the
   engines (both network builders drop them) but visible in statistics,
   hence opt-in. *)
let instances_of_rule ~pool ~lazy_constraints store (rule : Logic.Rule.t) =
  let violation =
    match rule.head with
    | Logic.Rule.Require cond when lazy_constraints -> Some cond
    | _ -> None
  in
  let rows = ref 0 in
  let instances_rev =
    Body.fold ~pool ?violation store rule ~init:[] ~f:(fun layout ->
        let instance = compile_instance store rule layout in
        fun acc row ->
          incr rows;
          match instance row with Some inst -> inst :: acc | None -> acc)
  in
  Obs.count ~n:!rows "ground.join_rows";
  List.rev instances_rev

(* The grounding core shared by {!run} and {!run_record}: closure, then
   one instance list per rule. [log] collects the closure's candidate
   streams for the replay snapshot. *)
let ground ?max_rounds ~deadline ~pool ~lazy_constraints ?log store rules =
  let derived, rounds =
    Obs.span "closure" (fun () ->
        closure ?max_rounds ~deadline ~pool ?log store rules)
  in
  if Prelude.Deadline.expired deadline then
    raise (Timed_out { atoms = Atom_store.size store; rounds });
  let per_rule =
    (* Rules are grounded sequentially in rule order and the parallelism
       lives inside each join (partitioned hash join on [pool]) — the
       same pool must not be used at two nesting levels. Interning the
       results stays sequential in rule order (every Infer head already
       exists at the fixpoint, so this is lookup-only), which keeps
       atom-id assignment deterministic and independent of the job
       count. The closure's rounds interleave joins with interning, and
       that interleaving defines the id order we must preserve. *)
    Obs.span "instances" (fun () ->
        List.map
          (fun rule -> instances_of_rule ~pool ~lazy_constraints store rule)
          rules)
  in
  let result = { instances = List.concat per_rule; derived; rounds } in
  emit_result_counters store result;
  (result, per_rule)

let run ?max_rounds ?(deadline = Prelude.Deadline.none)
    ?(pool = Prelude.Pool.sequential) ?(lazy_constraints = false) store rules =
  fst (ground ?max_rounds ~deadline ~pool ~lazy_constraints store rules)

(* ------------------------------------------------------------------ *)
(* Delta grounding: record enough of a run to replay it exactly.       *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_store : Atom_store.t;
  snap_rules : Logic.Rule.t list;
  snap_lazy : bool;  (** the [lazy_constraints] mode of the recording *)
  rounds_log : int array array array;
      (** [rounds_log.(r).(i)]: the keys of the candidate heads produced
          in closure round [r+1] by the [i]-th inference rule, in
          binding order, concatenated (each is as long as that rule's
          head key). Keys are store-independent. *)
  per_rule : Instance.t list list;
      (** final rule instances, one list per rule in rule order *)
}

(* [log] holds the closure rounds newest first. *)
let snapshot_of ~lazy_constraints store rules log per_rule =
  {
    snap_store = store;
    snap_rules = rules;
    snap_lazy = lazy_constraints;
    rounds_log = Array.of_list (List.rev log);
    per_rule;
  }

let run_record ?max_rounds ?(deadline = Prelude.Deadline.none)
    ?(pool = Prelude.Pool.sequential) ?(lazy_constraints = false) store rules =
  let log = ref [] in
  let result, per_rule =
    ground ?max_rounds ~deadline ~pool ~lazy_constraints ~log store rules
  in
  (result, snapshot_of ~lazy_constraints store rules !log per_rule)

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

exception Replay_miss

let reground ~snapshot ~affected ?(max_rounds = 50)
    ?(pool = Prelude.Pool.sequential) ?(lazy_constraints = false) store rules =
  (* Recorded instances replay only under the same rules — names,
     bodies, conditions, heads and weights — and the same constraint
     mode; anything else is a fresh grounding. *)
  if rules <> snapshot.snap_rules || lazy_constraints <> snapshot.snap_lazy
  then None
  else begin
    let inference = List.filter Logic.Rule.is_inference rules in
    let n_inference = List.length inference in
    let recorded_rounds = Array.length snapshot.rounds_log in
    let derived = ref [] in
    let new_log = ref [] in
    (* Replay the closure: affected rules re-join live against the new
       store; unaffected rules replay their recorded candidate keys
       (store-independent). Rounds past the recorded horizon reuse the
       last recorded round — an unaffected rule's extension is frozen
       there, so a fresh run would recompute exactly that stream. The
       intern-if-absent decision is taken dynamically either way, which
       is what makes the replayed store byte-identical to a fresh
       grounding. *)
    let replay candidates (head : Logic.Atom.t) =
      let key = Array.make (List.length head.args + 2) 0 in
      let stride = Array.length key in
      for k = 0 to (Array.length candidates / stride) - 1 do
        Array.blit candidates (k * stride) key 0 stride;
        let fresh = Atom_store.size store in
        if Atom_store.intern_key store Atom_store.Hidden key = fresh then
          derived := fresh :: !derived
      done
    in
    let rec loop round =
      if round > max_rounds then
        failwith
          (Printf.sprintf "Grounder.closure: no fixpoint after %d rounds"
             max_rounds);
      let before = Atom_store.size store in
      let round_candidates = Array.make n_inference [||] in
      List.iteri
        (fun ri rule ->
          let head = Option.get (head_atom rule) in
          if affected rule then begin
            let log = Ivec.create () in
            ignore (derive_live ~pool ~log store derived rule head);
            round_candidates.(ri) <- Ivec.to_array log
          end
          else if recorded_rounds > 0 then begin
            let candidates =
              snapshot.rounds_log.(min (round - 1) (recorded_rounds - 1)).(ri)
            in
            replay candidates head;
            round_candidates.(ri) <- candidates
          end)
        inference;
      new_log := round_candidates :: !new_log;
      if Atom_store.size store - before > 0 then loop (round + 1) else round
    in
    let rounds = Obs.span "closure" (fun () -> loop 1) in
    (* Instance phase: old→new id remap for replayed rules. Any old atom
       still referenced by an unaffected rule must exist in the new
       store (its supporting predicates are untouched); a miss means the
       affected-set computation was wrong, so refuse and let the caller
       fall back to a fresh grounding. *)
    let old_size = Atom_store.size snapshot.snap_store in
    let old_to_new =
      Array.init old_size (fun id ->
          Option.value ~default:(-1)
            (Atom_store.find_in store ~src:snapshot.snap_store id))
    in
    let remap id =
      let nid = if id < old_size then old_to_new.(id) else -1 in
      if nid < 0 then raise Replay_miss;
      nid
    in
    let remap_instance (inst : Instance.t) =
      {
        inst with
        Instance.body_atoms = List.map remap inst.Instance.body_atoms;
        head =
          (match inst.Instance.head with
          | Instance.Derives id -> Instance.Derives (remap id)
          | h -> h);
      }
    in
    match
      Obs.span "instances" (fun () ->
          List.map2
            (fun rule old_instances ->
              if affected rule then
                instances_of_rule ~pool ~lazy_constraints store rule
              else List.map remap_instance old_instances)
            rules snapshot.per_rule)
    with
    | per_rule ->
        let result = { instances = List.concat per_rule; derived = List.rev !derived; rounds } in
        emit_result_counters store result;
        Some
          (result, snapshot_of ~lazy_constraints store rules !new_log per_rule)
    | exception Replay_miss -> None
  end
