module Value = Reldb.Value
module Table = Reldb.Table
module Relalg = Reldb.Relalg

type binding = {
  subst : Logic.Subst.t;
  body_atoms : Atom_store.id list;
}

let var_col v = "?" ^ v
let tvar_col v = "!" ^ v
let atom_col i = "#" ^ string_of_int i

let is_var_col c = String.length c > 0 && c.[0] = '?'
let is_tvar_col c = String.length c > 0 && c.[0] = '!'

let col_var c = String.sub c 1 (String.length c - 1)

(* Rebuild a substitution from one row of a bindings table, decoding
   only the variable columns. *)
let subst_of_row table =
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
            let code = Table.code_at table ~row ~col in
            if is_var_col c then
              match Value.decode_term code with
              | Some term -> Logic.Subst.bind s (col_var c) term
              | None -> None
            else
              match Value.decode_interval code with
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
let compile_conditions cols conds =
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
                  match Value.decode_term codes.(i) with
                  | Some term -> Logic.Subst.bind s v term
                  | None -> None)
              | `T v -> (
                  match Value.decode_interval codes.(i) with
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
  match Atom_store.table_for store atom.predicate ~arity ~temporal with
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
              match Value.code_opt (Value.term c) with
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
          match Value.code_opt (Value.interval i) with
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
    Atom_store.table_for store atom.predicate
      ~arity:(List.length atom.args)
      ~temporal:(Option.is_some atom.time)
  with
  | None -> 0
  | Some table ->
      let narrow acc col value =
        match Value.code_opt value with
        | None -> 0
        | Some code -> min acc (Table.count_for table ~col ~code)
      in
      let card = ref (Table.cardinal table) in
      List.iteri
        (fun j term ->
          match term with
          | Logic.Lterm.Const c -> card := narrow !card j (Value.term c)
          | Logic.Lterm.Var _ -> ())
        atom.args;
      (match atom.time with
      | Some (Logic.Lterm.Tconst i) ->
          card := narrow !card (List.length atom.args) (Value.interval i)
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
                  | _ -> Some (compile_conditions out_cols ready)
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
      let to_subst = subst_of_row bindings in
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
                  match Value.decode_int (Table.code_at bindings ~row ~col) with
                  | Some id -> id
                  | None -> assert false)
                atom_positions
            in
            acc := f !acc { subst; body_atoms }
      done;
      !acc

let all ?pool ?violation store rule =
  List.rev
    (fold ?pool ?violation store rule ~init:[] ~f:(fun acc b -> b :: acc))
