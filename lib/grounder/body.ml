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
let is_atom_col c = String.length c > 0 && c.[0] = '#'

let col_var c = String.sub c 1 (String.length c - 1)

(* Where a bindings row keeps each variable: object variables and
   temporal variables by name, body atoms by body position; and the
   symbol table its codes decode through. *)
type layout = {
  symbols : Kg.Graph.symbols;
  vars : (string * int) list;
  tvars : (string * int) list;
  atoms : (int * int) list;  (** (body position, column) in body order *)
}

let layout_of_columns symbols cols =
  let vars = ref [] and tvars = ref [] and atoms = ref [] in
  List.iteri
    (fun i c ->
      if is_var_col c then vars := (col_var c, i) :: !vars
      else if is_tvar_col c then tvars := (col_var c, i) :: !tvars
      else if is_atom_col c then
        atoms := (int_of_string (col_var c), i) :: !atoms)
    cols;
  {
    symbols;
    vars = List.rev !vars;
    tvars = List.rev !tvars;
    atoms = List.sort compare !atoms;
  }

let layout symbols ~vars ~tvars =
  layout_of_columns symbols (List.map var_col vars @ List.map tvar_col tvars)

let var_column layout v = List.assoc_opt v layout.vars
let tvar_column layout v = List.assoc_opt v layout.tvars

let atom_columns layout = Array.of_list (List.map snd layout.atoms)

let body_atoms layout (row : Value.code array) =
  List.map (fun (_, col) -> Value.payload row.(col)) layout.atoms

let subst layout (row : Value.code array) =
  let bind_all bind decode =
    List.fold_left (fun subst (v, col) ->
        Option.bind subst (fun s -> Option.bind (decode row.(col)) (bind s v)))
  in
  let term = Value.decode_term layout.symbols
  and interval = Value.decode_interval layout.symbols in
  let s = bind_all Logic.Subst.bind term (Some Logic.Subst.empty) layout.vars in
  bind_all Logic.Subst.bind_time interval s layout.tvars

(* ------------------------------------------------------------------ *)
(* Conditions compiled over code rows                                  *)
(* ------------------------------------------------------------------ *)

(* A compiled term, interval or number raises [Undefined] where
   {!Logic.Cond.eval} would answer [None]: an unbound variable, an
   empty intersection, a [value] with no numeric view. Each condition
   is compiled once per plan; the closures only read the row and decode
   through the graph's symbol table, which nothing writes while a join
   runs, so the joins may run them on worker domains. *)
exception Undefined

let undefined _ = raise Undefined

let compile_time layout =
  let rec go = function
    | Logic.Lterm.Tvar v -> (
        match tvar_column layout v with
        | Some col ->
            fun row -> Kg.Graph.interval layout.symbols (Value.payload row.(col))
        | None -> undefined)
    | Logic.Lterm.Tconst i -> fun _ -> i
    | Logic.Lterm.Tinter (a, b) ->
        let a = go a and b = go b in
        fun row ->
          (match Kg.Interval.intersect (a row) (b row) with
          | Some i -> i
          | None -> raise Undefined)
    | Logic.Lterm.Thull (a, b) ->
        let a = go a and b = go b in
        fun row -> Kg.Interval.hull (a row) (b row)
  in
  go

(* Object terms compile to symbol ids; code equality is term equality.
   A constant that was never interned gets [-1], which equals no id: no
   symbol is interned while a plan's conditions run. *)
type term_slot = Col of int | Sym of int | Unbound

let term_slot layout = function
  | Logic.Lterm.Var v -> (
      match var_column layout v with Some col -> Col col | None -> Unbound)
  | Logic.Lterm.Const c ->
      Sym (Option.value (Kg.Graph.find_term layout.symbols c) ~default:(-1))

let int_value = function
  | Kg.Term.Int n -> n
  | t -> ( match Kg.Term.as_int t with Some n -> n | None -> raise Undefined)

let compile_arith layout =
  let rec go = function
    | Logic.Cond.Num n -> fun _ -> n
    | Logic.Cond.Start_of tt ->
        let f = compile_time layout tt in
        fun row -> Kg.Interval.lo (f row)
    | Logic.Cond.End_of tt ->
        let f = compile_time layout tt in
        fun row -> Kg.Interval.hi (f row)
    | Logic.Cond.Length_of tt ->
        let f = compile_time layout tt in
        fun row -> Kg.Interval.length (f row)
    | Logic.Cond.Value_of (Logic.Lterm.Const c) -> (
        match Kg.Term.as_int c with Some n -> fun _ -> n | None -> undefined)
    | Logic.Cond.Value_of term -> (
        match term_slot layout term with
        | Col col ->
            fun row ->
              int_value (Kg.Graph.term layout.symbols (Value.payload row.(col)))
        | Sym _ | Unbound -> undefined)
    | Logic.Cond.Add (a, b) ->
        let a = go a and b = go b in
        fun row -> a row + b row
    | Logic.Cond.Sub (a, b) ->
        let a = go a and b = go b in
        fun row -> a row - b row
  in
  go

let compile_cmp (op : Logic.Cond.cmp) a b : Value.code array -> bool =
  match op with
  | Lt -> fun row -> a row < b row
  | Le -> fun row -> a row <= b row
  | Gt -> fun row -> a row > b row
  | Ge -> fun row -> a row >= b row
  | Eq_cmp -> fun row -> a row = b row
  | Ne_cmp -> fun row -> a row <> b row

let compile_equal layout a b =
  match (a, b) with
  | Logic.Lterm.Const x, Logic.Lterm.Const y ->
      let eq = Kg.Term.equal x y in
      fun _ -> eq
  | _ -> (
      match (term_slot layout a, term_slot layout b) with
      | Unbound, _ | _, Unbound -> undefined
      | Col i, Col j -> fun row -> row.(i) = row.(j)
      | Col i, Sym s | Sym s, Col i -> fun row -> Value.payload row.(i) = s
      | Sym _, Sym _ -> assert false (* two constants, handled above *))

let compile_condition layout : Logic.Cond.t -> Value.code array -> bool =
  function
  | Allen (set, a, b) ->
      let a = compile_time layout a and b = compile_time layout b in
      fun row -> Kg.Allen.Set.holds set (a row) (b row)
  | Cmp (op, a, b) ->
      compile_cmp op (compile_arith layout a) (compile_arith layout b)
  | Eq (a, b) -> compile_equal layout a b
  | Neq (a, b) ->
      let eq = compile_equal layout a b in
      fun row -> not (eq row)

let condition layout cond =
  let f = compile_condition layout cond in
  fun row ->
    match f row with
    | true -> Some true
    | false -> Some false
    | exception Undefined -> None

let interval layout tt =
  let f = compile_time layout tt in
  fun row -> match f row with i -> Some i | exception Undefined -> None

(* Compile a batch of conditions against a column layout into one
   filter over code rows. [conds] are [(cond, expected)] pairs: body
   conditions expect [true] (keep rows where the condition holds — an
   undefined one drops, matching eager evaluation); a pushed-down
   constraint-head condition expects [false] (drop only the rows that
   provably satisfy it, so a non-evaluable head still reaches the
   instance phase and raises there exactly as the eager path does). *)
let compile_conditions symbols cols conds =
  let layout = layout_of_columns symbols cols in
  let checks =
    Array.of_list
      (List.map
         (fun (cond, expected) ->
           let f = compile_condition layout cond in
           if expected then fun row ->
             (match f row with b -> b | exception Undefined -> false)
           else fun row ->
             (match f row with b -> not b | exception Undefined -> true))
         conds)
  in
  fun (row : Value.code array) ->
    let rec go i = i = Array.length checks || (checks.(i) row && go (i + 1)) in
    go 0

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
  let symbols = Atom_store.symbols store in
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
              match Value.find_term symbols c with
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
          match Value.find_interval symbols i with
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
      let symbols = Atom_store.symbols store in
      let narrow acc col = function
        | None -> 0
        | Some code -> min acc (Table.count_for table ~col ~code)
      in
      let card = ref (Table.cardinal table) in
      List.iteri
        (fun j term ->
          match term with
          | Logic.Lterm.Const c ->
              card := narrow !card j (Value.find_term symbols c)
          | Logic.Lterm.Var _ -> ())
        atom.args;
      (match atom.time with
      | Some (Logic.Lterm.Tconst i) ->
          card :=
            narrow !card (List.length atom.args) (Value.find_interval symbols i)
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
                        (compile_conditions (Atom_store.symbols store) out_cols
                           ready)
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

(* Stream the bindings straight out of the joined table, one code row
   at a time: the table is fully materialised before the first row, so
   a callback that interns new atoms (and thereby grows the extension
   tables) cannot perturb the iteration, and nothing per row is boxed
   unless the callback decodes it. *)
let fold ?pool ?violation store (rule : Logic.Rule.t) ~init ~f =
  match plan ?pool ?violation store rule with
  | None -> init
  | Some bindings ->
      let f =
        f (layout_of_columns (Atom_store.symbols store) (Table.columns bindings))
      in
      let width = Table.width bindings in
      let cols = Array.init width (Table.column_data bindings) in
      let row = Array.make width 0 in
      let acc = ref init in
      for i = 0 to Table.cardinal bindings - 1 do
        for j = 0 to width - 1 do
          row.(j) <- cols.(j).(i)
        done;
        acc := f !acc row
      done;
      !acc

let all ?pool ?violation store rule =
  List.rev
    (fold ?pool ?violation store rule ~init:[] ~f:(fun layout acc row ->
         match subst layout row with
         | Some subst -> { subst; body_atoms = body_atoms layout row } :: acc
         | None -> acc))
