(** Conjunctive-body evaluation over the atom store.

    Grounds a rule's body by a selectivity-ordered relational plan: each
    body atom's extension table becomes a bindings fragment in one fused
    columnar pass (constant arguments, repeated variables and constant
    intervals filter at the code level; argument columns are renamed to
    variable columns), and the fragments are folded with partitioned
    hash joins, smallest actual cardinality first. Numeric and Allen
    conditions are compiled into the join's emit path at the first join
    where their variables are bound, so rows they reject never
    materialise. This is the RockIt grounding architecture with {!Reldb}
    in place of SQL. *)

type binding = {
  subst : Logic.Subst.t;
  body_atoms : Atom_store.id list;
      (** ids of the ground atoms matched by the body, in body order *)
}

val all :
  ?pool:Prelude.Pool.t ->
  ?violation:Logic.Cond.t ->
  Atom_store.t ->
  Logic.Rule.t ->
  binding list
(** Every grounding of the rule's body whose conditions all hold.

    [pool] parallelises the partitioned hash joins (default:
    sequential; the result is bitwise identical at every job count).

    [violation] — a constraint rule's head condition — is pushed into
    the joins with flipped polarity: bindings that provably satisfy it
    are dropped inside the join, so the returned bindings are exactly
    the constraint's violations (plus any binding where the condition
    is not evaluable, which the caller surfaces as an error).

    @raise Invalid_argument when a body atom carries a computed temporal
    term ([Tinter]/[Thull] are only meaningful in heads and conditions). *)

(** {1 Code rows}

    A joined binding is a row of {!Reldb.Value.code}s: one column per
    body variable and one per body atom's id. Heads and conditions are
    compiled against the row's {!layout} once per plan and then run on
    the codes, without decoding the row. *)

type layout
(** Where a bindings row keeps each variable and body atom. *)

val layout : Kg.Graph.symbols -> vars:string list -> tvars:string list -> layout
(** The layout of rows holding the object variables [vars] (as term
    codes), then the temporal variables [tvars] (as interval codes),
    coded in this symbol table. *)

val var_column : layout -> string -> int option
val tvar_column : layout -> string -> int option

val atom_columns : layout -> int array
(** The columns holding the row's body-atom ids, in body order. *)

val subst : layout -> Reldb.Value.code array -> Logic.Subst.t option
(** The row decoded into boxed bindings. *)

val condition :
  layout -> Logic.Cond.t -> Reldb.Value.code array -> bool option
(** [condition layout c] compiles [c]; the result answers
    {!Logic.Cond.eval} on [subst layout row] without building it.
    Compile after interning: a constant not interned at compile time
    never equals a row's term. *)

val interval :
  layout -> Logic.Lterm.ttime -> Reldb.Value.code array -> Kg.Interval.t option
(** Compiled {!Logic.Subst.eval_time} over code rows. *)

val fold :
  ?pool:Prelude.Pool.t ->
  ?violation:Logic.Cond.t ->
  Atom_store.t ->
  Logic.Rule.t ->
  init:'a ->
  f:(layout -> 'a -> Reldb.Value.code array -> 'a) ->
  'a
(** Streaming variant of {!all}: folds over the bindings in the same
    order, as code rows. [f] is applied to the layout once, before the
    first row — the place to compile heads and conditions — and the
    result to every row. The row array is reused between calls. The
    joined bindings table is complete before the first row, so [f] may
    intern new atoms into the store (growing the extension tables)
    without perturbing the iteration — this is how the closure and
    instance phases ground million-row bodies without boxing a row. *)
