(** Connected-component decomposition of a ground factor graph, shared
    by the MLN ([Mln.Decompose]) and PSL ([Psl.Decompose]) solvers.

    The factor graph of a TeCoRe grounding is highly disconnected: the
    constraints couple the facts of one entity (one player's stints and
    birth dates) and nothing else, so the network of an N-player UTKG
    splits into ~N independent sub-problems. Solving each component on
    its own is faster (no search effort crosses a component boundary)
    and is the substrate of the incremental engine: a component's
    solution is a pure function of its canonical structural form, so it
    can be memoised across resolves and a one-fact edit only re-solves
    the component it touches.

    Purity contract: a component solver must be a deterministic
    function of the component and its slice of [init] alone (fixed
    seeds, budgets derived from the component's size — never from
    global context such as the component count), and a solver's key
    must capture everything that solve reads. Under that contract a
    cached solution is byte-identical to re-solving, which is what the
    differential oracle in [test/test_incremental.ml] checks end to
    end. *)

val split :
  num_vars:int ->
  num_factors:int ->
  arity:(int -> int) ->
  var:(int -> int -> int) ->
  (vars:int array -> factors:int array -> local:int array -> 'c) ->
  'c list
(** [split ~num_vars ~num_factors ~arity ~var build] partitions
    variables [0 .. num_vars - 1] by the connected components of the
    factor graph whose factor [f] touches the variables [var f j] for
    [j] in [0 .. arity f - 1]. Components come in ascending order of
    their smallest variable. [build] receives each component's
    variables (ascending), its factor indices (ascending, so relative
    order is kept) and the global→local variable index map, shared by
    all components. Singleton variables form their own components. A
    (degenerate) variable-free factor belongs to no component, so it
    collapses the split into one component holding every variable and
    every factor rather than being dropped. *)

module Hash : sig
  (** Full-content hashing of packed keys: every element of every array
      is mixed in (with the array's length), unlike the polymorphic
      [Hashtbl.hash], which reads only the first few meaningful words.
      Start from [seed], thread the state through the arrays of a key
      and [finish] it. *)

  val seed : int
  val int : int -> int -> int
  val ints : int -> int array -> int
  val floats : int -> float array -> int
  (** By the bits of each float. *)

  val bools : int -> bool array -> int
  val finish : int -> int
end

type ('key, 'solved) cache
(** Memoised component solutions, filed under a full-content hash of
    the key. Lookups compare keys structurally (never by hash alone), so
    a hit is possible only for a structurally equal key; only
    [Completed] solves are stored. Entries never expire
    — they stay valid for any future graph that reproduces the
    component — so the table is reset when it reaches 65,536 entries,
    bounding it against edit streams that keep minting new
    components. *)

type cache_stats = { entries : int; hits : int; misses : int }

val create_cache : unit -> ('key, 'solved) cache
val clear_cache : ('key, 'solved) cache -> unit

val cache_stats : ('key, 'solved) cache -> cache_stats
(** Cumulative hit/miss counts since creation (or the last clear). *)

val solve :
  ?cache:('key, 'solved) cache ->
  vars:('c -> int array) ->
  key:('c -> init:'a array -> 'key) ->
  hash:('key -> int) ->
  solve_component:('c -> init:'a array -> 'solved) ->
  status:('solved -> Prelude.Deadline.status) ->
  values:('solved -> 'a array) ->
  merge:('acc -> 'solved -> 'acc) ->
  acc:'acc ->
  init:'a array ->
  'c list ->
  'a array * Prelude.Deadline.status * 'acc
(** Solve every component sequentially, in list order: slice [init] to
    the component's [vars], look the [key] up in [cache] (when given;
    filed under [hash key], which must agree on structurally equal
    keys) or run [solve_component], scatter the local [values] back to
    global ids and fold the solution into [acc] with [merge]. Returns the
    global assignment, the worst status over components and the folded
    [acc]. Emits [solve.components], [solve.cache_hits] and
    [solve.cache_misses] counters (every solve is a miss without a
    cache). *)
