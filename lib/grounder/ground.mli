(** Grounding driver: closure under inference rules, then rule instances.

    [run store rules] saturates the store under the inference rules
    (deriving hidden atoms, e.g. worksFor facts from playsFor facts via
    f1), then joins every constraint once. Each join writes its rule's
    ground instances — from which the MLN and PSL engines build their
    networks — straight from the join rows into the rule's slice of one
    flat {!instances} buffer; an inference rule's join interns its heads
    in the same pass. The closure joins a rule again only when a table
    its body reads has grown since its last join began, so a program
    whose rules each come after the rules they read joins every rule
    once. A replay ({!reground}) runs the same loop; each rule there
    either joins live or replays its recorded slice. *)

type instances = {
  rules : Logic.Rule.t array;  (** the grounded rules, in rule order *)
  rule : int array;
      (** per instance: the index of its rule in [rules]. Instances come
          rule by rule, in rule order, so this is non-decreasing *)
  head : int array;
      (** per instance: the atom an inference instance derives (its body
          supports this possibly hidden atom), or {!violated} for a
          constraint instance whose head condition fails (the body atoms
          cannot all be true together), or {!satisfied} for one whose
          head condition holds (trivially satisfied, carried for
          statistics only) *)
  offsets : int array;
      (** [n + 1] entries for [n] instances: instance [i]'s body atoms
          are [body.(offsets.(i)) .. body.(offsets.(i+1) - 1)] *)
  body : Atom_store.id array;
      (** the body atoms of every instance, each in body order *)
}
(** Every rule instance of a grounding, in grounding order: rules in
    rule order, and each rule's instances in join-row order. *)

val violated : int
(** The head code of a violated constraint instance (negative). *)

val satisfied : int
(** The head code of a satisfied constraint instance (negative). *)

val body_atoms : instances -> int -> Atom_store.id list
(** Instance [i]'s body atoms, in body order. *)

type result = {
  instances : instances;
  rounds : int;
      (** closure passes that derived at least one atom. A pass joins,
          in rule order, every inference rule whose body tables grew
          since its last join began (every rule, in the first pass); the
          closure ends after a pass that derives nothing, which is not
          counted. A program without inference rules, or whose rules
          derive nothing, has [rounds = 0]; one whose rules each follow
          the rules they read has at most 1 *)
  joins : int array;
      (** per rule, in rule order: how many times it was joined (a
          replayed slice counts as one join). Every constraint is
          joined once *)
}

exception Timed_out of { atoms : int; rounds : int }
(** Raised when [deadline] expires during grounding. Unlike the anytime
    solvers there is no sound partial answer here — a network built from
    a half-saturated store would silently miss constraints — so the run
    is rejected, carrying how far it got (atoms interned, and the
    [rounds] of {!result} completed so far) for the structured report. *)

val run :
  ?max_rounds:int ->
  ?deadline:Prelude.Deadline.t ->
  ?pool:Prelude.Pool.t ->
  ?lazy_constraints:bool ->
  Atom_store.t ->
  Logic.Rule.t list ->
  result
(** [pool] parallelises the partitioned hash joins inside each rule's
    grounding; rules themselves are processed sequentially in rule order
    (the same pool cannot be nested), so the produced instances and atom
    ids are identical at every job count.
    Default: {!Prelude.Pool.sequential}.

    [lazy_constraints] (default [false]) pushes each constraint's head
    condition down into its body joins with flipped polarity:
    combinations that satisfy the constraint are vetoed inside the join
    and never materialise, so only violations are produced. The
    {!satisfied} instances disappear from the result in this mode —
    both network builders discard them, so inference is unchanged, but
    callers reading them for statistics must leave the flag off.

    [deadline] (default {!Prelude.Deadline.none}) is polled before each
    closure pass and before the constraint joins; expiry raises
    {!Timed_out}. Callers wanting best-effort behaviour simply pass an
    infinite deadline here and budget the solver instead — grounding
    must complete for any sound answer.

    @raise Failure when the closure does not reach a fixpoint within
    [max_rounds] (default 50) passes.
    @raise Timed_out when [deadline] expires. *)

(** {1 Delta grounding}

    The incremental engine re-grounds an edited graph by {e exact
    replay}: the atom store is always rebuilt fresh (cheap, and the only
    way to keep atom ids byte-identical to a from-scratch run), but only
    rules whose body predicates are transitively affected by the edit
    re-run their joins. Every other rule that the previous grounding
    joined exactly once replays that grounding's slice at its first
    turn: its head keys re-interned, its body atoms looked up in the new
    store. The replayed [(store, instances)] pair is byte-identical to
    what {!run} would produce, which is what makes downstream solver
    caching sound. Replay always pushes constraints into the joins
    ([lazy_constraints]), so it replays a grounding made that way. *)

type snapshot = Atom_store.t * result
(** A grounding to replay: the store it ran over and its result, from
    [run ~lazy_constraints:true] or {!reground}. Its atom keys are codes
    of the store's symbol table, so they mean the same atom in every
    store over the same graph. *)

val affected_rules :
  delta:string list -> Logic.Rule.t list -> Logic.Rule.t -> bool
(** [affected_rules ~delta rules] closes the set of predicates touched
    by an edit ([delta], grounder predicate names) under rule heads: a
    rule is affected when its body mentions an affected predicate, and
    an affected inference rule's head predicate becomes affected in
    turn. Unaffected rules see byte-identical extensions and are safe to
    replay. *)

val reground :
  snapshot:snapshot ->
  affected:(Logic.Rule.t -> bool) ->
  ?max_rounds:int ->
  ?pool:Prelude.Pool.t ->
  Atom_store.t ->
  Logic.Rule.t list ->
  result option
(** Replay the [snapshot] grounding against a freshly rebuilt [store]
    (evidence already interned), re-joining [affected] rules and rules
    the snapshot joined more than once; every other rule copies its
    recorded slice, remapped to the new atom ids. Returns the result —
    byte-identical to [run ~lazy_constraints:true] on the same store,
    and the snapshot's result for the next edit — or [None] when the
    replay cannot be proven exact; callers then fall back to a fresh
    grounding. The replay is refused when the rules differ from the
    recorded ones in anything (not just their names), when [store] codes
    its atoms in another graph's symbol table than the recorded store,
    or when a replayed instance references an atom the new store lacks.

    @raise Failure when the replayed closure exceeds [max_rounds]. *)
