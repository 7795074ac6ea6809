(** Grounding driver: closure under inference rules, then rule instances.

    [run store rules] first saturates the store under the inference rules
    (deriving hidden atoms, e.g. worksFor facts from playsFor facts via
    f1), then grounds every rule once, producing the ground rule instances
    from which the MLN and PSL engines build their networks. *)

module Instance : sig
  type head_state =
    | Derives of Atom_store.id
        (** inference instance: body supports this (possibly new) atom *)
    | Satisfied
        (** constraint instance whose head condition holds — trivially
            satisfied, carried for statistics only *)
    | Violated
        (** constraint instance whose head condition fails: the body atoms
            cannot all be true together *)

  type t = {
    rule : Logic.Rule.t;
    body_atoms : Atom_store.id list;
    head : head_state;
  }

  val pp : Atom_store.t -> Format.formatter -> t -> unit
end

type result = {
  instances : Instance.t list;
  derived : Atom_store.id list;   (** hidden atoms introduced by closure *)
  rounds : int;                   (** closure iterations until fixpoint *)
}

exception Timed_out of { atoms : int; rounds : int }
(** Raised when [deadline] expires during grounding. Unlike the anytime
    solvers there is no sound partial answer here — a network built from
    a half-saturated store would silently miss constraints — so the run
    is rejected, carrying how far it got (atoms interned, closure rounds
    completed) for the structured report. *)

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
    [Instance.Satisfied] instances disappear from the result in this
    mode — both network builders discard them, so inference is
    unchanged, but callers reading them for statistics must leave the
    flag off.

    [deadline] (default {!Prelude.Deadline.none}) is polled between
    closure rounds and before the instance joins; expiry raises
    {!Timed_out}. Callers wanting best-effort behaviour simply pass an
    infinite deadline here and budget the solver instead — grounding
    must complete for any sound answer.

    @raise Failure when the closure does not reach a fixpoint within
    [max_rounds] (default 50) iterations.
    @raise Timed_out when [deadline] expires. *)

(** {1 Delta grounding}

    The incremental engine re-grounds an edited graph by {e exact
    replay}: the atom store is always rebuilt fresh (cheap, and the only
    way to keep atom ids byte-identical to a from-scratch run), but only
    rules whose body predicates are transitively affected by the edit
    re-run their joins — every other rule replays the candidate streams
    and instances recorded from the previous run. The replayed
    [(store, instances)] pair is byte-identical to what {!run} would
    produce, which is what makes downstream solver caching sound. *)

type snapshot
(** What {!run_record} remembers of a grounding: its rules and
    [lazy_constraints] mode, the per-round candidate heads of each
    inference rule (as {!Atom_store.key}s, which are store-independent)
    and the final per-rule instance lists. *)

val run_record :
  ?max_rounds:int ->
  ?deadline:Prelude.Deadline.t ->
  ?pool:Prelude.Pool.t ->
  ?lazy_constraints:bool ->
  Atom_store.t ->
  Logic.Rule.t list ->
  result * snapshot
(** Exactly {!run}, additionally returning the replay snapshot. *)

val affected_rules :
  delta:string list -> Logic.Rule.t list -> Logic.Rule.t -> bool
(** [affected_rules ~delta rules] closes the set of predicates touched
    by an edit ([delta], grounder predicate names) under rule heads: a
    rule is affected when its body mentions an affected predicate, and
    an affected inference rule's head predicate becomes affected in
    turn. Unaffected rules see byte-identical per-round extensions and
    are safe to replay. *)

val reground :
  snapshot:snapshot ->
  affected:(Logic.Rule.t -> bool) ->
  ?max_rounds:int ->
  ?pool:Prelude.Pool.t ->
  ?lazy_constraints:bool ->
  Atom_store.t ->
  Logic.Rule.t list ->
  (result * snapshot) option
(** Replay the recorded grounding against a freshly rebuilt [store]
    (evidence already interned), re-joining only [affected] rules.
    Returns the result — byte-identical to {!run} on the same store —
    plus the snapshot for the next edit, or [None] when the replay
    cannot be proven exact; callers then fall back to a fresh
    grounding. The replay is refused when the rules differ from the
    recorded ones in anything (not just their names), when
    [lazy_constraints] differs from the recorded mode — replayed rules
    reuse the recorded instance lists, so mixing modes would mix
    semantics — or when a replayed instance references an atom the new
    store lacks.

    @raise Failure when the replayed closure exceeds [max_rounds]. *)
