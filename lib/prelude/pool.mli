(** Domain-based work pool: the one multicore primitive of the codebase.

    The two parallel stages of the pipeline, the grounder's partitioned
    hash joins ([Reldb.Relalg.hash_join]) and the Gibbs/MC-SAT sampler
    chains, schedule through a pool so that parallelism is controlled by
    a single [--jobs] knob and results stay deterministic at any job
    count (the MAP solvers run on the calling domain):

    - results are always returned (or side effects committed) in task
      order, never completion order;
    - a pool created with [jobs = 1] bypasses domains entirely — every
      combinator degenerates to a plain sequential loop, so the default
      configuration behaves exactly like the pre-multicore code;
    - callers derive per-task PRNG seeds with {!Prng.subseed} so the
      work done by task [i] does not depend on scheduling.

    The pool itself holds no OS resources: the worker domains behind
    every pool are one process-wide crew, spawned lazily on first
    parallel use, reused across operations and pools (batches
    serialise), and joined by {!release} or at process exit — so pools
    are safe to store in options records and free to create in any
    number. Operations on one pool do not nest: a task must not submit
    work to the pool executing it (see {!exception-Nested_use}); work
    submitted from inside a task to a {e different} pool runs
    sequentially on the calling domain. *)

type t

exception Nested_use
(** Raised when a task running on a pool submits more work to that same
    pool (or when two threads race to use one pool). Nesting would
    deadlock a fixed-size worker set; split the work or use a second
    pool. A [jobs = 1] pool is purely sequential and therefore exempt. *)

val create : jobs:int -> t
(** [create ~jobs] is a pool running at most [jobs] tasks concurrently.
    [jobs = 1] never spawns a domain. [jobs = 0] means
    [recommended_jobs ()]. Raises [Invalid_argument] when [jobs < 0]. *)

val sequential : t
(** A shared [jobs = 1] pool: the default for every [?pool] argument. *)

val jobs : t -> int
(** The concurrency bound the pool was created with (after resolving 0
    to the recommended count). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val parse_jobs : string option -> int option
(** Parse a [--jobs]/[TECORE_JOBS] value: [Some "0"] means recommended,
    [Some "n"] with [n >= 1] means [n], anything else [None]. *)

val default_jobs : unit -> int
(** Job count from the [TECORE_JOBS] environment variable (same syntax
    as {!parse_jobs}), defaulting to 1. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

val map_results :
  ?deadline:Deadline.t -> t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [map_results pool f xs] is {!map} with per-task crash containment
    and deadline-aware dealing: a task that raises yields its own
    [Error] at its input position instead of aborting the batch (the
    crew and the remaining tasks are unaffected), and a task dealt
    after [deadline] expired is skipped and reported as
    [Error Deadline.Expired]. Tasks that ran before the expiry keep
    their results — the anytime solvers use exactly this to hold on to
    the best-so-far attempt when a worker crashes or the budget runs
    out. Ordering and determinism match {!map}. *)

val release : unit -> unit
(** Join the crew's worker domains; the next parallel operation spawns
    them again. An idle worker domain still takes part in every
    stop-the-world minor collection, so a caller that is done with
    parallel work for a while (the engine, once grounding is over)
    releases them. Called from inside a task, it does nothing. *)

type stats = {
  calls : int;    (** parallel operations executed *)
  tasks : int;    (** tasks run across all operations *)
  busy_ms : float;(** summed per-domain busy time *)
  wall_ms : float;(** summed wall time of the operations *)
}

val stats : t -> stats
(** Cumulative scheduling statistics since [create]; callers surface
    them through [Obs]. ([busy_ms /. wall_ms] approximates achieved
    parallelism.) A [jobs = 1] pool runs every operation as a plain loop
    and records nothing: its stats stay all-zero. *)

val set_task_hook : ((unit -> unit) -> unit) option -> unit
(** Install a wrapper invoked around every crew task, on the domain that
    executes it. The wrapper must call its argument exactly once;
    exceptions it lets escape are treated as task failures. Only the
    parallel paths go through it — [jobs = 1] pools and the in-task
    sequential fallback bypass the crew, so sequential runs stay exactly
    as before. The observability layer installs a hook at load time to
    open a per-task span for worker profiling; [None] restores the
    identity wrapper. *)
