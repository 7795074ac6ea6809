(** MaxWalkSAT: stochastic local search for weighted partial MaxSAT.

    The scalable approximate MAP solver of the MLN path (the exact
    ILP/branch-and-bound path is {!Exact} and {!Ilp_encoding}). Hard
    clauses dominate lexicographically: an assignment with fewer hard
    violations always beats one with more, regardless of soft cost.

    The solver runs a portfolio of independent descents: the configured
    [restarts] (task 0 starts from [init], later tasks from seeded
    perturbations of it) plus any extra [portfolio] seeds. Tasks draw
    from per-task PRNG streams ({!Prelude.Prng.subseed}) and the winner
    is picked by lexicographic [(hard, soft)] cost with the earliest
    task breaking ties, so the result cost does not depend on how the
    tasks are scheduled: passing a {!Prelude.Pool} runs them on worker
    domains without changing the reported objective.

    The solver reads the network's own packed arrays (literal codes
    with per-clause offsets, unboxed weights, a hard mask; see
    {!Network.t}) and builds only a CSR occurrence index
    ({!Network.occurrences}) per solve, shared read-only by every
    descent. The flip loop
    (clause pick, greedy or random variable choice, flip, best-so-far
    tracking) does not allocate: costs live in unboxed float cells and
    the PRNG state is unboxed. Only observability samples and a finite
    deadline's clock read, every 256 flips, allocate. *)

type stats = {
  flips : int;              (** total across all descents *)
  restarts_used : int;      (** descents beyond the first that did work *)
  hard_violated : int;      (** in the returned assignment *)
  soft_cost : float;        (** violated soft weight in the result *)
  crashed : bool;           (** some portfolio task raised *)
  status : Prelude.Deadline.status;
      (** anytime outcome: [Completed] when every descent ran to its
          natural end, [Timed_out] when the deadline cut search short
          but the answer satisfies every hard clause, [Degraded] when a
          descent crashed or the timed-out answer still violates hard
          clauses *)
}

val solve :
  ?seed:int ->
  ?max_flips:int ->
  ?restarts:int ->
  ?noise:float ->
  ?stall:int ->
  ?init:bool array ->
  ?portfolio:int list ->
  ?pool:Prelude.Pool.t ->
  ?deadline:Prelude.Deadline.t ->
  Network.t ->
  bool array * stats
(** [solve network] returns the best assignment found. Defaults:
    [max_flips = 100_000] per descent, [restarts = 3], [noise = 0.2]
    (probability of a random walk move), [stall = 20_000] flips without
    improvement before giving up on a descent. [init] seeds the base
    assignment (by default all-false; callers should pass
    {!Network.initial_assignment}). [portfolio] appends extra descents
    with exactly these seeds. [pool] (default
    {!Prelude.Pool.sequential}) runs the descents as parallel tasks.

    Optimum stop: a descent ends as soon as its best reaches the
    network's optimum, and prevents further descents from starting
    (running ones complete). The optimum is [(0, 0)] in general; for a
    network of at most 16 atoms with a soft clause, solved before
    [deadline] expires, it is the soft cost of {!Exact.solve}'s proven
    optimum. Improvements must beat the best by more than 1e-12, so
    once a descent holds the optimum nothing can replace it: the stop
    saves flips and restarts but never changes the returned
    assignment. With observability on, such solves count
    [walksat.optimum_known], and those whose answer stays above the
    optimum [walksat.optimum_missed].

    Anytime contract: [deadline] (default {!Prelude.Deadline.none}) is
    polled every 256 flips; on expiry each running descent stops at its
    next poll and unstarted descents are skipped, but the best
    assignment seen so far is always returned — an already-expired
    deadline yields the scored [init] assignment immediately. A descent
    that raises (e.g. an injected ["worker_crash"] fault) loses only
    its own attempt. Without faults, a deadline that does not fire
    walks the same flips and returns the same answer as no deadline. *)
