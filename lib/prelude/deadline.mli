(** Time budgets for anytime inference.

    A deadline is a wall-clock budget that can be shared across worker
    domains. Every stage of the pipeline
    (grounding, the solver portfolios, ADMM sweeps, MILP node
    exploration) polls its deadline at safe points and, on expiry, stops
    where it stands and returns its best feasible answer tagged with a
    {!status} instead of running to completion or dying.

    Polling is cheap: {!expired} on {!none} is a single comparison, and
    on a finite deadline one clock read — callers on very hot paths
    (e.g. the WalkSAT flip loop) additionally stride their polls.

    {!Faults} is the deterministic fault-injection companion: tests and
    CI script worker crashes and artificial slowness at named points to
    exercise the degradation paths without relying on timing. *)

type t

val none : t
(** The infinite budget: never expires. This is
    the default of every [?deadline] argument, and with it every solver
    behaves exactly as it did before deadlines existed. *)

val after : ms:float -> t
(** [after ~ms] expires [ms] milliseconds from now. [ms <= 0] is an
    already-expired deadline (useful to force the anytime paths). *)

val of_timeout_ms : float option -> t
(** [of_timeout_ms (Some ms)] is [after ~ms]; [None] is {!none}. *)

val is_finite : t -> bool
(** [false] exactly for {!none} (and deadlines sliced from it). *)

val expired : t -> bool
(** True once the budget has run out. *)

val remaining_ms : t -> float
(** Milliseconds left ([infinity] for {!none}); negative once overrun. *)

val budget_ms : t -> float
(** The budget the deadline was created with ([infinity] for {!none}). *)

val slice : t -> frac:float -> t
(** [slice t ~frac] is a sub-budget covering [frac] of the remaining
    time of [t]; it never outlives its parent. Slicing
    {!none} returns {!none}: an infinite budget has no meaningful
    fraction. Used by the degradation ladder to give the exact solver a
    bounded first shot. *)

val env_timeout_ms : unit -> float option
(** The [TECORE_TIMEOUT_MS] environment variable as a budget in
    milliseconds ([None] when unset or unparsable). *)

exception Expired
(** The generic "budget ran out before this work started" marker:
    {!Pool.map_results} returns it for tasks it never dealt, and strict
    stages may raise it at a poll point. *)

(** Outcome tag of an anytime computation. *)
type status =
  | Completed  (** ran to natural completion *)
  | Timed_out
      (** the budget expired; the result is the best-so-far answer and
          still satisfies the hard constraints *)
  | Degraded
      (** something was lost along the way — a crashed worker, a
          fallback from the exact path, or a timed-out answer that
          violates hard constraints — the result is still the best
          sound answer available *)

val worst : status -> status -> status
(** Combine stage statuses; [Degraded] dominates [Timed_out] dominates
    [Completed]. *)

val status_name : status -> string
(** ["completed"], ["timed_out"], ["degraded"] — the spelling used in
    [--json] output and BENCH files. *)

val pp_status : Format.formatter -> status -> unit

(** Deterministic fault injection for robustness tests.

    Points are named call sites in production code (e.g.
    ["worker_crash"] at the start of every solver portfolio task,
    ["slow_ground"] in the grounding closure). A point only fires when
    the matching name was configured — via {!configure} or the
    [TECORE_FAULTS] environment variable, a comma-separated list of
    [name] or [name:arg] entries — so the hooks cost one atomic load
    when idle. Firing is a pure function of the configuration and the
    call's own index, never of scheduling, so faulted runs are exactly
    reproducible at every job count. *)
module Faults : sig
  exception Injected of string
  (** Raised by {!inject}; carries the point name. *)

  val configure : string -> unit
  (** [configure "worker_crash,slow_ground:2"] replaces the active
      fault set. The optional [:arg] integer parameterises the point
      (task index for crashes, delay milliseconds for slowdowns;
      default 1). The empty string clears. *)

  val clear : unit -> unit

  val active : string -> bool
  (** Whether the point is configured (env [TECORE_FAULTS] is read once
      at startup; {!configure} overrides it). *)

  val arg : string -> int
  (** The point's configured [:arg] (default 1); 0 when inactive. *)

  val trip_at : string -> index:int -> bool
  (** [trip_at name ~index] is true when the point is active and
      [index] equals its configured argument — the deterministic
      trigger for indexed task crews (crash exactly task [arg] of every
      portfolio, at any job count). *)

  val inject : string -> index:int -> unit
  (** [trip_at] and raise {!Injected} when it fires. *)

  val delay : string -> unit
  (** Sleep [arg] milliseconds when the point is active (the
      ["slow_ground"] hook); returns immediately otherwise. *)
end
