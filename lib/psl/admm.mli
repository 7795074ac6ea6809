(** Consensus ADMM solver for hinge-loss MRF MAP inference.

    The MAP problem of an HL-MRF is convex: minimise the weighted hinge
    losses subject to the linear constraints over [\[0,1\]] variables. We
    use the consensus formulation of Bach et al.: each potential and each
    constraint owns a local copy of its variables; the proximal step for a
    linear hinge and the projection step for a halfspace/hyperplane have
    closed forms; the consensus variable averages the local copies and is
    clipped to the box. This is the algorithm behind the PSL solver the
    paper runs, and the reason the nPSL path scales.

    The kernel runs over the packed {!Hlmrf.t}: the local copies and
    scaled duals are flat float arrays parallel to its terms, and a
    sweep reads each factor's slice in place, so an iteration allocates
    nothing. Its floating-point operations are those of the earlier
    record-per-factor kernel, in the same order, so the iterates are
    the same bit for bit. *)

type stats = {
  iterations : int;
  primal_residual : float;
  dual_residual : float;
  converged : bool;
  objective : float;
  status : Prelude.Deadline.status;
      (** [Timed_out] when the deadline stopped the iteration before
          convergence or [max_iters]; the returned iterate is always
          box-feasible, just less converged *)
}

val solve :
  ?rho:float ->
  ?max_iters:int ->
  ?tol:float ->
  ?init:float array ->
  ?deadline:Prelude.Deadline.t ->
  Hlmrf.t ->
  float array * stats
(** Defaults: [rho = 1.0], [max_iters = 2_000], [tol = 1e-4]. [init]
    seeds the consensus vector (clipped to the box); by default 0.5
    everywhere. Raises [Invalid_argument "Admm.solve: init length"] when
    [init] does not have [num_vars] entries.

    The solve runs on the calling domain. The primal residual is summed
    per block of 256 factors and the block sums are added in block
    order; that association is part of every iterate's bits.

    [deadline] (default {!Prelude.Deadline.none}) is polled between
    iterations; on expiry the current consensus iterate is returned
    with [status = Timed_out]. *)
