(** Marginal inference by Gibbs sampling.

    TeCoRe focuses on MAP inference, but the demo's discussion
    contrasts it with marginal inference; this sampler provides the
    latter over the same ground network: the probability of each ground
    atom being true under the MLN distribution

    [P(X = x) = Z^-1 exp (Σ_i w_i n_i(x))].

    Hard clauses are handled as large-but-finite weights so the chain
    stays ergodic; the returned marginals therefore concentrate on (not
    strictly restrict to) the consistent worlds. Marginals give each
    fact an individual posterior confidence — a per-fact complement to
    the single most-probable world computed by MAP. *)

type result = {
  marginals : float array;  (** P(atom = true), one entry per atom id *)
  samples : int;            (** requested per chain *)
  recorded : int;           (** sample sweeps actually counted, summed
                                over chains — the marginal denominator *)
  burn_in : int;            (** per chain *)
  chains : int;
  status : Prelude.Deadline.status;
      (** [Completed] when every chain recorded all requested samples;
          [Timed_out] when the deadline cut sampling short but at least
          one sample was recorded; [Degraded] when a chain crashed or
          nothing was recorded at all *)
}

val run :
  ?seed:int ->
  ?burn_in:int ->
  ?samples:int ->
  ?hard_weight:float ->
  ?init:bool array ->
  ?chains:int ->
  ?deadline:Prelude.Deadline.t ->
  Network.t ->
  result
(** Defaults: [burn_in = 1_000] sweeps, [samples = 5_000] sweeps,
    [hard_weight = 2 * Kg.Quad.max_weight], start at [init] (all-false
    when omitted). One sweep resamples every atom once in order.

    [chains] (default 1) runs that many independent chains and averages
    their sample counts; chain 0 uses [seed] verbatim (so [chains = 1]
    reproduces the single-chain sampler exactly) and chain [k] derives
    its stream with {!Prelude.Prng.subseed}. Chains run one after
    another on the calling domain.

    Anytime contract: [deadline] (default {!Prelude.Deadline.none}) is
    polled between sweeps; on expiry each chain stops and the marginals
    are averaged over the sweeps actually recorded ([recorded]). When
    nothing was recorded the result degenerates to the point mass of
    the start state with [status = Degraded]. A crashed chain loses
    only its own samples. *)
