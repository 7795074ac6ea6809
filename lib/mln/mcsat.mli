(** MC-SAT: slice-sampling marginal inference (Poon & Domingos 2006).

    Gibbs sampling mixes poorly in the presence of the near-deterministic
    dependencies TeCoRe's hard constraints create. MC-SAT samples instead
    by repeatedly (i) selecting a clause set [M] — every hard clause plus
    each currently-satisfied soft clause with probability
    [1 - exp(-w)] — and (ii) drawing a (near-)uniform satisfying
    assignment of [M] with a SampleSAT-style randomized solver. Hard
    constraints are honoured exactly in every sample, so marginals of
    facts in unsatisfiable combinations are driven to genuine zeros
    rather than the small residuals a finite hard weight leaves. *)

type result = {
  marginals : float array;
  samples : int;  (** requested per chain *)
  recorded : int;
      (** samples actually recorded, summed over chains — the marginal
          denominator *)
  rejected : int;
      (** slice-sampling steps where no satisfying assignment was found
          within the flip budget (the previous state is kept), summed
          over chains *)
  chains : int;
  status : Prelude.Deadline.status;
      (** [Completed] when every chain recorded all requested samples;
          [Timed_out] when the deadline cut sampling short; [Degraded]
          when a chain crashed or nothing was recorded *)
}

val run :
  ?seed:int ->
  ?burn_in:int ->
  ?samples:int ->
  ?sample_flips:int ->
  ?init:bool array ->
  ?chains:int ->
  ?deadline:Prelude.Deadline.t ->
  Network.t ->
  result
(** Defaults: [burn_in = 100], [samples = 1_000], [sample_flips = 10_000]
    WalkSAT flips per slice. [init] must satisfy the hard clauses when
    one exists (otherwise MC-SAT first solves for one; that solve
    happens once and seeds every chain).

    [chains] (default 1) runs that many independent slice-sampling
    chains and averages their counts; chain 0 uses [seed] verbatim (so
    [chains = 1] reproduces the single-chain sampler exactly), chain
    [k] derives its stream with {!Prelude.Prng.subseed}. Chains run one
    after another on the calling domain.

    Anytime contract: [deadline] (default {!Prelude.Deadline.none}) is
    polled between slice-sampling steps; on expiry chains stop and the
    marginals average over the samples actually recorded. The initial
    hard-clause solve always runs to completion (a sample that violates
    hard clauses would be unsound). When nothing was recorded the
    result is the point mass of that initial state with
    [status = Degraded]. A crashed chain loses only its own samples. *)
