(** Deterministic splitmix64 pseudo-random number generator.

    All stochastic components of the reproduction (data generators,
    MaxWalkSAT, sampling in benches) draw from this generator so that every
    run of every experiment is bit-for-bit reproducible from a seed.
    The state is kept unboxed, so [int] and [bernoulli] draws allocate
    nothing. *)

type t

val create : int -> t
(** [create seed] builds a fresh generator. Equal seeds give equal streams. *)

val subseed : int -> int -> int
(** [subseed seed i] is a decorrelated child seed for task [i] of a
    computation seeded with [seed] — a pure function of its arguments,
    so parallel tasks get reproducible streams at any job count. The
    result is non-negative. Raises [Invalid_argument] when [i < 0]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli g p] is true with probability [p]. *)

val range : t -> int -> int -> int
(** [range g lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)
