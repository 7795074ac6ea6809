(** Discrete time intervals.

    TeCoRe assumes a discrete, linearly ordered, finite time domain (days,
    years, ...). An interval [\[lo, hi\]] is inclusive on both ends with
    [lo <= hi]; a time point [t] is the singleton [\[t, t\]]. *)

type t = private { lo : int; hi : int }

exception Invalid of string

val make : int -> int -> t
(** [make lo hi] builds [\[lo, hi\]].
    @raise Invalid if [lo > hi]. *)

val point : int -> t
(** [point t] is the singleton interval [\[t, t\]]. *)

val lo : t -> int
val hi : t -> int

val length : t -> int
(** Number of time points covered: [hi - lo + 1]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic on [(lo, hi)]. *)

val overlaps : t -> t -> bool
(** True when the two intervals share at least one time point. *)

val intersect : t -> t -> t option
(** Largest common sub-interval, when the intervals overlap. This realises
    the [t'' = t ∩ t'] interval computation of rule heads (rule f2 in the
    paper). *)

val hull : t -> t -> t
(** Smallest interval covering both arguments. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation, e.g. [\[2000,2004\]]. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses [\[lo,hi\]] or a bare time point [t]. *)
