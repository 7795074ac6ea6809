(** Growable unboxed int vector.

    The columnar relational store keeps one of these per column; unlike
    ['a Vec.t] the backing [int array] is unboxed, so a million-row
    column is one flat allocation the GC never scans. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int

val push : t -> int -> unit

val get : t -> int -> int
(** @raise Invalid_argument out of bounds. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument out of bounds. *)

val clear : t -> unit

val reserve : t -> int -> unit
(** Ensure capacity for at least [n] elements (contents preserved).
    Callers that know the final length up front avoid the
    doubling-growth garbage of repeated [push]. *)

val append : t -> int array -> pos:int -> len:int -> unit
(** Bulk-push [len] ints of [src] starting at [pos]. *)

val iter : (int -> unit) -> t -> unit

val to_array : t -> int array
(** Copy of the live prefix. *)

val copy : ?room:int -> t -> t
(** A copy with capacity for [room] (default 0) more elements. *)

val raw : t -> int array
(** The backing array itself (length >= [length t]; entries past the
    live prefix are garbage). For tight loops that index [0 .. length-1]
    without per-element bounds checks. Invalidated by the next [push]. *)
