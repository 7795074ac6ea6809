(** Growable array (vector) with amortised O(1) push.

    Used pervasively by the quad store, the grounders and the solvers, which
    all build large collections incrementally. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_array : 'a t -> 'a array

val copy : ?room:int -> 'a t -> 'a t
(** A copy with capacity for [room] (default 0) more elements. *)
