(** Relational-algebra operators, materialised over interned codes.

    The grounding engine evaluates rule bodies as conjunctive queries; the
    operators here are its physical plan primitives: a fused
    selection/projection/renaming scan, a code-level selection, a
    partitioned hash equi-join and a cartesian product. Operators copy
    {!Value.code}s column-to-column and never box values; only the
    user-supplied predicates decode. *)

val select_codes : (Value.code array -> bool) -> Table.t -> Table.t
(** Rows for which the predicate holds; the predicate sees the raw code
    row. Rejections are counted under the [ground.filtered_rows]
    observable. *)

val filter_project :
  Table.t ->
  name:string ->
  filters:[ `Eq of int * Value.code | `Same of int * int ] list ->
  keep:(int * string) list ->
  Table.t
(** Fused select+project+rename in one columnar pass: keep rows passing
    every code-level filter ([`Eq (col, code)] — the cell equals a
    constant's code; [`Same (col, col')] — two cells are equal), then
    emit the [keep] columns ([(source position, output name)] pairs) in
    order. This is the grounder's atom-fragment operator; fusing avoids
    materialising two intermediate tables per body atom. *)

val hash_join :
  ?pool:Prelude.Pool.t ->
  ?filter:(Value.code array -> bool) ->
  on:(string * string) list ->
  Table.t ->
  Table.t ->
  Table.t
(** [hash_join ~on:[(l1, r1); ...] left right] — equi-join on the listed
    column pairs. The result carries all left columns followed by the
    right columns that are not join keys; duplicate result names get the
    right table's name as prefix. Builds the hash table on the smaller
    input.

    Large joins are partitioned by a deterministic hash of the join-key
    codes and the partitions are joined independently on [pool]'s worker
    domains (default: sequential). The partition count depends only on
    the input sizes — never on the job count — and outputs concatenate
    in partition order, so the result table is bitwise identical at
    every job count.

    [filter] vetoes assembled output rows before they are stored; rows
    it rejects never materialise. It runs on worker domains and must be
    pure (decoding codes is fine — everything it can see was interned
    before the join started). *)

val product : ?filter:(Value.code array -> bool) -> Table.t -> Table.t -> Table.t
(** Cartesian product (used for condition-only joins). [filter] as in
    {!hash_join}. *)
