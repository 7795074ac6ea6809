module Ivec = Prelude.Ivec

(* All operators work on interned codes ({!Value.code}): rows are read
   column-major from the input's backing arrays and appended to the
   output without ever materialising boxed values; only user-supplied
   predicates decode. *)

let raw_columns t = Array.init (Table.width t) (Table.column_data t)

let select_codes p t =
  let out =
    Table.create ~name:(Table.name t ^ "'") ~columns:(Table.columns t)
  in
  let w = Table.width t in
  let cols = raw_columns t in
  let scratch = Array.make w 0 in
  let dropped = ref 0 in
  for i = 0 to Table.cardinal t - 1 do
    for j = 0 to w - 1 do
      scratch.(j) <- cols.(j).(i)
    done;
    if p scratch then Table.insert_codes out scratch else incr dropped
  done;
  if !dropped > 0 then Obs.count ~n:!dropped "ground.filtered_rows";
  out

(* Fused select+rename+project in one columnar pass: the grounder turns
   every body atom's extension into a bindings fragment this way, and
   fusing the three operators avoids materialising two intermediate
   copies of (potentially) a million rows. [filters] are code-level:
   equality with a constant's code, or equality between two columns
   (intra-atom repeated variables). *)
let filter_project t ~name ~filters ~keep =
  let out = Table.create ~name ~columns:(List.map snd keep) in
  (* A filterless fragment is an exact-size copy; pre-size it. Filtered
     fragments may be much smaller than the input, so they grow. *)
  if filters = [] then Table.reserve out (Table.cardinal t);
  let data = raw_columns t in
  let keep_src = Array.of_list (List.map fst keep) in
  let w = Array.length keep_src in
  let scratch = Array.make w 0 in
  let filters = Array.of_list filters in
  let nf = Array.length filters in
  for i = 0 to Table.cardinal t - 1 do
    let ok = ref true in
    (let j = ref 0 in
     while !ok && !j < nf do
       (match filters.(!j) with
       | `Eq (col, code) -> if data.(col).(i) <> code then ok := false
       | `Same (col, col') -> if data.(col).(i) <> data.(col').(i) then ok := false);
       incr j
     done);
    if !ok then begin
      for j = 0 to w - 1 do
        scratch.(j) <- data.(keep_src.(j)).(i)
      done;
      Table.insert_codes out scratch
    end
  done;
  out

module Code_list_table = Hashtbl.Make (struct
  type t = int list

  let rec equal a b =
    match (a, b) with
    | [], [] -> true
    | x :: a, y :: b -> x = y && equal a b
    | _, _ -> false

  let hash (k : t) = Hashtbl.hash k
end)

let join_columns ~on left right =
  let right_keys = List.map snd on in
  let left_cols = Table.columns left in
  let kept_right =
    List.filter (fun c -> not (List.mem c right_keys)) (Table.columns right)
  in
  let result_cols =
    left_cols
    @ List.map
        (fun c ->
          if List.mem c left_cols then Table.name right ^ "." ^ c else c)
        kept_right
  in
  (kept_right, result_cols)

(* --------------------------------------------------------------- *)
(* Partitioned hash join.                                           *)

(* Rows are split by a deterministic hash of their join-key codes into
   a fixed number of partitions, each partition is joined independently
   (optionally on the pool's worker domains — partitions share nothing),
   and the per-partition outputs are concatenated in partition order.
   The partition count depends only on the input sizes — never on the
   job count — so jobs=N produces the same table as jobs=1, bitwise.

   Small joins skip partitioning entirely: one partition, no pool. *)

let default_partitions = 32

let partition_threshold = 16_384

(* SplitMix-style finaliser: [Hashtbl.hash] truncates ints to 30 bits
   of input entropy, which collapses interned codes that differ only
   high up; this keeps all 63 bits in play. *)
let mix_int x =
  let x = x * 0x3C79AC492BA7B653 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1C69B3F74AC4AE35 in
  x lxor (x lsr 32)

(* One partition's worth of a hash join, emitting matched rows in probe
   order (build order within one probe row) into a flat row-major
   buffer. [filter] sees the assembled output row and can veto it
   before it is ever stored — the grounder pushes constraint-violation
   tests down here so satisfiable combinations never materialise. *)
let join_partition ~build_rows ~probe_rows ~build_key ~probe_key ~build_cols
    ~probe_cols ~build_is_left ~left_width ~kept_right ~out_width ~filter =
  let nkeys = Array.length build_key in
  let out = Ivec.create () in
  let scratch = Array.make out_width 0 in
  let dropped = ref 0 in
  let emit build_row probe_row =
    (* Output schema is left columns then kept right columns,
       independent of which side built the table. *)
    let lrow, lcols, rrow, rcols =
      if build_is_left then (build_row, build_cols, probe_row, probe_cols)
      else (probe_row, probe_cols, build_row, build_cols)
    in
    for j = 0 to left_width - 1 do
      scratch.(j) <- lcols.(j).(lrow)
    done;
    Array.iteri
      (fun j src -> scratch.(left_width + j) <- rcols.(src).(rrow))
      kept_right;
    match filter with
    | Some f when not (f scratch) -> incr dropped
    | _ -> Ivec.append out scratch ~pos:0 ~len:out_width
  in
  if nkeys = 1 then begin
    let bk = build_key.(0) and pk = probe_key.(0) in
    let buckets : (int, Ivec.t) Hashtbl.t = Hashtbl.create 1024 in
    Ivec.iter
      (fun row ->
        let code = build_cols.(bk).(row) in
        match Hashtbl.find_opt buckets code with
        | Some vec -> Ivec.push vec row
        | None ->
            let vec = Ivec.create () in
            Ivec.push vec row;
            Hashtbl.replace buckets code vec)
      build_rows;
    Ivec.iter
      (fun row ->
        match Hashtbl.find_opt buckets probe_cols.(pk).(row) with
        | None -> ()
        | Some matches -> Ivec.iter (fun brow -> emit brow row) matches)
      probe_rows
  end
  else begin
    let buckets = Code_list_table.create 1024 in
    let key_of cols key row =
      Array.to_list (Array.map (fun k -> cols.(k).(row)) key)
    in
    Ivec.iter
      (fun row ->
        let key = key_of build_cols build_key row in
        match Code_list_table.find_opt buckets key with
        | Some vec -> Ivec.push vec row
        | None ->
            let vec = Ivec.create () in
            Ivec.push vec row;
            Code_list_table.replace buckets key vec)
      build_rows;
    Ivec.iter
      (fun row ->
        match
          Code_list_table.find_opt buckets (key_of probe_cols probe_key row)
        with
        | None -> ()
        | Some matches -> Ivec.iter (fun brow -> emit brow row) matches)
      probe_rows
  end;
  (out, !dropped)

let hash_join ?(pool = Prelude.Pool.sequential) ?filter ~on left right =
  let kept_right, result_cols = join_columns ~on left right in
  let lkeys =
    Array.of_list (List.map (fun (l, _) -> Table.column_index left l) on)
  in
  let rkeys =
    Array.of_list (List.map (fun (_, r) -> Table.column_index right r) on)
  in
  let rkept =
    Array.of_list (List.map (Table.column_index right) kept_right)
  in
  let left_cols = raw_columns left and right_cols = raw_columns right in
  let nl = Table.cardinal left and nr = Table.cardinal right in
  (* Build on the smaller side; probe with the larger. *)
  let build_is_left = nl <= nr in
  let build_n, build_cols, build_key, probe_n, probe_cols, probe_key =
    if build_is_left then (nl, left_cols, lkeys, nr, right_cols, rkeys)
    else (nr, right_cols, rkeys, nl, left_cols, lkeys)
  in
  let left_width = Table.width left in
  let out_width = left_width + Array.length rkept in
  (* When the probe side is also the kept side mapping differs; the
     emit path reads kept columns from whichever side is right. *)
  let partitions =
    if nl + nr < partition_threshold then 1 else default_partitions
  in
  let partition_of cols key row =
    if partitions = 1 then 0
    else
      let h =
        Array.fold_left
          (fun h k -> mix_int (h lxor cols.(k).(row)))
          0x9E3779B9 key
      in
      (h land max_int) mod partitions
  in
  let build_parts = Array.init partitions (fun _ -> Ivec.create ()) in
  let probe_parts = Array.init partitions (fun _ -> Ivec.create ()) in
  for row = 0 to build_n - 1 do
    Ivec.push build_parts.(partition_of build_cols build_key row) row
  done;
  for row = 0 to probe_n - 1 do
    Ivec.push probe_parts.(partition_of probe_cols probe_key row) row
  done;
  if partitions > 1 then Obs.count ~n:partitions "ground.partition";
  let results =
    Prelude.Pool.map_array pool
      (fun p ->
        join_partition ~build_rows:build_parts.(p) ~probe_rows:probe_parts.(p)
          ~build_key ~probe_key ~build_cols ~probe_cols ~build_is_left
          ~left_width ~kept_right:rkept ~out_width ~filter)
      (Array.init partitions Fun.id)
  in
  (* Concatenate in partition order: deterministic and independent of
     which domain ran which partition. The output is created here, once
     the total row count is known, so its columns are allocated at
     exact size (no doubling-growth garbage); each consumed buffer (and
     the row-id partitions, dead once the workers return) is released
     as we go, so the peak is one output copy plus the largest
     remaining partition — not two full output copies. *)
  Array.fill build_parts 0 partitions (Ivec.create ());
  Array.fill probe_parts 0 partitions (Ivec.create ());
  let total_rows =
    Array.fold_left
      (fun acc (buf, _) -> acc + (Ivec.length buf / max 1 out_width))
      0 results
  in
  let out =
    Table.create
      ~name:(Table.name left ^ "_" ^ Table.name right)
      ~columns:result_cols
  in
  Table.reserve out total_rows;
  let scratch = Array.make out_width 0 in
  let dropped = ref 0 in
  Array.iteri
    (fun p (buf, d) ->
      dropped := !dropped + d;
      let data = Ivec.raw buf in
      let rows = Ivec.length buf / max 1 out_width in
      for i = 0 to rows - 1 do
        Array.blit data (i * out_width) scratch 0 out_width;
        Table.insert_codes out scratch
      done;
      results.(p) <- (Ivec.create (), 0))
    results;
  if !dropped > 0 then Obs.count ~n:!dropped "ground.filtered_rows";
  out

let product ?filter left right =
  let renamed_right =
    List.map
      (fun c ->
        if List.mem c (Table.columns left) then Table.name right ^ "." ^ c
        else c)
      (Table.columns right)
  in
  let out =
    Table.create
      ~name:(Table.name left ^ "_x_" ^ Table.name right)
      ~columns:(Table.columns left @ renamed_right)
  in
  let lw = Table.width left and rw = Table.width right in
  let lcols = raw_columns left and rcols = raw_columns right in
  let scratch = Array.make (lw + rw) 0 in
  let dropped = ref 0 in
  for i = 0 to Table.cardinal left - 1 do
    for j = 0 to lw - 1 do
      scratch.(j) <- lcols.(j).(i)
    done;
    for k = 0 to Table.cardinal right - 1 do
      for j = 0 to rw - 1 do
        scratch.(lw + j) <- rcols.(j).(k)
      done;
      match filter with
      | Some f when not (f scratch) -> incr dropped
      | _ -> Table.insert_codes out scratch
    done
  done;
  if !dropped > 0 then Obs.count ~n:!dropped "ground.filtered_rows";
  out
