module Ivec = Prelude.Ivec

(* Rows live column-major as interned {!Value.code}s: one unboxed int
   array per column. The GC never scans a column, a million-row table
   is [width] flat allocations, and joins hash/compare plain ints. *)

(* Per-column value counts ([code -> occurrences]), built lazily on
   first use and rebuilt when the table has grown since: the grounder's
   join-order heuristic reads them as O(1) selectivity estimates. *)
type col_stats = {
  built_at : int; (* nrows when built *)
  counts : (int, int) Hashtbl.t;
}

type t = {
  table_name : string;
  cols : string array;
  positions : (string, int) Hashtbl.t;
  data : Ivec.t array;
  mutable nrows : int;
  stats : col_stats option array;
}

let create ~name ~columns =
  let positions = Hashtbl.create 8 in
  List.iteri
    (fun i c ->
      if Hashtbl.mem positions c then
        invalid_arg (Printf.sprintf "Table %s: duplicate column %s" name c);
      Hashtbl.replace positions c i)
    columns;
  let width = List.length columns in
  {
    table_name = name;
    cols = Array.of_list columns;
    positions;
    data = Array.init width (fun _ -> Ivec.create ());
    nrows = 0;
    stats = Array.make width None;
  }

let reserve t rows = Array.iter (fun col -> Ivec.reserve col rows) t.data

let name t = t.table_name
let columns t = Array.to_list t.cols
let width t = Array.length t.cols
let cardinal t = t.nrows

let column_index t c =
  match Hashtbl.find_opt t.positions c with
  | Some i -> i
  | None -> raise Not_found

let column_data t col = Ivec.raw t.data.(col)

let insert_codes t codes =
  if Array.length codes <> width t then
    invalid_arg
      (Printf.sprintf "Table %s: row width %d, expected %d" t.table_name
         (Array.length codes) (width t));
  Array.iteri (fun j code -> Ivec.push t.data.(j) code) codes;
  t.nrows <- t.nrows + 1

let count_for t ~col ~code =
  let stats =
    match t.stats.(col) with
    | Some s when s.built_at = t.nrows -> s
    | _ ->
        let counts = Hashtbl.create 256 in
        let data = Ivec.raw t.data.(col) in
        for i = 0 to t.nrows - 1 do
          let c = Array.unsafe_get data i in
          Hashtbl.replace counts c
            (1 + Option.value (Hashtbl.find_opt counts c) ~default:0)
        done;
        let s = { built_at = t.nrows; counts } in
        t.stats.(col) <- Some s;
        s
  in
  Option.value (Hashtbl.find_opt stats.counts code) ~default:0
