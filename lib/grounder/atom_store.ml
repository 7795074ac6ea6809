module Ivec = Prelude.Ivec
module Ground = Logic.Atom.Ground
module Symbol = Kg.Symbol

type id = int

type origin =
  | Evidence of { confidence : float; fact : Kg.Graph.id }
  | Hidden

(* Growable unboxed float vector (per-atom evidence confidence). *)
module Fvec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let grown = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.data.(i)
  let set t i x = t.data.(i) <- x
end

(* Atoms live code-packed: one flat int buffer holds, per atom, the
   {!Kg.Symbol} id of its predicate, the symbol ids of its arguments
   and an interval code ([0] = atemporal, else interval id + 1);
   [offsets] maps an atom id to its slice ([size + 1] entries, last one
   a sentinel). A million boxed [Ground.t] records — each a record, an
   argument list and an option — collapse to ~5 flat ints; the boxed
   view is rebuilt on demand by {!atom}.

   The dictionary is open-addressing over the packed codes: one int
   array of atom ids (-1 = empty), probed linearly, comparing candidate
   slices in the flat buffer. No per-entry allocation, no boxed keys. *)
type t = {
  codes : Ivec.t;
  offsets : Ivec.t;
  mutable dict : int array;
  mutable dict_mask : int;
  mutable dict_n : int;
  conf : Fvec.t;  (** meaningful where [origin_fact] >= 0 *)
  origin_fact : Ivec.t;  (** max-confidence evidence fact; -1 = hidden *)
  first_fact : Ivec.t;  (** first interned fact (ordering); -1 = none *)
  more_facts : (id, Kg.Graph.id list) Hashtbl.t;
      (** facts beyond the first, newest first; only multi-fact atoms *)
  tables : (string, Reldb.Table.t) Hashtbl.t;
      (** extension tables by {!table_name}; the name fixes the columns *)
}

let create () =
  let offsets = Ivec.create () in
  Ivec.push offsets 0;
  {
    codes = Ivec.create ();
    offsets;
    dict = Array.make 1024 (-1);
    dict_mask = 1023;
    dict_n = 0;
    conf = Fvec.create ();
    origin_fact = Ivec.create ();
    first_fact = Ivec.create ();
    more_facts = Hashtbl.create 64;
    tables = Hashtbl.create 16;
  }

let size t = Ivec.length t.offsets - 1

(* SplitMix-style finaliser over the packed codes (62-bit-safe
   constants; [Hashtbl.hash] would truncate to 30 bits of entropy). *)
let mix_int x =
  let x = x * 0x3C79AC492BA7B653 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1C69B3F74AC4AE35 in
  x lxor (x lsr 32)

let hash_key key = Array.fold_left (fun h c -> mix_int (h lxor c)) 0x9E3779B9 key

let slice_equal t atom_id key =
  let start = Ivec.get t.offsets atom_id in
  let stop = Ivec.get t.offsets (atom_id + 1) in
  stop - start = Array.length key
  &&
  let rec go i =
    i = Array.length key || (Ivec.get t.codes (start + i) = key.(i) && go (i + 1))
  in
  go 0

(* Probe for [key]: the atom id, or the insertion slot. *)
let dict_find t key =
  let h = hash_key key land max_int in
  let rec probe i =
    match t.dict.(i) with
    | -1 -> `Vacant i
    | atom_id when slice_equal t atom_id key -> `Found atom_id
    | _ -> probe ((i + 1) land t.dict_mask)
  in
  probe (h land t.dict_mask)

let key_of_atom t atom_id =
  let start = Ivec.get t.offsets atom_id in
  Array.init
    (Ivec.get t.offsets (atom_id + 1) - start)
    (fun i -> Ivec.get t.codes (start + i))

let dict_grow t =
  let cap = 2 * Array.length t.dict in
  let dict = Array.make cap (-1) in
  let mask = cap - 1 in
  for atom_id = 0 to size t - 1 do
    let h = hash_key (key_of_atom t atom_id) land max_int in
    let rec place i =
      if dict.(i) = -1 then dict.(i) <- atom_id
      else place ((i + 1) land mask)
    in
    place (h land mask)
  done;
  t.dict <- dict;
  t.dict_mask <- mask

(* Packed encodings. [encode] interns symbols (the writer path);
   [encode_opt] only looks them up — an atom mentioning a never-seen
   symbol cannot be in the store. *)
let time_code = function
  | None -> 0
  | Some i -> Symbol.interval_id i + 1

let encode (atom : Ground.t) =
  let nargs = List.length atom.args in
  let key = Array.make (nargs + 2) 0 in
  key.(0) <- Symbol.term_id (Kg.Term.iri atom.predicate);
  List.iteri (fun i a -> key.(i + 1) <- Symbol.term_id a) atom.args;
  key.(nargs + 1) <- time_code atom.time;
  key

let encode_opt (atom : Ground.t) =
  match Symbol.find_term (Kg.Term.iri atom.predicate) with
  | None -> None
  | Some pred ->
      let nargs = List.length atom.args in
      let key = Array.make (nargs + 2) 0 in
      key.(0) <- pred;
      let ok =
        List.for_all
          (fun (i, a) ->
            match Symbol.find_term a with
            | Some s ->
                key.(i + 1) <- s;
                true
            | None -> false)
          (List.mapi (fun i a -> (i, a)) atom.args)
        &&
        match atom.time with
        | None -> true
        | Some iv -> (
            match Symbol.find_interval iv with
            | Some s ->
                key.(nargs + 1) <- s + 1;
                true
            | None -> false)
      in
      if ok then Some key else None

let atom t atom_id =
  if atom_id < 0 || atom_id >= size t then
    invalid_arg (Printf.sprintf "Atom_store: unknown atom id %d" atom_id);
  let start = Ivec.get t.offsets atom_id in
  let stop = Ivec.get t.offsets (atom_id + 1) in
  let predicate = Kg.Term.to_string (Symbol.term (Ivec.get t.codes start)) in
  let args =
    List.init (stop - start - 2) (fun i ->
        Symbol.term (Ivec.get t.codes (start + 1 + i)))
  in
  let time =
    match Ivec.get t.codes (stop - 1) with
    | 0 -> None
    | c -> Some (Symbol.interval (c - 1))
  in
  Ground.make ?time predicate args

let origin t atom_id =
  match Ivec.get t.origin_fact atom_id with
  | -1 -> Hidden
  | fact -> Evidence { confidence = Fvec.get t.conf atom_id; fact }

let is_evidence t atom_id = Ivec.get t.origin_fact atom_id >= 0

let table_name predicate ~arity ~temporal =
  Printf.sprintf "%s/%d%s" predicate arity (if temporal then "@" else "")

let table_columns arity =
  List.init arity (fun i -> Printf.sprintf "a%d" i) @ [ "t"; "atom" ]

let table_for t predicate ~arity ~temporal =
  Hashtbl.find_opt t.tables (table_name predicate ~arity ~temporal)

let insert_row t (atom : Ground.t) id =
  let arity = List.length atom.args in
  let temporal = Option.is_some atom.time in
  let name = table_name atom.predicate ~arity ~temporal in
  let table =
    match Hashtbl.find_opt t.tables name with
    | Some table -> table
    | None ->
        let table = Reldb.Table.create ~name ~columns:(table_columns arity) in
        Hashtbl.replace t.tables name table;
        table
  in
  let row = Array.make (arity + 2) 0 in
  List.iteri
    (fun i a -> row.(i) <- Reldb.Value.code (Reldb.Value.term a))
    atom.args;
  row.(arity) <-
    Reldb.Value.code
      (match atom.time with
      | Some i -> Reldb.Value.interval i
      | None -> Reldb.Value.Null);
  row.(arity + 1) <- Reldb.Value.code (Reldb.Value.int id);
  Reldb.Table.insert_codes table row

let record_fact t id origin =
  match origin with
  | Evidence { fact; _ } ->
      let first = Ivec.get t.first_fact id in
      if first = -1 then Ivec.set t.first_fact id fact
      else if first <> fact then begin
        let more = Option.value (Hashtbl.find_opt t.more_facts id) ~default:[] in
        if not (List.mem fact more) then
          Hashtbl.replace t.more_facts id (fact :: more)
      end
  | Hidden -> ()

let merge_origin t id origin =
  match origin with
  | Hidden -> ()
  | Evidence { confidence; fact } ->
      let upgrade =
        match Ivec.get t.origin_fact id with
        | -1 -> true
        | _ -> confidence > Fvec.get t.conf id
      in
      if upgrade then begin
        Ivec.set t.origin_fact id fact;
        Fvec.set t.conf id confidence
      end

let intern t origin atom =
  let key = encode atom in
  match dict_find t key with
  | `Found id ->
      merge_origin t id origin;
      record_fact t id origin;
      id
  | `Vacant slot ->
      let id = size t in
      Array.iter (fun c -> Ivec.push t.codes c) key;
      Ivec.push t.offsets (Ivec.length t.codes);
      t.dict.(slot) <- id;
      t.dict_n <- t.dict_n + 1;
      if 2 * t.dict_n >= Array.length t.dict then dict_grow t;
      (match origin with
      | Hidden ->
          Ivec.push t.origin_fact (-1);
          Fvec.push t.conf 0.0
      | Evidence { confidence; fact } ->
          Ivec.push t.origin_fact fact;
          Fvec.push t.conf confidence);
      Ivec.push t.first_fact (-1);
      insert_row t atom id;
      record_fact t id origin;
      id

let of_graph graph =
  let t = create () in
  Kg.Graph.iter
    (fun fact q ->
      ignore
        (intern t
           (Evidence { confidence = q.Kg.Quad.confidence; fact })
           (Ground.of_quad q)))
    graph;
  t

let find t atom =
  match encode_opt atom with
  | None -> None
  | Some key -> (
      match dict_find t key with `Found id -> Some id | `Vacant _ -> None)

let evidence_facts t id =
  match Ivec.get t.first_fact id with
  | -1 -> []
  | first ->
      first
      :: List.rev (Option.value (Hashtbl.find_opt t.more_facts id) ~default:[])

let iter f t =
  for id = 0 to size t - 1 do
    f id (atom t id) (origin t id)
  done
