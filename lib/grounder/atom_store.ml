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

(* Atoms live code-packed: one flat int buffer holds, per atom, its
   {!key} — the {!Kg.Symbol} id of its predicate, the symbol ids of its
   arguments and an interval code ([0] = atemporal, else interval id +
   1); [offsets] maps an atom id to its slice ([size + 1] entries, last
   one a sentinel). A million boxed [Ground.t] records — each a record,
   an argument list and an option — collapse to ~5 flat ints; the boxed
   view is rebuilt on demand by {!atom}.

   The dictionary is open-addressing over the packed codes: one int
   array of atom ids (-1 = empty), probed linearly, comparing candidate
   slices in the flat buffer. No per-entry allocation, no boxed keys. *)
type key = int array

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
  tables : (int, Reldb.Table.t) Hashtbl.t;
      (** extension tables by {!shape}; the shape fixes the columns *)
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

(* Hash of the codes [src.(pos .. pos+len-1)]: keys and stored slices
   hash alike, so a slice of another store probes without a copy. *)
let hash_codes (src : int array) pos len =
  let h = ref 0x9E3779B9 in
  for i = pos to pos + len - 1 do
    h := mix_int (!h lxor Array.unsafe_get src i)
  done;
  !h land max_int

let slice_equal t atom_id (src : int array) pos len =
  let start = Ivec.get t.offsets atom_id in
  Ivec.get t.offsets (atom_id + 1) - start = len
  &&
  let codes = Ivec.raw t.codes in
  let rec go i =
    i = len
    || Array.unsafe_get codes (start + i) = Array.unsafe_get src (pos + i)
       && go (i + 1)
  in
  go 0

(* Probe for the codes [src.(pos .. pos+len-1)]: the atom id, or
   [-(slot + 1)] for the insertion slot. *)
let probe t src pos len =
  let rec go i =
    match t.dict.(i) with
    | -1 -> -(i + 1)
    | atom_id when slice_equal t atom_id src pos len -> atom_id
    | _ -> go ((i + 1) land t.dict_mask)
  in
  go (hash_codes src pos len land t.dict_mask)

let probe_key t (key : key) = probe t key 0 (Array.length key)

let dict_grow t =
  let cap = 2 * Array.length t.dict in
  let dict = Array.make cap (-1) in
  let mask = cap - 1 in
  let codes = Ivec.raw t.codes in
  for atom_id = 0 to size t - 1 do
    let start = Ivec.get t.offsets atom_id in
    let len = Ivec.get t.offsets (atom_id + 1) - start in
    let rec place i =
      if dict.(i) = -1 then dict.(i) <- atom_id
      else place ((i + 1) land mask)
    in
    place (hash_codes codes start len land mask)
  done;
  t.dict <- dict;
  t.dict_mask <- mask

let key t atom_id =
  if atom_id < 0 || atom_id >= size t then
    invalid_arg (Printf.sprintf "Atom_store: unknown atom id %d" atom_id);
  let start = Ivec.get t.offsets atom_id in
  Array.init
    (Ivec.get t.offsets (atom_id + 1) - start)
    (fun i -> Ivec.get t.codes (start + i))

(* Boxed encodings. [encode] interns symbols (the writer path) in the
   order predicate, arguments, interval; [encode_opt] only looks them
   up — an atom mentioning a never-seen symbol cannot be in the store. *)
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
  let key = key t atom_id in
  let n = Array.length key in
  let predicate = Kg.Term.to_string (Symbol.term key.(0)) in
  let args = List.init (n - 2) (fun i -> Symbol.term key.(i + 1)) in
  let time =
    match key.(n - 1) with 0 -> None | c -> Some (Symbol.interval (c - 1))
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

(* One extension table per (predicate symbol, arity, temporality),
   found by an int key instead of a formatted name. *)
let shape pred ~arity ~temporal =
  if arity >= 1 lsl 15 then invalid_arg "Atom_store: arity too large";
  (pred lsl 16) lor (arity lsl 1) lor Bool.to_int temporal

let table_for t predicate ~arity ~temporal =
  match Symbol.find_term (Kg.Term.iri predicate) with
  | None -> None
  | Some pred -> Hashtbl.find_opt t.tables (shape pred ~arity ~temporal)

(* The extension-table row is the key re-tagged as {!Reldb.Value}
   codes: argument symbols become term codes, the interval code
   becomes an interval code (or NULL), and the atom id is appended. *)
let insert_row t (key : key) id =
  let n = Array.length key in
  let arity = n - 2 in
  let temporal = key.(n - 1) <> 0 in
  let shape = shape key.(0) ~arity ~temporal in
  let table =
    match Hashtbl.find_opt t.tables shape with
    | Some table -> table
    | None ->
        let name =
          table_name (Kg.Term.to_string (Symbol.term key.(0))) ~arity ~temporal
        in
        let table = Reldb.Table.create ~name ~columns:(table_columns arity) in
        Hashtbl.replace t.tables shape table;
        table
  in
  let row = Array.make n 0 in
  for i = 0 to arity - 1 do
    row.(i) <- Reldb.Value.of_term_id key.(i + 1)
  done;
  row.(arity) <-
    (match key.(n - 1) with
    | 0 -> Reldb.Value.code Reldb.Value.Null
    | c -> Reldb.Value.of_interval_id (c - 1));
  row.(arity + 1) <- Reldb.Value.of_int id;
  Reldb.Table.insert_codes table row

(* Origins travel unboxed: [fact = -1] is [Hidden]. *)
let record_fact t id fact =
  if fact >= 0 then begin
    let first = Ivec.get t.first_fact id in
    if first = -1 then Ivec.set t.first_fact id fact
    else if first <> fact then begin
      let more = Option.value (Hashtbl.find_opt t.more_facts id) ~default:[] in
      if not (List.mem fact more) then
        Hashtbl.replace t.more_facts id (fact :: more)
    end
  end

let merge_origin t id fact confidence =
  if fact >= 0 then begin
    let upgrade =
      match Ivec.get t.origin_fact id with
      | -1 -> true
      | _ -> confidence > Fvec.get t.conf id
    in
    if upgrade then begin
      Ivec.set t.origin_fact id fact;
      Fvec.set t.conf id confidence
    end
  end

let intern_packed t (key : key) ~fact ~confidence =
  match probe_key t key with
  | id when id >= 0 ->
      merge_origin t id fact confidence;
      record_fact t id fact;
      id
  | vacant ->
      let id = size t in
      Ivec.append t.codes key ~pos:0 ~len:(Array.length key);
      Ivec.push t.offsets (Ivec.length t.codes);
      t.dict.(-vacant - 1) <- id;
      t.dict_n <- t.dict_n + 1;
      if 2 * t.dict_n >= Array.length t.dict then dict_grow t;
      Ivec.push t.origin_fact fact;
      Fvec.push t.conf (if fact >= 0 then confidence else 0.0);
      Ivec.push t.first_fact (-1);
      insert_row t key id;
      record_fact t id fact;
      id

let intern_key t origin key =
  match origin with
  | Hidden -> intern_packed t key ~fact:(-1) ~confidence:0.0
  | Evidence { confidence; fact } -> intern_packed t key ~fact ~confidence

let intern t origin atom = intern_key t origin (encode atom)

let find t atom =
  Option.bind (encode_opt atom) (fun key ->
      let id = probe_key t key in
      if id >= 0 then Some id else None)

let find_in t ~src id =
  let start = Ivec.get src.offsets id in
  let len = Ivec.get src.offsets (id + 1) - start in
  match probe t (Ivec.raw src.codes) start len with
  | nid when nid >= 0 -> Some nid
  | _ -> None

(* θ on each fact, straight to a key: the symbols are interned in the
   order {!encode} would intern them for [Ground.of_quad q], so atom
   and symbol ids match the boxed path. The predicate of a well-formed
   quad is an IRI; any other term keeps θ's rendered-name semantics. *)
let of_graph graph =
  let t = create () in
  let key = Array.make 4 0 in
  Kg.Graph.iter
    (fun fact q ->
      let predicate =
        match q.Kg.Quad.predicate with
        | Kg.Term.Iri _ as p -> p
        | p -> Kg.Term.iri (Kg.Term.to_string p)
      in
      key.(0) <- Symbol.term_id predicate;
      key.(1) <- Symbol.term_id q.Kg.Quad.subject;
      key.(2) <- Symbol.term_id q.Kg.Quad.object_;
      key.(3) <- Symbol.interval_id q.Kg.Quad.time + 1;
      ignore (intern_packed t key ~fact ~confidence:q.Kg.Quad.confidence))
    graph;
  t

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
