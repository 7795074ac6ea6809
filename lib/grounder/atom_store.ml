module Ivec = Prelude.Ivec
module Vec = Prelude.Vec
module Ground = Logic.Atom.Ground
module Graph = Kg.Graph

type id = int

type origin =
  | Evidence of { confidence : float; fact : Kg.Graph.id }
  | Hidden

(* Atoms live code-packed: one flat int buffer holds, per atom, its
   {!key} — the symbol code of its predicate, the symbol codes of its
   arguments and an interval code ([0] = atemporal, else interval code
   + 1), all from the graph's table [symbols]; [offsets] maps an atom
   id to its slice ([size + 1] entries, last one a sentinel). A million
   boxed [Ground.t] records — each a record, an argument list and an
   option — collapse to ~5 flat ints; the boxed view is rebuilt on
   demand by {!atom}.

   The dictionary is open-addressing over the packed codes: one int
   array of atom ids (-1 = empty), probed linearly, comparing candidate
   slices in the flat buffer. No per-entry allocation, no boxed keys. *)
type key = int array

type t = {
  symbols : Graph.symbols;
  codes : Ivec.t;
  offsets : Ivec.t;
  mutable dict : int array;
  mutable dict_mask : int;
  mutable dict_n : int;
  conf : float Vec.t;  (** meaningful where [origin_fact] >= 0 *)
  origin_fact : Ivec.t;  (** max-confidence evidence fact; -1 = hidden *)
  first_fact : Ivec.t;
      (** first interned fact (ordering); -1 = none; [-2 - f] if more *)
  more_facts : (id, Kg.Graph.id list) Hashtbl.t;
      (** facts beyond the first, newest first; only multi-fact atoms *)
  tables : (int, Reldb.Table.t) Hashtbl.t;
      (** extension tables by {!shape}; the shape fixes the columns *)
}

(* A store sized for [atoms] atoms of up to 4 codes: its dictionary
   stays under half full without a rehash. *)
let sized symbols ~atoms =
  let offsets = Ivec.create ~capacity:(atoms + 1) () in
  Ivec.push offsets 0;
  let rec fit cap = if cap > 2 * atoms then cap else fit (2 * cap) in
  let cap = fit 1024 in
  {
    symbols;
    codes = Ivec.create ~capacity:(4 * atoms) ();
    offsets;
    dict = Array.make cap (-1);
    dict_mask = cap - 1;
    dict_n = 0;
    conf = Vec.create ();
    origin_fact = Ivec.create ~capacity:atoms ();
    first_fact = Ivec.create ~capacity:atoms ();
    more_facts = Hashtbl.create 64;
    tables = Hashtbl.create 16;
  }

let create symbols = sized symbols ~atoms:0
let symbols t = t.symbols

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
  Array.sub (Ivec.raw t.codes) start (Ivec.get t.offsets (atom_id + 1) - start)

(* A boxed atom's key: with [intern], interning its symbols (the
   writer path) in the order predicate, arguments, interval; without,
   only looking them up — [None] for an atom mentioning a never-seen
   symbol, which cannot be in the store. *)
let encode t ~intern (atom : Ground.t) =
  let code add find x =
    if intern then Some (add t.symbols x) else find t.symbols x
  in
  let term = code Graph.intern_term Graph.find_term in
  let predicate = term (Kg.Term.iri atom.predicate) in
  let args = List.map term atom.args in
  let time =
    match atom.time with
    | None -> Some 0
    | Some i ->
        Option.map succ (code Graph.intern_interval Graph.find_interval i)
  in
  let codes = (predicate :: args) @ [ time ] in
  if List.mem None codes then None
  else Some (Array.of_list (List.map Option.get codes))

let atom t atom_id =
  let key = key t atom_id in
  let n = Array.length key in
  let term = Graph.term t.symbols in
  let time =
    match key.(n - 1) with
    | 0 -> None
    | c -> Some (Graph.interval t.symbols (c - 1))
  in
  Ground.make ?time
    (Kg.Term.to_string (term key.(0)))
    (List.init (n - 2) (fun i -> term key.(i + 1)))

let origin t atom_id =
  match Ivec.get t.origin_fact atom_id with
  | -1 -> Hidden
  | fact -> Evidence { confidence = Vec.get t.conf atom_id; fact }

let is_evidence t atom_id = Ivec.get t.origin_fact atom_id >= 0

(* One extension table per (predicate symbol, arity, temporality),
   found by an int key instead of a formatted name. *)
let shape pred ~arity ~temporal =
  if arity >= 1 lsl 15 then invalid_arg "Atom_store: arity too large";
  (pred lsl 16) lor (arity lsl 1) lor Bool.to_int temporal

let table_for t predicate ~arity ~temporal =
  match Graph.find_term t.symbols (Kg.Term.iri predicate) with
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
          Printf.sprintf "%s/%d%s"
            (Kg.Term.to_string (Graph.term t.symbols key.(0)))
            arity
            (if temporal then "@" else "")
        in
        let columns = List.init arity (Printf.sprintf "a%d") @ [ "t"; "atom" ] in
        let table = Reldb.Table.create ~name ~columns in
        Hashtbl.replace t.tables shape table;
        table
  in
  let row = Array.make n 0 in
  for i = 0 to arity - 1 do
    row.(i) <- Reldb.Value.of_term_id key.(i + 1)
  done;
  row.(arity) <-
    (match key.(n - 1) with
    | 0 -> Reldb.Value.null
    | c -> Reldb.Value.of_interval_id (c - 1));
  row.(arity + 1) <- Reldb.Value.of_int id;
  Reldb.Table.insert_codes table row

(* Origins travel unboxed: [fact = -1] is [Hidden]. *)
let record_fact t id fact =
  let first = Ivec.get t.first_fact id in
  if fact < 0 || fact = first || fact = -2 - first then ()
  else if first = -1 then Ivec.set t.first_fact id fact
  else
    let more = Option.value (Hashtbl.find_opt t.more_facts id) ~default:[] in
    if not (List.mem fact more) then begin
      Ivec.set t.first_fact id (min first (-2 - first));
      Hashtbl.replace t.more_facts id (fact :: more)
    end

let merge_origin t id fact confidence =
  if fact >= 0 then begin
    let upgrade =
      match Ivec.get t.origin_fact id with
      | -1 -> true
      | _ -> confidence > Vec.get t.conf id
    in
    if upgrade then begin
      Ivec.set t.origin_fact id fact;
      Vec.set t.conf id confidence
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
      Vec.push t.conf (if fact >= 0 then confidence else 0.0);
      Ivec.push t.first_fact (-1);
      insert_row t key id;
      record_fact t id fact;
      id

let intern_key t origin key =
  match origin with
  | Hidden -> intern_packed t key ~fact:(-1) ~confidence:0.0
  | Evidence { confidence; fact } -> intern_packed t key ~fact ~confidence

let intern t origin atom =
  intern_key t origin (Option.get (encode t ~intern:true atom))

let find t atom =
  Option.bind (encode t ~intern:false atom) (fun key ->
      let id = probe_key t key in
      if id >= 0 then Some id else None)

let find_in t ~src id =
  let start = Ivec.get src.offsets id in
  let len = Ivec.get src.offsets (id + 1) - start in
  match probe t (Ivec.raw src.codes) start len with
  | nid when nid >= 0 -> Some nid
  | _ -> None

(* θ on each fact, as a column copy: a fact's row of codes is its
   atom's key, with the interval code shifted by one, so no term is
   hashed. The predicate of a well-formed quad is an IRI; any other
   term keeps θ's rendered-name semantics and is interned as that IRI. *)
let of_graph graph =
  let symbols = Graph.symbols graph in
  let t = sized symbols ~atoms:(Graph.size graph) in
  let key = Array.make 4 0 in
  Graph.iter_codes
    (fun fact ~predicate ~subject ~object_ ~interval ~confidence ->
      key.(0) <-
        (match Graph.term symbols predicate with
        | Kg.Term.Iri _ -> predicate
        | p -> Graph.intern_term symbols (Kg.Term.iri (Kg.Term.to_string p)));
      key.(1) <- subject;
      key.(2) <- object_;
      key.(3) <- interval + 1;
      ignore (intern_packed t key ~fact ~confidence))
    graph;
  t

let evidence_facts t id =
  match Ivec.get t.first_fact id with
  | -1 -> []
  | first when first >= 0 -> [ first ]
  | marked -> (-2 - marked) :: List.rev (Hashtbl.find t.more_facts id)

let iter f t =
  for id = 0 to size t - 1 do
    f id (atom t id) (origin t id)
  done
