module Vec = Prelude.Vec
module Ivec = Prelude.Ivec

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

(* One intern table: values to dense codes, in first-intern order. *)
module Intern (H : Hashtbl.HashedType) = struct
  module Codes = Hashtbl.Make (H)

  type t = { codes : int Codes.t; values : H.t Vec.t }

  let create n = { codes = Codes.create n; values = Vec.create () }

  let intern t x =
    match Codes.find t.codes x with
    | code -> code
    | exception Not_found ->
        let code = Vec.length t.values in
        Vec.push t.values x;
        Codes.add t.codes x code;
        code

  let copy t = { codes = Codes.copy t.codes; values = Vec.copy t.values }
end

module Terms = Intern (struct
  type t = Term.t

  let equal = Term.equal

  (* [equal] tells an IRI from a string of the same spelling, so the
     constructor need not enter the hash (nor a boxed tag pair). *)
  let hash : t -> int = function
    | Iri s | Str s -> Hashtbl.hash s
    | Int n -> Hashtbl.hash n
    | Flt f -> Hashtbl.hash f
end)

module Intervals = Intern (struct
  type t = Interval.t

  let equal = Interval.equal
  let hash (i : t) = Hashtbl.hash i
end)

type symbols = { terms : Terms.t; intervals : Intervals.t }

(* Eta-expanded: a partial application would allocate a closure per
   call, and the joins decode per row. *)
let intern_term s t = Terms.intern s.terms t
let intern_interval s i = Intervals.intern s.intervals i
let find_term s t = Terms.Codes.find_opt s.terms.codes t
let find_interval s i = Intervals.Codes.find_opt s.intervals.codes i
let term s code = Vec.get s.terms.values code
let interval s code = Vec.get s.intervals.values code
let term_count s = Vec.length s.terms.values
let interval_count s = Vec.length s.intervals.values

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)
(* ------------------------------------------------------------------ *)

type id = int

(* Fact [id] is row [id] of [codes]: its predicate, subject, object and
   interval codes, in the order [add] interns them and the grounder
   keys an atom in. The predicate index is built lazily, on first use:
   the grounding pipeline only ever streams a graph, and at 10^6 facts
   the index costs resident memory the stream never needs. Sessions
   that actually edit pay the build once, on their first point query;
   [add] keeps an already-built index up to date. *)
let stride = 4

type t = {
  symbols : symbols;
  codes : Ivec.t;
  confidence : float Vec.t;
  alive : Ivec.t;  (** 1 while live, 0 once removed *)
  mutable live : int;
  mutable by_predicate : (int, Ivec.t) Hashtbl.t option;
}

let create () =
  {
    symbols = { terms = Terms.create 1024; intervals = Intervals.create 256 };
    codes = Ivec.create ();
    confidence = Vec.create ();
    alive = Ivec.create ();
    live = 0;
    by_predicate = None;
  }

let symbols t = t.symbols
let count t = Vec.length t.confidence
let code t id k = Ivec.get t.codes ((stride * id) + k)

let index_push table p id =
  match Hashtbl.find_opt table p with
  | Some ids -> Ivec.push ids id
  | None ->
      let ids = Ivec.create () in
      Ivec.push ids id;
      Hashtbl.replace table p ids

(* The index covers dead facts too: [remove] never touches it (liveness
   is checked at query time), so a lazily built index must agree with
   one maintained incrementally since [create]. *)
let predicate_index t =
  match t.by_predicate with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 64 in
      for id = 0 to count t - 1 do
        index_push table (code t id 0) id
      done;
      t.by_predicate <- Some table;
      table

let add_codes t ~predicate ~subject ~object_ ~interval ~confidence =
  let id = count t in
  Ivec.push t.codes predicate;
  Ivec.push t.codes subject;
  Ivec.push t.codes object_;
  Ivec.push t.codes interval;
  Vec.push t.confidence confidence;
  Ivec.push t.alive 1;
  t.live <- t.live + 1;
  Option.iter (fun table -> index_push table predicate id) t.by_predicate;
  id

let add t (q : Quad.t) =
  let s = t.symbols in
  let predicate = intern_term s q.predicate in
  let subject = intern_term s q.subject in
  let object_ = intern_term s q.object_ in
  let interval = intern_interval s q.time in
  add_codes t ~predicate ~subject ~object_ ~interval ~confidence:q.confidence

let check_id t id =
  if id < 0 || id >= count t then
    invalid_arg (Printf.sprintf "Graph: unknown fact id %d" id)

let mem_id t id = id >= 0 && id < count t && Ivec.get t.alive id = 1

let remove t id =
  check_id t id;
  if mem_id t id then begin
    Ivec.set t.alive id 0;
    t.live <- t.live - 1
  end

let find t id =
  check_id t id;
  let s = t.symbols in
  {
    Quad.predicate = term s (code t id 0);
    subject = term s (code t id 1);
    object_ = term s (code t id 2);
    time = interval s (code t id 3);
    confidence = Vec.get t.confidence id;
  }

let size t = t.live

let iter_codes f t =
  let alive = Ivec.raw t.alive and codes = Ivec.raw t.codes in
  for id = 0 to count t - 1 do
    if alive.(id) = 1 then
      let row = stride * id in
      f id ~predicate:codes.(row) ~subject:codes.(row + 1)
        ~object_:codes.(row + 2) ~interval:codes.(row + 3)
        ~confidence:(Vec.get t.confidence id)
  done

let iter f t =
  for id = 0 to count t - 1 do
    if mem_id t id then f id (find t id)
  done

let to_list t =
  let acc = ref [] in
  iter (fun _ q -> acc := q :: !acc) t;
  List.rev !acc

let of_list quads =
  let t = create () in
  List.iter (fun q -> ignore (add t q)) quads;
  t

let copy ?(room = 0) t =
  {
    t with
    symbols =
      {
        terms = Terms.copy t.symbols.terms;
        intervals = Intervals.copy t.symbols.intervals;
      };
    codes = Ivec.copy ~room:(stride * room) t.codes;
    confidence = Vec.copy ~room t.confidence;
    alive = Ivec.copy ~room t.alive;
    by_predicate = None;
  }

let by_predicate t p =
  match
    Option.bind (find_term t.symbols p) (Hashtbl.find_opt (predicate_index t))
  with
  | None -> []
  | Some ids ->
      Array.to_list (Ivec.to_array ids)
      |> List.filter_map (fun id ->
             if mem_id t id then Some (id, find t id) else None)

let by_subject_predicate t s p =
  match find_term t.symbols s with
  | None -> []
  | Some s -> List.filter (fun (id, _) -> code t id 1 = s) (by_predicate t p)

let predicates t =
  let counts = Hashtbl.create 16 in
  iter_codes
    (fun _ ~predicate ~subject:_ ~object_:_ ~interval:_ ~confidence:_ ->
      let c = Option.value (Hashtbl.find_opt counts predicate) ~default:0 in
      Hashtbl.replace counts predicate (c + 1))
    t;
  Hashtbl.fold (fun p c acc -> (term t.symbols p, c) :: acc) counts []
  |> List.sort (fun (p1, c1) (p2, c2) ->
         match Int.compare c2 c1 with 0 -> Term.compare p1 p2 | c -> c)

let pp ppf t = iter (fun _ q -> Format.fprintf ppf "%a@." Quad.pp q) t
