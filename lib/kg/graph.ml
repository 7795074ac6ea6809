module Vec = Prelude.Vec

module Term_table = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

module Pair_table = Hashtbl.Make (struct
  type t = Term.t * Term.t

  let equal (a1, b1) (a2, b2) = Term.equal a1 a2 && Term.equal b1 b2
  let hash (a, b) = Hashtbl.hash (Term.hash a, Term.hash b)
end)

type id = int

(* The two lookup indexes are built lazily, on first use: the grounding
   pipeline only ever streams a graph ([iter]), and at 10^6 facts the
   predicate table and the (s, p) pair table cost resident memory the
   stream never needs. Sessions that actually edit pay the build once,
   on their first point query; [add] keeps an already-built index up to
   date. *)
type t = {
  quads : Quad.t Vec.t;
  alive : bool Vec.t;
  mutable live : int;
  mutable by_predicate : id Vec.t Term_table.t option;
  mutable by_sp : id Vec.t Pair_table.t option;
}

let create () =
  {
    quads = Vec.create ();
    alive = Vec.create ();
    live = 0;
    by_predicate = None;
    by_sp = None;
  }

let index_push table key id =
  match Term_table.find_opt table key with
  | Some vec -> Vec.push vec id
  | None ->
      let vec = Vec.create () in
      Vec.push vec id;
      Term_table.replace table key vec

let sp_push table q id =
  match Pair_table.find_opt table (q.Quad.subject, q.Quad.predicate) with
  | Some vec -> Vec.push vec id
  | None ->
      let vec = Vec.create () in
      Vec.push vec id;
      Pair_table.replace table (q.Quad.subject, q.Quad.predicate) vec

(* Index builders cover dead quads too: [remove] never touches the
   indexes (liveness is checked at query time), so a lazily built index
   must agree with one maintained incrementally since [create]. *)
let predicate_index t =
  match t.by_predicate with
  | Some table -> table
  | None ->
      let table = Term_table.create 16 in
      Vec.iteri (fun id q -> index_push table q.Quad.predicate id) t.quads;
      t.by_predicate <- Some table;
      table

let sp_index t =
  match t.by_sp with
  | Some table -> table
  | None ->
      let table = Pair_table.create 64 in
      Vec.iteri (fun id q -> sp_push table q id) t.quads;
      t.by_sp <- Some table;
      table

let add t q =
  let id = Vec.length t.quads in
  Vec.push t.quads q;
  Vec.push t.alive true;
  t.live <- t.live + 1;
  Option.iter (fun table -> index_push table q.Quad.predicate id) t.by_predicate;
  Option.iter (fun table -> sp_push table q id) t.by_sp;
  id

let check_id t id =
  if id < 0 || id >= Vec.length t.quads then
    invalid_arg (Printf.sprintf "Graph: unknown fact id %d" id)

let remove t id =
  check_id t id;
  if Vec.get t.alive id then begin
    Vec.set t.alive id false;
    t.live <- t.live - 1
  end

let mem_id t id = id >= 0 && id < Vec.length t.quads && Vec.get t.alive id

let find t id =
  check_id t id;
  Vec.get t.quads id

let size t = t.live

let iter f t =
  Vec.iteri (fun id q -> if Vec.get t.alive id then f id q) t.quads

let to_list t =
  let acc = ref [] in
  iter (fun _ q -> acc := q :: !acc) t;
  List.rev !acc

let of_list quads =
  let t = create () in
  List.iter (fun q -> ignore (add t q)) quads;
  t

let copy t =
  let t' = create () in
  Vec.iter (fun q -> ignore (add t' q)) t.quads;
  Vec.iteri (fun id alive -> if not alive then remove t' id) t.alive;
  t'

let live t = function
  | None -> []
  | Some vec ->
      List.rev
        (Vec.fold
           (fun acc id ->
             if Vec.get t.alive id then (id, Vec.get t.quads id) :: acc
             else acc)
           [] vec)

let by_predicate t p = live t (Term_table.find_opt (predicate_index t) p)

let by_subject_predicate t s p =
  live t (Pair_table.find_opt (sp_index t) (s, p))

let predicates t =
  let counts = Term_table.create 16 in
  iter
    (fun _ q ->
      let c =
        Option.value (Term_table.find_opt counts q.Quad.predicate) ~default:0
      in
      Term_table.replace counts q.Quad.predicate (c + 1))
    t;
  Term_table.fold (fun p c acc -> (p, c) :: acc) counts []
  |> List.sort (fun (p1, c1) (p2, c2) ->
         match Int.compare c2 c1 with 0 -> Term.compare p1 p2 | c -> c)

let pp ppf t =
  iter (fun _ q -> Format.fprintf ppf "%a@." Quad.pp q) t
