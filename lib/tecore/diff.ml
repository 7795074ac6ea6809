type t = {
  only_left : Kg.Quad.t list;
  only_right : Kg.Quad.t list;
  confidence_changed : (Kg.Quad.t * Kg.Quad.t) list;
  unchanged : int;
}

(* Quads keyed by statement: triple + interval, ignoring confidence. *)
module Statements = Hashtbl.Make (struct
  type t = Kg.Quad.t

  let equal = Kg.Quad.same_statement

  let hash (q : t) =
    Hashtbl.hash
      ( Kg.Term.hash q.subject,
        Kg.Term.hash q.predicate,
        Kg.Term.hash q.object_,
        Kg.Interval.lo q.time,
        Kg.Interval.hi q.time )
end)

let index graph =
  let table = Statements.create 256 in
  Kg.Graph.iter (fun _ q -> Statements.replace table q q) graph;
  table

let diff left right =
  let left_index = index left in
  let right_index = index right in
  let only_left = ref [] in
  let only_right = ref [] in
  let confidence_changed = ref [] in
  let unchanged = ref 0 in
  Statements.iter
    (fun k (lq : Kg.Quad.t) ->
      match Statements.find_opt right_index k with
      | None -> only_left := lq :: !only_left
      | Some rq ->
          if Float.equal lq.confidence rq.confidence then incr unchanged
          else confidence_changed := (lq, rq) :: !confidence_changed)
    left_index;
  Statements.iter
    (fun k rq ->
      if not (Statements.mem left_index k) then only_right := rq :: !only_right)
    right_index;
  let sort = List.sort Kg.Quad.compare in
  {
    only_left = sort !only_left;
    only_right = sort !only_right;
    confidence_changed =
      List.sort (fun (a, _) (b, _) -> Kg.Quad.compare a b) !confidence_changed;
    unchanged = !unchanged;
  }

let is_empty t =
  t.only_left = [] && t.only_right = [] && t.confidence_changed = []

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun q -> Format.fprintf ppf "- %a@ " Kg.Quad.pp q) t.only_left;
  List.iter (fun q -> Format.fprintf ppf "+ %a@ " Kg.Quad.pp q) t.only_right;
  List.iter
    (fun ((l : Kg.Quad.t), (r : Kg.Quad.t)) ->
      Format.fprintf ppf "~ %a (%.3g -> %.3g)@ " Kg.Quad.pp l l.confidence
        r.confidence)
    t.confidence_changed;
  Format.fprintf ppf "%d unchanged@]" t.unchanged
