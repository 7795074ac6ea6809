(* Noisy-or combination: independent supports strengthen belief. *)
let combine_confidence a b = 1.0 -. ((1.0 -. a) *. (1.0 -. b))

let mergeable a b =
  Interval.overlaps a b || Interval.hi a + 1 = Interval.lo b
  || Interval.hi b + 1 = Interval.lo a

module Triples = Hashtbl.Make (struct
  type t = Term.t * Term.t * Term.t

  let equal (s, p, o) (s', p', o') =
    Term.equal s s' && Term.equal p p' && Term.equal o o'

  let hash (s, p, o) = Hashtbl.hash (Term.hash s, Term.hash p, Term.hash o)
end)

let coalesce graph =
  (* Group facts by (s, p, o); merge interval chains inside each group. *)
  let groups = Triples.create 256 in
  let order = ref [] in
  Graph.iter
    (fun _ q ->
      let key = (q.Quad.subject, q.Quad.predicate, q.Quad.object_) in
      match Triples.find_opt groups key with
      | None ->
          order := key :: !order;
          Triples.replace groups key [ q ]
      | Some qs -> Triples.replace groups key (q :: qs))
    graph;
  let out = Graph.create () in
  List.iter
    (fun key ->
      let qs = List.rev (Triples.find groups key) in
      let sorted =
        List.sort (fun (a : Quad.t) b -> Interval.compare a.time b.time) qs
      in
      let merged =
        List.fold_left
          (fun acc (q : Quad.t) ->
            match acc with
            | (interval, confidence) :: rest when mergeable interval q.time ->
                (Interval.hull interval q.time,
                 combine_confidence confidence q.confidence)
                :: rest
            | acc -> (q.time, q.confidence) :: acc)
          [] sorted
        |> List.rev
      in
      let template = List.hd qs in
      List.iter
        (fun (interval, confidence) ->
          ignore
            (Graph.add out
               (Quad.make
                  ~confidence:(Float.min 1.0 confidence)
                  ~subject:template.Quad.subject
                  ~predicate:template.Quad.predicate
                  ~object_:template.Quad.object_ interval)))
        merged)
    (List.rev !order);
  out

type segment = {
  object_ : Term.t;
  interval : Interval.t;
  confidence : float;
}

type gap_or_overlap =
  | Gap of Interval.t
  | Overlap of Interval.t * Term.t * Term.t

type timeline = {
  subject : Term.t;
  predicate : Term.t;
  segments : segment list;
  issues : gap_or_overlap list;
}

let timeline graph ~subject ~predicate =
  let facts = Graph.by_subject_predicate graph subject predicate in
  let segments =
    List.map
      (fun (_, (q : Quad.t)) ->
        { object_ = q.object_; interval = q.time; confidence = q.confidence })
      facts
    |> List.sort (fun a b -> Interval.compare a.interval b.interval)
  in
  let rec issues acc = function
    | [] | [ _ ] -> List.rev acc
    | a :: (b :: _ as rest) ->
        let acc =
          if Interval.overlaps a.interval b.interval then
            if Term.equal a.object_ b.object_ then acc
            else
              match Interval.intersect a.interval b.interval with
              | Some i -> Overlap (i, a.object_, b.object_) :: acc
              | None -> acc
          else if Interval.hi a.interval + 1 < Interval.lo b.interval then
            Gap
              (Interval.make
                 (Interval.hi a.interval + 1)
                 (Interval.lo b.interval - 1))
            :: acc
          else acc
        in
        issues acc rest
  in
  { subject; predicate; segments; issues = issues [] segments }

let pp_timeline ppf t =
  Format.fprintf ppf "@[<v>%a / %a:" Term.pp t.subject Term.pp t.predicate;
  List.iter
    (fun s ->
      Format.fprintf ppf "@   %a %a (%.2g)" Interval.pp s.interval Term.pp
        s.object_ s.confidence)
    t.segments;
  List.iter
    (fun issue ->
      match issue with
      | Gap i -> Format.fprintf ppf "@   gap %a" Interval.pp i
      | Overlap (i, a, b) ->
          Format.fprintf ppf "@   overlap %a: %a vs %a" Interval.pp i Term.pp a
            Term.pp b)
    t.issues;
  Format.fprintf ppf "@]"
