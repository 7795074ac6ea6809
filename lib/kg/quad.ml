type t = {
  subject : Term.t;
  predicate : Term.t;
  object_ : Term.t;
  time : Interval.t;
  confidence : float;
}

exception Invalid of string

let max_weight = 20.0

let make ?(confidence = 1.0) ~subject ~predicate ~object_ time =
  if not (confidence > 0.0 && confidence <= 1.0) then
    raise (Invalid (Printf.sprintf "confidence %g outside (0, 1]" confidence));
  if Term.is_literal predicate then
    raise (Invalid "predicate must be an IRI");
  { subject; predicate; object_; time; confidence }

let v s p o (lo, hi) confidence =
  make ~confidence ~subject:(Term.iri s) ~predicate:(Term.iri p) ~object_:o
    (Interval.make lo hi)

let is_certain q = q.confidence >= 1.0

let weight q =
  if is_certain q then max_weight
  else
    let w = log (q.confidence /. (1.0 -. q.confidence)) in
    Float.min max_weight (Float.max (-.max_weight) w)

let same_statement a b =
  Term.equal a.subject b.subject
  && Term.equal a.predicate b.predicate
  && Term.equal a.object_ b.object_
  && Interval.equal a.time b.time

let compare a b =
  let c = Term.compare a.subject b.subject in
  if c <> 0 then c
  else
    let c = Term.compare a.predicate b.predicate in
    if c <> 0 then c
    else
      let c = Term.compare a.object_ b.object_ in
      if c <> 0 then c
      else
        let c = Interval.compare a.time b.time in
        if c <> 0 then c else Float.compare a.confidence b.confidence

let pp ppf q =
  Format.fprintf ppf "(%a, %a, %a, %a)" Term.pp q.subject Term.pp q.predicate
    Term.pp q.object_ Interval.pp q.time;
  if q.confidence < 1.0 then Format.fprintf ppf " %.3g" q.confidence

let to_string q = Format.asprintf "%a" pp q
