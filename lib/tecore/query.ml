type answer = {
  subst : Logic.Subst.t;
  facts : Kg.Graph.id list;
  confidence : float;
}

let run_parsed graph atoms conditions =
  let rule =
    (* A query is a rule body; Bottom is a placeholder head, and
       Rule.make enforces exactly the safety conditions queries need. *)
    Logic.Rule.make ~name:"query" ~conditions ~body:atoms Logic.Rule.Bottom
  in
  let store = Grounder.Atom_store.of_graph graph in
  List.map
    (fun { Grounder.Body.subst; body_atoms } ->
      let facts, confidence =
        List.fold_left
          (fun (facts, confidence) atom_id ->
            match Grounder.Atom_store.origin store atom_id with
            | Grounder.Atom_store.Evidence { fact; confidence = c } ->
                (fact :: facts, confidence *. c)
            | Grounder.Atom_store.Hidden -> (facts, confidence))
          ([], 1.0) body_atoms
      in
      { subst; facts = List.rev facts; confidence })
    (Grounder.Body.all store rule)

let run ?namespace graph src =
  match Rulelang.Parser.parse_query ?namespace src with
  | Error e -> Error (Format.asprintf "%a" Rulelang.Parser.pp_error e)
  | Ok (atoms, conditions) -> (
      match run_parsed graph atoms conditions with
      | answers -> Ok answers
      | exception (Logic.Rule.Ill_formed msg | Invalid_argument msg) ->
          Error msg)

let pp_answer graph ppf a =
  Format.fprintf ppf "@[<v>%a  (confidence %.3g)" Logic.Subst.pp a.subst
    a.confidence;
  List.iter
    (fun id -> Format.fprintf ppf "@   %a" Kg.Quad.pp (Kg.Graph.find graph id))
    a.facts;
  Format.fprintf ppf "@]"
