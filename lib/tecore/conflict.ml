module Store = Grounder.Atom_store
module Ground = Grounder.Ground

type derived_fact = {
  atom : Logic.Atom.Ground.t;
  confidence : float;
  as_quad : Kg.Quad.t option;
}

type resolution = {
  consistent : Kg.Graph.t;
  removed : (Kg.Graph.id * Kg.Quad.t) list;
  derived : derived_fact list;
  conflicting : Kg.Graph.id list;
  kept : int;
}

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

(* Facts involved in a hard constraint instance that is violated when all
   evidence is taken at face value — the conflicts the debugger reports. *)
let conflicting_facts store (instances : Ground.instances) =
  let ids = Hashtbl.create 256 in
  Array.iteri
    (fun i h ->
      if
        h = Ground.violated
        && Logic.Rule.is_hard instances.rules.(instances.rule.(i))
      then
        for j = instances.offsets.(i) to instances.offsets.(i + 1) - 1 do
          List.iter
            (fun fact -> Hashtbl.replace ids fact ())
            (Store.evidence_facts store instances.body.(j))
        done)
    instances.head;
  Hashtbl.fold (fun id () acc -> id :: acc) ids [] |> List.sort Int.compare

(* Support of a hidden atom: total weight of its firing derivations. *)
let derived_confidences (instances : Ground.instances) assignment =
  let support = Hashtbl.create 64 in
  let rec true_from j stop =
    j = stop || (assignment.(instances.body.(j)) && true_from (j + 1) stop)
  in
  Array.iteri
    (fun i h ->
      if
        h >= 0 && assignment.(h)
        && true_from instances.offsets.(i) instances.offsets.(i + 1)
      then begin
        let w =
          match instances.rules.(instances.rule.(i)).Logic.Rule.weight with
          | Some w -> w
          | None -> Kg.Quad.max_weight
        in
        Hashtbl.replace support h
          (w +. Option.value (Hashtbl.find_opt support h) ~default:0.0)
      end)
    instances.head;
  fun atom_id ->
    sigmoid (Option.value (Hashtbl.find_opt support atom_id) ~default:0.0)

let interpret ~graph ~store ~instances ~assignment () =
  if Store.symbols store != Kg.Graph.symbols graph then
    invalid_arg "Conflict.interpret: the store is not the graph's grounding";
  (* Room for a fact per true hidden atom, so that adding the derived
     facts does not regrow the copy's columns. *)
  let room = ref 0 in
  for atom_id = 0 to Store.size store - 1 do
    if assignment.(atom_id) && not (Store.is_evidence store atom_id) then
      incr room
  done;
  let consistent = Kg.Graph.copy ~room:!room graph in
  let removed = ref [] in
  let derived = ref [] in
  let kept = ref 0 in
  let confidence_of = derived_confidences instances assignment in
  (* Walk ids and origins; only a true hidden atom needs its boxed
     view. *)
  for atom_id = 0 to Store.size store - 1 do
    if Store.is_evidence store atom_id then begin
      (* A decision about the atom applies to every duplicate fact
         behind it. *)
      let facts = Store.evidence_facts store atom_id in
      if assignment.(atom_id) then kept := !kept + List.length facts
      else
        List.iter
          (fun fact ->
            Kg.Graph.remove consistent fact;
            removed := (fact, Kg.Graph.find graph fact) :: !removed)
          facts
    end
    else if assignment.(atom_id) then begin
      let atom = Store.atom store atom_id in
      let confidence = confidence_of atom_id in
      let as_quad = Logic.Atom.Ground.to_quad ~confidence atom in
      (match as_quad with
      | Some q ->
          (* The copy keeps every code of the graph's table, so the
             atom's key [[| p; s; o; i+1 |]] adds the fact unhashed. *)
          let k = Store.key store atom_id in
          ignore
            (Kg.Graph.add_codes consistent ~predicate:k.(0) ~subject:k.(1)
               ~object_:k.(2) ~interval:(k.(3) - 1) ~confidence:q.confidence)
      | None -> ());
      derived := { atom; confidence; as_quad } :: !derived
    end
  done;
  {
    consistent;
    removed = List.rev !removed;
    derived = List.rev !derived;
    conflicting = conflicting_facts store instances;
    kept = !kept;
  }

let apply_threshold threshold r =
  let keep, drop =
    List.partition (fun d -> d.confidence >= threshold) r.derived
  in
  let consistent = Kg.Graph.copy r.consistent in
  (* Derived quads were appended after the original facts; drop every
     fact stating one of them, in one pass over the copy. Its table
     interns by [Term.equal] and [Interval.equal], so equal codes are
     [Quad.same_statement], and a quad with a symbol the table lacks
     states no fact in the graph. *)
  let symbols = Kg.Graph.symbols consistent in
  let term = Kg.Graph.find_term symbols in
  let dropped = Hashtbl.create 16 in
  List.iter
    (fun d ->
      match d.as_quad with
      | None -> ()
      | Some q -> (
          match
            ( term q.predicate,
              term q.subject,
              term q.object_,
              Kg.Graph.find_interval symbols q.time )
          with
          | Some p, Some s, Some o, Some i ->
              Hashtbl.replace dropped (p, s, o, i) ()
          | _ -> ()))
    drop;
  Kg.Graph.iter_codes
    (fun id ~predicate ~subject ~object_ ~interval ~confidence:_ ->
      if Hashtbl.mem dropped (predicate, subject, object_, interval) then
        Kg.Graph.remove consistent id)
    consistent;
  { r with consistent; derived = keep }

let pp_summary ppf r =
  Format.fprintf ppf
    "@[<v>kept facts:        %d@ removed facts:     %d@ derived facts:     \
     %d@ conflicting facts: %d@]"
    r.kept
    (List.length r.removed)
    (List.length r.derived)
    (List.length r.conflicting)
