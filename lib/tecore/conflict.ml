module Store = Grounder.Atom_store
module Ground = Grounder.Ground

type derived_fact = { id : Store.id; confidence : float }

type resolution = {
  store : Store.t;
  consistent : Kg.Graph.t;
  removed : (Kg.Graph.id * Kg.Quad.t) list;
  derived : derived_fact list;
  conflicting : Kg.Graph.id list;
  kept : int;
}

let derived_atom r d = Store.atom r.store d.id

let derived_quad r d =
  Logic.Atom.Ground.to_quad ~confidence:d.confidence (derived_atom r d)

(* A binary temporal atom (θ of a fact) as the fact's row of codes in
   the graph's table, which every copy keeps: key [[| p; s; o; i+1 |]]. *)
let fact_row store id f =
  let k = Store.key store id in
  if Array.length k = 4 && k.(3) <> 0 then f k.(0) k.(1) k.(2) (k.(3) - 1)

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

(* Facts involved in a hard constraint instance that is violated when all
   evidence is taken at face value — the conflicts the debugger reports. *)
let conflicting_facts store (instances : Ground.instances) =
  let ids = ref [] in
  Array.iteri
    (fun i h ->
      if
        h = Ground.violated
        && Logic.Rule.is_hard instances.rules.(instances.rule.(i))
      then
        for j = instances.offsets.(i) to instances.offsets.(i + 1) - 1 do
          ids := Store.evidence_facts store instances.body.(j) @ !ids
        done)
    instances.head;
  List.sort_uniq Int.compare !ids

(* Support of every atom, by id: total weight of its firing
   derivations, summed in instance order. *)
let supports store (instances : Ground.instances) assignment =
  let support = Array.make (Store.size store) 0.0 in
  let rec true_from j stop =
    j = stop || (assignment.(instances.body.(j)) && true_from (j + 1) stop)
  in
  Array.iteri
    (fun i h ->
      if
        h >= 0 && assignment.(h)
        && true_from instances.offsets.(i) instances.offsets.(i + 1)
      then
        let w =
          match instances.rules.(instances.rule.(i)).Logic.Rule.weight with
          | Some w -> w
          | None -> Kg.Quad.max_weight
        in
        support.(h) <- support.(h) +. w)
    instances.head;
  support

let interpret ~graph ~store ~instances ~assignment () =
  if Store.symbols store != Kg.Graph.symbols graph then
    invalid_arg "Conflict.interpret: the store is not the graph's grounding";
  (* Room for a fact per hidden atom (duplicates aside, each live fact
     has its own evidence atom): adding derived facts does not regrow. *)
  let room = max 0 (Store.size store - Kg.Graph.size graph) in
  let consistent = Kg.Graph.copy ~room graph in
  let support = supports store instances assignment in
  let removed = ref [] in
  let derived = ref [] in
  let kept = ref 0 in
  (* Walk ids and origins; no atom is decoded. *)
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
      let confidence = sigmoid support.(atom_id) in
      fact_row store atom_id (fun predicate subject object_ interval ->
          ignore
            (Kg.Graph.add_codes consistent ~predicate ~subject ~object_
               ~interval ~confidence));
      derived := { id = atom_id; confidence } :: !derived
    end
  done;
  {
    store;
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
  (* One pass over the copy drops every fact stating a dropped atom: the
     table interns by [Term.equal] and [Interval.equal], so those are
     exactly the facts with the atom's codes. *)
  let dropped = Hashtbl.create 16 in
  List.iter
    (fun d ->
      fact_row r.store d.id (fun p s o i ->
          Hashtbl.replace dropped (p, s, o, i) ()))
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
