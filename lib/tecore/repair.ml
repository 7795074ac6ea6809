module Store = Grounder.Atom_store
module Ground = Grounder.Ground

type repair = {
  removed : (Kg.Graph.id * Kg.Quad.t) list;
  consistent : Kg.Graph.t;
  removed_confidence : float;
}

(* A removable unit: one evidence atom with every duplicate fact behind
   it. Removing an atom means removing all of its facts. *)
type group = {
  facts : Kg.Graph.id list;
  cost : float;
}

let conflict_groups graph rules =
  let store = Store.of_graph graph in
  let instances = (Ground.run ~lazy_constraints:true store rules).instances in
  let group_of_atom = Hashtbl.create 64 in
  let group atom_id =
    match Hashtbl.find_opt group_of_atom atom_id with
    | Some g -> g
    | None ->
        let facts = Store.evidence_facts store atom_id in
        (* Duplicates do not stack under θ (the atom keeps the maximum
           confidence), so the group's removal cost is the max too —
           keeping greedy and the hitting sets aligned with MAP. *)
        let cost =
          List.fold_left
            (fun acc id ->
              Float.max acc (Kg.Graph.find graph id).Kg.Quad.confidence)
            0.0 facts
        in
        let g = { facts; cost } in
        Hashtbl.replace group_of_atom atom_id g;
        g
  in
  let seen = Hashtbl.create 64 in
  List.init (Array.length instances.head) Fun.id
  |> List.filter_map (fun i ->
         if
           instances.head.(i) = Ground.violated
           && Logic.Rule.is_hard instances.rules.(instances.rule.(i))
         then begin
           let atoms =
             Ground.body_atoms instances i
             |> List.filter (Store.is_evidence store)
             |> List.sort_uniq Int.compare
           in
           if atoms = [] || Hashtbl.mem seen atoms then None
           else begin
             Hashtbl.replace seen atoms ();
             Some (List.map group atoms)
           end
         end
         else None)

let conflict_sets graph rules =
  conflict_groups graph rules
  |> List.map (fun groups ->
         List.concat_map (fun g -> g.facts) groups |> List.sort Int.compare)

let finish graph groups_removed =
  let consistent = Kg.Graph.copy graph in
  let removed =
    List.concat_map
      (fun g ->
        List.map
          (fun id ->
            Kg.Graph.remove consistent id;
            (id, Kg.Graph.find graph id))
          g.facts)
      groups_removed
  in
  {
    removed;
    consistent;
    removed_confidence =
      List.fold_left (fun acc g -> acc +. g.cost) 0.0 groups_removed;
  }

let greedy graph rules =
  let sets = ref (conflict_groups graph rules) in
  let removed = ref [] in
  while !sets <> [] do
    (* Score each candidate group: clashes hit, ties by lowest cost. *)
    let score = Hashtbl.create 64 in
    List.iter
      (fun groups ->
        List.iter
          (fun g ->
            Hashtbl.replace score g.facts
              ( g,
                1
                + (match Hashtbl.find_opt score g.facts with
                  | Some (_, hits) -> hits
                  | None -> 0) ))
          groups)
      !sets;
    let best =
      Hashtbl.fold
        (fun _ (g, hits) best ->
          match best with
          | None -> Some (g, hits)
          | Some (bg, bhits) ->
              if hits > bhits || (hits = bhits && g.cost < bg.cost) then
                Some (g, hits)
              else best)
        score None
    in
    match best with
    | None -> sets := []
    | Some (g, _) ->
        removed := g :: !removed;
        sets :=
          List.filter
            (fun groups ->
              not (List.exists (fun g' -> g'.facts = g.facts) groups))
            !sets
  done;
  finish graph (List.rev !removed)

let minimal_hitting_sets ?(max_sets = 100) sets =
  match sets with
  | [] -> [ [] ]
  | _ ->
      (* Breadth-first expansion of partial hitting sets (HS-tree style):
         minimum-cardinality sets surface first; minimality is enforced
         by subset checks against accepted sets. *)
      let accepted = ref [] in
      let is_superset candidate smaller =
        List.for_all (fun x -> List.mem x candidate) smaller
      in
      let queue = Queue.create () in
      Queue.add [] queue;
      while (not (Queue.is_empty queue)) && List.length !accepted < max_sets do
        let partial = Queue.pop queue in
        if not (List.exists (is_superset partial) !accepted) then begin
          match
            List.find_opt
              (fun set -> not (List.exists (fun id -> List.mem id partial) set))
              sets
          with
          | None -> accepted := partial :: !accepted
          | Some unhit ->
              List.iter
                (fun id ->
                  let extended = List.sort Int.compare (id :: partial) in
                  Queue.add extended queue)
                unhit
        end
      done;
      let unique =
        List.sort_uniq compare (List.map (List.sort Int.compare) !accepted)
      in
      let minimal =
        List.filter
          (fun s ->
            not
              (List.exists (fun other -> other <> s && is_superset s other) unique))
          unique
      in
      List.sort (fun a b -> Int.compare (List.length a) (List.length b)) minimal

let optimal_hitting_set graph rules =
  let group_sets = conflict_groups graph rules in
  (* HS-tree enumeration is exponential in the number of conflict sets;
     refuse instances beyond diagnosis scale instead of hanging. *)
  if List.length group_sets > 15 then None
  else
  (* Index the distinct groups so hitting sets run over small ints. *)
  let groups = Hashtbl.create 64 in
  List.iter
    (fun set ->
      List.iter
        (fun g -> if not (Hashtbl.mem groups g.facts) then
            Hashtbl.replace groups g.facts (Hashtbl.length groups, g))
        set)
    group_sets;
  let by_index = Array.make (max 1 (Hashtbl.length groups)) None in
  Hashtbl.iter (fun _ (i, g) -> by_index.(i) <- Some g) groups;
  let int_sets =
    List.map
      (fun set -> List.map (fun g -> fst (Hashtbl.find groups g.facts)) set)
      group_sets
  in
  let candidates = minimal_hitting_sets ~max_sets:500 int_sets in
  let cost ids =
    List.fold_left
      (fun acc i ->
        match by_index.(i) with Some g -> acc +. g.cost | None -> acc)
      0.0 ids
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left
          (fun best ids -> if cost ids < cost best then ids else best)
          first rest
      in
      Some (finish graph (List.filter_map (fun i -> by_index.(i)) best))
