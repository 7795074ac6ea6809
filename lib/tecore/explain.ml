module Store = Grounder.Atom_store
module Ground = Grounder.Ground

type removal = {
  fact : Kg.Graph.id;
  quad : Kg.Quad.t;
  clashes : clash list;
}

and clash = {
  constraint_name : string;
  winners : Kg.Quad.t list;
  winner_weight : float;
  loser_weight : float;
}

type derivation = {
  atom : Logic.Atom.Ground.t;
  via : (string * Kg.Quad.t list) list;
}

(* The atom of every evidence fact: the first atom, in id order, whose
   evidence facts name it. *)
let atoms_of_facts store =
  let atoms = Hashtbl.create 1024 in
  for id = 0 to Store.size store - 1 do
    List.iter
      (fun fact ->
        if not (Hashtbl.mem atoms fact) then Hashtbl.add atoms fact id)
      (Store.evidence_facts store id)
  done;
  atoms

(* For every atom, the instances (in buffer order, each once) among
   whose [atoms_of] it is. *)
let index store (instances : Ground.instances) ~atoms_of =
  let n = Store.size store in
  let idx = Array.make n [] and last = Array.make n (-1) in
  for i = Array.length instances.head - 1 downto 0 do
    List.iter
      (fun a ->
        if last.(a) <> i then begin
          last.(a) <- i;
          idx.(a) <- i :: idx.(a)
        end)
      (atoms_of i)
  done;
  idx

let quads_of_atoms store graph atom_ids =
  List.concat_map
    (fun id ->
      List.map (Kg.Graph.find graph) (Store.evidence_facts store id))
    atom_ids

let removals ~store ~instances ~assignment ~graph ~resolution =
  let removed = resolution.Conflict.removed in
  if removed = [] then []
  else
    let atom_of_fact = atoms_of_facts store in
    let violations =
      index store instances ~atoms_of:(fun i ->
          if instances.head.(i) = Ground.violated then
            Ground.body_atoms instances i
          else [])
    in
    List.map
      (fun (fact, quad) ->
        (* Symmetric groundings (both orders of a self-join) describe the
           same clash; dedupe on constraint name and partner atoms. Every
           removed fact is an evidence fact of the store. *)
        let seen = Hashtbl.create 8 in
        let removed_atom = Hashtbl.find atom_of_fact fact in
        let clashes =
          List.filter_map
            (fun i ->
              (* A clash explains the removal when the instance is a
                 violation containing the removed atom whose other
                 body atoms all survived. *)
              let rule = instances.rules.(instances.rule.(i)) in
              let others =
                List.filter (fun a -> a <> removed_atom)
                  (Ground.body_atoms instances i)
              in
              let key = (rule.Logic.Rule.name, List.sort Int.compare others) in
              if
                List.for_all (fun a -> assignment.(a)) others
                && not (Hashtbl.mem seen key)
              then begin
                Hashtbl.replace seen key ();
                let winners = quads_of_atoms store graph others in
                if winners = [] then None
                else
                  Some
                    {
                      constraint_name = rule.Logic.Rule.name;
                      winners;
                      winner_weight =
                        List.fold_left
                          (fun acc q -> Float.min acc (Kg.Quad.weight q))
                          infinity winners;
                      loser_weight = Kg.Quad.weight quad;
                    }
              end
              else None)
            violations.(removed_atom)
    in
        { fact; quad; clashes })
      removed

let derivations ~store ~instances ~assignment ~graph ~resolution =
  let derived = resolution.Conflict.derived in
  if derived = [] then []
  else
    let derivers =
      index store instances ~atoms_of:(fun i ->
          let h = instances.head.(i) in
          if h >= 0 then [ h ] else [])
    in
    List.map
      (fun (d : Conflict.derived_fact) ->
        let via =
          List.filter_map
            (fun i ->
              let rule = instances.rules.(instances.rule.(i)) in
              let body_atoms = Ground.body_atoms instances i in
              if List.for_all (fun a -> assignment.(a)) body_atoms then
                let evidence_support =
                  List.filter (Store.is_evidence store) body_atoms
                in
                Some
                  ( rule.Logic.Rule.name,
                    quads_of_atoms store graph evidence_support )
              else None)
            derivers.(d.Conflict.id)
        in
        { atom = Conflict.derived_atom resolution d; via })
      derived

let pp_removal ppf r =
  Format.fprintf ppf "@[<v>removed %a" Kg.Quad.pp r.quad;
  (match r.clashes with
  | [] ->
      Format.fprintf ppf "@   (lost on its own weight: confidence %.2g)"
        r.quad.Kg.Quad.confidence
  | clashes ->
      List.iter
        (fun c ->
          Format.fprintf ppf "@   clashes under %s with:" c.constraint_name;
          List.iter
            (fun q -> Format.fprintf ppf "@     %a" Kg.Quad.pp q)
            c.winners;
          Format.fprintf ppf
            "@     (their weight %.2f vs its weight %.2f: it loses)"
            c.winner_weight c.loser_weight)
        clashes);
  Format.fprintf ppf "@]"

let pp_derivation ppf d =
  Format.fprintf ppf "@[<v>derived %a" Logic.Atom.Ground.pp d.atom;
  List.iter
    (fun (rule_name, support) ->
      Format.fprintf ppf "@   via %s from:" rule_name;
      List.iter (fun q -> Format.fprintf ppf "@     %a" Kg.Quad.pp q) support)
    d.via;
  Format.fprintf ppf "@]"

let of_result graph (result : Engine.result) =
  let raw = result.Engine.raw in
  let explain f =
    f ~store:raw.Engine.store ~instances:raw.Engine.instances
      ~assignment:raw.Engine.assignment ~graph
      ~resolution:result.Engine.resolution
  in
  (explain removals, explain derivations)
