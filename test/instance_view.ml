(* The instance buffer of a grounding read back as one boxed record per
   instance, in buffer order — the list form the grounder produced
   before instances were packed. Tests compare, filter and print
   instances through it. *)

module Ground = Grounder.Ground

type head =
  | Derives of Grounder.Atom_store.id
  | Satisfied
  | Violated

type t = {
  rule : Logic.Rule.t;
  body_atoms : Grounder.Atom_store.id list;
  head : head;
}

let head_of_code h =
  if h >= 0 then Derives h
  else if h = Ground.violated then Violated
  else if h = Ground.satisfied then Satisfied
  else invalid_arg (Printf.sprintf "Instance_view: head code %d" h)

let of_instances (b : Ground.instances) =
  if Array.length b.offsets <> Array.length b.head + 1 then
    invalid_arg "Instance_view: offsets do not match the instances";
  List.init (Array.length b.head) (fun i ->
      {
        rule = b.rules.(b.rule.(i));
        body_atoms =
          List.init
            (b.offsets.(i + 1) - b.offsets.(i))
            (fun k -> b.body.(b.offsets.(i) + k));
        head = head_of_code b.head.(i);
      })

let of_result (r : Ground.result) = of_instances r.Ground.instances

let pp store ppf t =
  let pp_atom ppf id =
    Logic.Atom.Ground.pp ppf (Grounder.Atom_store.atom store id)
  in
  Format.fprintf ppf "%s: %a -> " t.rule.Logic.Rule.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ^ ")
       pp_atom)
    t.body_atoms;
  match t.head with
  | Derives id -> pp_atom ppf id
  | Satisfied -> Format.pp_print_string ppf "(satisfied)"
  | Violated -> Format.pp_print_string ppf "(violated)"

(* The hidden atoms of a store in id order: the atoms its closure
   derived. *)
let hidden store =
  List.filter
    (fun id -> not (Grounder.Atom_store.is_evidence store id))
    (List.init (Grounder.Atom_store.size store) Fun.id)
