module Deadline = Prelude.Deadline

type component = {
  atoms : int array;
  network : Network.t;
}

type solved = {
  values : bool array;
  status : Deadline.status;
  cpi : Cpi.stats option;
}

(* Canonical structural form of a component: literals as signed 1-based
   local indices plus the weight and source of every clause, and the
   initial assignment restricted to the component. *)
type key = {
  k_atoms : int;
  k_clauses : (int array * float option * string) array;
  k_init : bool array;
}

type cache = (key, solved) Components.cache

let split (network : Network.t) =
  let clauses = network.Network.clauses in
  Components.split ~num_vars:network.Network.num_atoms
    ~num_factors:(Array.length clauses)
    ~arity:(fun ci -> Array.length clauses.(ci).Network.literals)
    ~var:(fun ci j -> clauses.(ci).Network.literals.(j).Network.atom)
    (fun ~vars:atoms ~factors ~local ->
      let clauses =
        Array.map
          (fun ci ->
            let c = clauses.(ci) in
            {
              c with
              Network.literals =
                Array.map
                  (fun (l : Network.literal) ->
                    { l with Network.atom = local.(l.Network.atom) })
                  c.Network.literals;
            })
          factors
      in
      { atoms; network = { Network.num_atoms = Array.length atoms; clauses } })

let key_of component ~init =
  {
    k_atoms = component.network.Network.num_atoms;
    k_clauses =
      Array.map
        (fun (c : Network.clause) ->
          ( Array.map
              (fun (l : Network.literal) ->
                if l.Network.positive then l.Network.atom + 1
                else -(l.Network.atom + 1))
              c.Network.literals,
            c.Network.weight,
            c.Network.source ))
        component.network.Network.clauses;
    k_init = init;
  }

let merge_cpi acc = function
  | None -> acc
  | Some (s : Cpi.stats) -> (
      match acc with
      | None -> Some s
      | Some (t : Cpi.stats) ->
          Some
            {
              Cpi.iterations = t.Cpi.iterations + s.Cpi.iterations;
              active_clauses = t.Cpi.active_clauses + s.Cpi.active_clauses;
              total_clauses = t.Cpi.total_clauses + s.Cpi.total_clauses;
              status = Deadline.worst t.Cpi.status s.Cpi.status;
            })

let solve ?cache ~solve_component ~init (network : Network.t) =
  Components.solve ?cache
    ~vars:(fun c -> c.atoms)
    ~key:key_of
    ~solve_component:(fun c ~init ->
      if Array.length c.network.Network.clauses = 0 then
        { values = Array.copy init; status = Deadline.Completed; cpi = None }
      else solve_component c.network ~init)
    ~status:(fun s -> s.status)
    ~values:(fun s -> s.values)
    ~merge:(fun acc s -> merge_cpi acc s.cpi)
    ~acc:None ~init (split network)
