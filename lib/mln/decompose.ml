module Deadline = Prelude.Deadline

type component = {
  atoms : int array;
  network : Network.t;
}

type solved = {
  values : bool array;
  status : Deadline.status;
}

(* Canonical structural form of a component: its packed clauses over
   local atoms (literal codes, offsets, weights and the hard mask —
   everything a component solve reads) and the initial assignment
   restricted to the component. The clause arrays are the component
   network's own, not copies. *)
type key = {
  k_atoms : int;
  k_offsets : int array;
  k_lits : int array;
  k_weights : float array;
  k_hard : bool array;
  k_init : bool array;
}

type cache = (key, solved) Components.cache

let split (network : Network.t) =
  let { Network.offsets; lits; _ } = network in
  Components.split ~num_vars:network.num_atoms
    ~num_factors:(Network.num_clauses network)
    ~arity:(fun ci -> offsets.(ci + 1) - offsets.(ci))
    ~var:(fun ci j -> lits.(offsets.(ci) + j) lsr 1)
    (fun ~vars:atoms ~factors ~local ->
      {
        atoms;
        network =
          Network.sub ~local ~num_atoms:(Array.length atoms) network factors;
      })

let key component ~init =
  let n = component.network in
  {
    k_atoms = n.num_atoms;
    k_offsets = n.offsets;
    k_lits = n.lits;
    k_weights = n.weights;
    k_hard = n.hard;
    k_init = init;
  }

let hash k =
  let open Components.Hash in
  let h = int seed k.k_atoms in
  let h = ints h k.k_offsets in
  let h = ints h k.k_lits in
  let h = floats h k.k_weights in
  let h = bools h k.k_hard in
  finish (bools h k.k_init)

let solve ?cache ?(deadline = Deadline.none) ~solve_component ~init
    (network : Network.t) =
  let values, status, () =
    Components.solve ?cache
    ~vars:(fun c -> c.atoms)
    ~key ~hash
    ~solve_component:(fun c ~init ->
      if Network.num_clauses c.network = 0 then
        { values = Array.copy init; status = Deadline.Completed }
      else if Deadline.expired deadline then
        { values = Array.copy init; status = Deadline.Timed_out }
      else solve_component c.network ~init)
    ~status:(fun s -> s.status)
    ~values:(fun s -> s.values)
    ~merge:(fun () _ -> ())
    ~acc:() ~init (split network)
  in
  (values, status)
