type encoding = {
  lp : Ilp.Lp.t;
  binary : int list;
  num_atom_vars : int;
}

(* A clause Σ lit >= k translates to a row over atom variables: positive
   literal x contributes +x, negative contributes -x with 1 added to the
   constant side. *)
let clause_row (network : Network.t) ci =
  let coeffs = ref [] and negs = ref 0 in
  for j = network.offsets.(ci) to network.offsets.(ci + 1) - 1 do
    let c = network.lits.(j) in
    if c land 1 = 1 then coeffs := (c lsr 1, 1.0) :: !coeffs
    else begin
      coeffs := (c lsr 1, -1.0) :: !coeffs;
      incr negs
    end
  done;
  (!coeffs, !negs)

let encode (network : Network.t) =
  let n = network.num_atoms in
  let num_soft =
    Array.fold_left (fun acc h -> if h then acc else acc + 1) 0 network.hard
  in
  let num_vars = n + num_soft in
  let objective = Array.make num_vars 0.0 in
  let constraints = ref [] in
  let next_aux = ref n in
  for ci = 0 to Network.num_clauses network - 1 do
    let coeffs, negs = clause_row network ci in
    if network.hard.(ci) then
      (* Hard: Σ lit >= 1, i.e. Σ coeffs >= 1 - negs. *)
      constraints :=
        Ilp.Lp.constr coeffs Ilp.Lp.Ge (1.0 -. float_of_int negs)
        :: !constraints
    else begin
      (* Soft: z <= Σ lit (z - Σ coeffs <= negs) and z <= 1. With the
         atoms integral, Σ lit is an integer, so z is integral at the
         optimum without being branched on. *)
      let z = !next_aux in
      incr next_aux;
      objective.(z) <- network.weights.(ci);
      constraints :=
        Ilp.Lp.constr ((z, 1.0) :: List.map (fun (v, a) -> (v, -.a)) coeffs)
          Ilp.Lp.Le (float_of_int negs)
        :: Ilp.Lp.constr [ (z, 1.0) ] Ilp.Lp.Le 1.0
        :: !constraints
    end
  done;
  let lp = Ilp.Lp.make ~num_vars ~objective !constraints in
  Obs.count ~n:num_vars "ilp.vars";
  Obs.count ~n:(List.length !constraints) "ilp.constraints";
  { lp; binary = List.init n (fun i -> i); num_atom_vars = n }

let decode enc x =
  Array.init enc.num_atom_vars (fun i -> x.(i) > 0.5)

let solve ?max_nodes ?deadline network =
  let enc = encode network in
  match Ilp.Milp.solve ?max_nodes ?deadline ~binary:enc.binary enc.lp with
  | None -> None
  | Some { x; optimal; _ } -> Some (decode enc x, optimal)
