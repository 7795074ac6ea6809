module Store = Grounder.Atom_store
module Instance = Grounder.Ground.Instance

type kind =
  | Hinge
  | Le
  | Eq

type t = {
  num_vars : int;
  num_potentials : int;
  kind : kind array;
  weight : float array;
  const : float array;
  offsets : int array;
  var : int array;
  coef : float array;
}

let num_factors t = Array.length t.kind
let num_constraints t = num_factors t - t.num_potentials

type config = {
  hidden_prior : float;
  evidence_bonus : float;
  evidence_hard : bool;
}

let default_config =
  { hidden_prior = 0.005; evidence_bonus = 0.1; evidence_hard = true }

(* Which hard instances add a constraint: the first per (sorted body,
   head). *)
let fresh_hard instances =
  let seen = Hashtbl.create 1024 in
  Array.of_list
    (List.map
       (fun { Instance.rule; body_atoms; head } ->
         match (head, rule.Logic.Rule.weight) with
         | (Instance.Violated | Instance.Derives _), None ->
             let h = match head with Instance.Derives h -> h | _ -> -1 in
             let key = (List.sort compare body_atoms, h) in
             if Hashtbl.mem seen key then false
             else begin
               Hashtbl.replace seen key ();
               true
             end
         | _ -> false)
       instances)

(* Every factor of the model, in generation order, as
   [emit kind weight const head body]: the factor over
   [const - x_head + Σ x_body], with [head = -1] for none. *)
let iter_factors config store instances ~fresh emit =
  (* By origin alone: decoding every atom would cost more than the
     whole build. *)
  for id = 0 to Store.size store - 1 do
    match Store.origin store id with
    | Store.Evidence { confidence; _ } ->
        if confidence >= 1.0 && config.evidence_hard then
          (* x = 1 *)
          emit Eq 0.0 (-1.0) (-1) [ id ]
        else
          (* weight · (1 - x) = weight · max(0, 1 - x) since x <= 1 *)
          emit Hinge (confidence +. config.evidence_bonus) 1.0 id []
    | Store.Hidden ->
        if config.hidden_prior > 0.0 then
          emit Hinge config.hidden_prior 0.0 (-1) [ id ]
  done;
  List.iteri
    (fun i { Instance.rule; body_atoms; head } ->
      let const = -.float_of_int (List.length body_atoms - 1) in
      match (head, rule.Logic.Rule.weight) with
      | Instance.Satisfied, _ -> ()
      | Instance.Violated, Some w -> emit Hinge w const (-1) body_atoms
      | Instance.Derives h, Some w -> emit Hinge w const h body_atoms
      (* Σ body - (n-1) <= 0, and Σ body - (n-1) - head <= 0 *)
      | Instance.Violated, None ->
          if fresh.(i) then emit Le 0.0 const (-1) body_atoms
      | Instance.Derives h, None ->
          if fresh.(i) then emit Le 0.0 const h body_atoms)
    instances

(* Two passes over the factors: count them, then write each into its
   final slot, potentials from the front and constraints after them. No
   buffer is grown or copied. *)
let build ?(config = default_config) store instances =
  let fresh = fresh_hard instances in
  let each = iter_factors config store instances ~fresh in
  let factors = [| 0; 0 |] and terms = [| 0; 0 |] in
  let region kind = if kind = Hinge then 0 else 1 in
  each (fun kind _ _ head body ->
      let r = region kind in
      factors.(r) <- factors.(r) + 1;
      terms.(r) <- terms.(r) + Bool.to_int (head >= 0) + List.length body);
  let nf = factors.(0) + factors.(1) and nt = terms.(0) + terms.(1) in
  let t =
    {
      num_vars = Store.size store;
      num_potentials = factors.(0);
      kind = Array.make nf Hinge;
      weight = Array.make nf 0.0;
      const = Array.make nf 0.0;
      offsets = Array.make (nf + 1) nt;
      var = Array.make nt 0;
      coef = Array.make nt 0.0;
    }
  in
  (* Cursors: the next factor and term slot of each region. *)
  let next = [| 0; factors.(0) |] and slot = [| 0; terms.(0) |] in
  each (fun kind weight const head body ->
      let r = region kind in
      let f = next.(r) in
      t.kind.(f) <- kind;
      t.weight.(f) <- weight;
      t.const.(f) <- const;
      t.offsets.(f) <- slot.(r);
      let add v a =
        t.var.(slot.(r)) <- v;
        t.coef.(slot.(r)) <- a;
        slot.(r) <- slot.(r) + 1
      in
      if head >= 0 then add head (-1.0);
      List.iter (fun v -> add v 1.0) body;
      next.(r) <- f + 1);
  t

(* [const + Σ coef · x], summed from the constant in term order. *)
let[@inline] eval t f x =
  let acc = ref t.const.(f) in
  for j = t.offsets.(f) to t.offsets.(f + 1) - 1 do
    acc := !acc +. (t.coef.(j) *. x.(t.var.(j)))
  done;
  !acc

let objective t x =
  let acc = ref 0.0 in
  for f = 0 to t.num_potentials - 1 do
    acc := !acc +. (t.weight.(f) *. Float.max 0.0 (eval t f x))
  done;
  !acc

let constraint_violation t x =
  let acc = ref 0.0 in
  for f = t.num_potentials to num_factors t - 1 do
    let e = eval t f x in
    let v = if t.kind.(f) = Eq then Float.abs e else Float.max 0.0 e in
    acc := Float.max !acc v
  done;
  !acc

let pp_linexp t ppf f =
  for j = t.offsets.(f) to t.offsets.(f + 1) - 1 do
    Format.fprintf ppf "%+gx%d " t.coef.(j) t.var.(j)
  done;
  if t.const.(f) <> 0.0 then Format.fprintf ppf "%+g" t.const.(f)

let pp ppf t =
  Format.fprintf ppf "@[<v>hl-mrf: %d vars, %d potentials, %d constraints"
    t.num_vars t.num_potentials (num_constraints t);
  for f = 0 to min t.num_potentials 8 - 1 do
    Format.fprintf ppf "@ %g * max(0, %a)" t.weight.(f) (pp_linexp t) f
  done;
  for f = t.num_potentials to min (num_factors t) (t.num_potentials + 8) - 1 do
    Format.fprintf ppf "@ %a %s 0" (pp_linexp t) f
      (if t.kind.(f) = Eq then "=" else "<=")
  done;
  Format.fprintf ppf "@]"
