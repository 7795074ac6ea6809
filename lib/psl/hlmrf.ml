module Store = Grounder.Atom_store
module Ground = Grounder.Ground

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

(* Which hard instances add a constraint: the first per (head, sorted
   body). *)
let fresh_hard (instances : Ground.instances) =
  let seen = Hashtbl.create 1024 in
  Array.mapi
    (fun i h ->
      h <> Ground.satisfied
      && instances.rules.(instances.rule.(i)).Logic.Rule.weight = None
      &&
      let start = instances.offsets.(i) in
      let body =
        Array.sub instances.body start (instances.offsets.(i + 1) - start)
      in
      Array.sort Int.compare body;
      let key = (h, body) in
      not (Hashtbl.mem seen key)
      && (Hashtbl.replace seen key ();
          true))
    instances.head

(* Every factor of the model, in generation order, as
   [emit kind weight const head body pos len]: the factor over
   [const - x_head + Σ x_body], with a negative [head] for none and the body
   [body.(pos) .. body.(pos + len - 1)]. *)
let iter_factors config store (instances : Ground.instances) ~fresh emit =
  let one = [| 0 |] in
  (* By origin alone: decoding every atom would cost more than the
     whole build. *)
  for id = 0 to Store.size store - 1 do
    one.(0) <- id;
    match Store.origin store id with
    | Store.Evidence { confidence; _ } ->
        if confidence >= 1.0 && config.evidence_hard then
          (* x = 1 *)
          emit Eq 0.0 (-1.0) (-1) one 0 1
        else
          (* weight · (1 - x) = weight · max(0, 1 - x) since x <= 1 *)
          emit Hinge (confidence +. config.evidence_bonus) 1.0 id one 0 0
    | Store.Hidden ->
        if config.hidden_prior > 0.0 then
          emit Hinge config.hidden_prior 0.0 (-1) one 0 1
  done;
  Array.iteri
    (fun i h ->
      let pos = instances.offsets.(i) in
      let len = instances.offsets.(i + 1) - pos in
      let const = -.float_of_int (len - 1) in
      if h <> Ground.satisfied then
        match instances.rules.(instances.rule.(i)).Logic.Rule.weight with
        | Some w -> emit Hinge w const h instances.body pos len
        (* Σ body - (n-1) <= 0, and Σ body - (n-1) - head <= 0 *)
        | None -> if fresh.(i) then emit Le 0.0 const h instances.body pos len)
    instances.head

(* Two passes over the factors: count them, then write each into its
   final slot, potentials from the front and constraints after them. No
   buffer is grown or copied. *)
let build ?(config = default_config) store instances =
  let fresh = fresh_hard instances in
  let each = iter_factors config store instances ~fresh in
  let factors = [| 0; 0 |] and terms = [| 0; 0 |] in
  let region kind = if kind = Hinge then 0 else 1 in
  each (fun kind _ _ head _ _ len ->
      let r = region kind in
      factors.(r) <- factors.(r) + 1;
      terms.(r) <- terms.(r) + Bool.to_int (head >= 0) + len);
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
  each (fun kind weight const head body pos len ->
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
      for j = pos to pos + len - 1 do
        add body.(j) 1.0
      done;
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
