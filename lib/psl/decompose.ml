module Deadline = Prelude.Deadline

type component = {
  vars : int array;
  model : Hlmrf.t;
}

type solved = {
  values : float array;
  admm : Admm.stats;
}

(* A component's key is its packed sub-model (factors and terms over
   local indices, in split order) plus its slice of the ADMM
   initialisation: the consensus seed is part of the trajectory, so two
   components are interchangeable only when their seeds match too. *)
type key = {
  k_model : Hlmrf.t;
  k_init : float array;
}

type cache = (key, solved) Components.cache

(* Factors [factors] (ascending) of [model], with variables renumbered
   through [local], as a packed model of their own. *)
let sub (model : Hlmrf.t) ~num_vars ~factors ~local =
  let offsets = model.offsets in
  let nf = Array.length factors in
  let sub_offsets = Array.make (nf + 1) 0 in
  Array.iteri
    (fun i f ->
      sub_offsets.(i + 1) <- sub_offsets.(i) + offsets.(f + 1) - offsets.(f))
    factors;
  let var = Array.make sub_offsets.(nf) 0 in
  let coef = Array.make sub_offsets.(nf) 0.0 in
  Array.iteri
    (fun i f ->
      let o = offsets.(f) in
      for j = 0 to offsets.(f + 1) - o - 1 do
        var.(sub_offsets.(i) + j) <- local.(model.var.(o + j));
        coef.(sub_offsets.(i) + j) <- model.coef.(o + j)
      done)
    factors;
  let floats (a : float array) =
    let b = Array.make nf 0.0 in
    Array.iteri (fun i f -> b.(i) <- a.(f)) factors;
    b
  in
  {
    Hlmrf.num_vars;
    num_potentials =
      Array.fold_left
        (fun k f -> if f < model.num_potentials then k + 1 else k)
        0 factors;
    kind = Array.map (fun f -> model.kind.(f)) factors;
    weight = floats model.weight;
    const = floats model.const;
    offsets = sub_offsets;
    var;
    coef;
  }

(* Factors are the potentials, then the constraints. *)
let split (model : Hlmrf.t) =
  let offsets = model.offsets in
  Components.split ~num_vars:model.num_vars
    ~num_factors:(Hlmrf.num_factors model)
    ~arity:(fun f -> offsets.(f + 1) - offsets.(f))
    ~var:(fun f j -> model.var.(offsets.(f) + j))
    (fun ~vars ~factors ~local ->
      { vars; model = sub model ~num_vars:(Array.length vars) ~factors ~local })

let key component ~init = { k_model = component.model; k_init = init }

let kind_code = function Hlmrf.Hinge -> 0 | Hlmrf.Le -> 1 | Hlmrf.Eq -> 2

let hash { k_model = m; k_init } =
  let open Components.Hash in
  let h = int seed m.num_vars in
  let h = int h m.num_potentials in
  let h = ints h (Array.map kind_code m.kind) in
  let h = floats h m.weight in
  let h = floats h m.const in
  let h = ints h m.offsets in
  let h = ints h m.var in
  let h = floats h m.coef in
  finish (floats h k_init)

let clip01 v = if v < 0.0 then 0.0 else if v > 1.0 then 1.0 else v

(* The stats of a run that did no work: the solution of a factor-free
   component, and the identity of [merge]. *)
let idle =
  {
    Admm.iterations = 0;
    primal_residual = 0.0;
    dual_residual = 0.0;
    converged = true;
    objective = 0.0;
    status = Deadline.Completed;
  }

(* What {!Admm.solve} reports for a run halted before its first sweep. *)
let halted =
  { idle with Admm.primal_residual = infinity; dual_residual = infinity;
    converged = false; status = Deadline.Timed_out }

let merge (acc : Admm.stats) { admm = a; _ } =
  {
    acc with
    Admm.iterations = max acc.Admm.iterations a.Admm.iterations;
    primal_residual = Float.max acc.Admm.primal_residual a.Admm.primal_residual;
    dual_residual = Float.max acc.Admm.dual_residual a.Admm.dual_residual;
    converged = acc.Admm.converged && a.Admm.converged;
  }

let solve ?cache ?(deadline = Deadline.none) ~rho ~max_iters ~tol ~init
    (model : Hlmrf.t) =
  let truth, status, stats =
    Components.solve ?cache
      ~vars:(fun c -> c.vars)
      ~key ~hash
      ~solve_component:(fun c ~init ->
        if Hlmrf.num_factors c.model = 0 then
          { values = Array.map clip01 init; admm = idle }
        else if Deadline.expired deadline then
          { values = Array.map clip01 init; admm = halted }
        else
          let values, admm =
            Admm.solve ~rho ~max_iters ~tol ~init ~deadline c.model
          in
          { values; admm })
      ~status:(fun s -> s.admm.Admm.status)
      ~values:(fun s -> s.values)
      ~merge ~acc:idle ~init (split model)
  in
  (truth, { stats with Admm.objective = Hlmrf.objective model truth; status })
