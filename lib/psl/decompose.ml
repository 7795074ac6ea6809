module Deadline = Prelude.Deadline

type component = {
  vars : int array;
  model : Hlmrf.t;
}

type solved = {
  values : float array;
  admm : Admm.stats;
}

(* Canonical structural form of a component: potentials and constraints
   with variables remapped to local indices, plus the local slice of the
   ADMM initialisation (the consensus seed is part of the trajectory, so
   two components are interchangeable only when their seeds match too). *)
type key = {
  k_vars : int;
  k_potentials : (float * (int * float) array * float) array;
  k_constraints : ((int * float) array * float * bool) array;
  k_init : float array;
}

type cache = (key, solved) Components.cache

let lincon_exp = function Hlmrf.Le e -> e | Hlmrf.Eq e -> e

(* Factors are the potentials, then the constraints. *)
let split (model : Hlmrf.t) =
  let potentials = model.Hlmrf.potentials in
  let constraints = model.Hlmrf.constraints in
  let np = Array.length potentials in
  let coeffs f =
    if f < np then potentials.(f).Hlmrf.expr.Hlmrf.coeffs
    else (lincon_exp constraints.(f - np)).Hlmrf.coeffs
  in
  Components.split ~num_vars:model.Hlmrf.num_vars
    ~num_factors:(np + Array.length constraints)
    ~arity:(fun f -> List.length (coeffs f))
    ~var:(fun f j -> fst (List.nth (coeffs f) j))
    (fun ~vars ~factors ~local ->
      let remap (e : Hlmrf.linexp) =
        {
          e with
          Hlmrf.coeffs = List.map (fun (v, c) -> (local.(v), c)) e.Hlmrf.coeffs;
        }
      in
      let k =
        Array.fold_left (fun k f -> if f < np then k + 1 else k) 0 factors
      in
      let potentials =
        Array.init k (fun j ->
            let p = potentials.(factors.(j)) in
            { p with Hlmrf.expr = remap p.Hlmrf.expr })
      in
      let constraints =
        Array.init
          (Array.length factors - k)
          (fun j ->
            match constraints.(factors.(k + j) - np) with
            | Hlmrf.Le e -> Hlmrf.Le (remap e)
            | Hlmrf.Eq e -> Hlmrf.Eq (remap e))
      in
      {
        vars;
        model = { Hlmrf.num_vars = Array.length vars; potentials; constraints };
      })

let key_of component ~init =
  let canon_exp (e : Hlmrf.linexp) =
    (Array.of_list e.Hlmrf.coeffs, e.Hlmrf.const)
  in
  {
    k_vars = component.model.Hlmrf.num_vars;
    k_potentials =
      Array.map
        (fun (p : Hlmrf.potential) ->
          let coeffs, const = canon_exp p.Hlmrf.expr in
          (p.Hlmrf.weight, coeffs, const))
        component.model.Hlmrf.potentials;
    k_constraints =
      Array.map
        (fun c ->
          let coeffs, const = canon_exp (lincon_exp c) in
          (coeffs, const, match c with Hlmrf.Eq _ -> true | Hlmrf.Le _ -> false))
        component.model.Hlmrf.constraints;
    k_init = init;
  }

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

let merge (acc : Admm.stats) { admm = a; _ } =
  {
    acc with
    Admm.iterations = max acc.Admm.iterations a.Admm.iterations;
    primal_residual = Float.max acc.Admm.primal_residual a.Admm.primal_residual;
    dual_residual = Float.max acc.Admm.dual_residual a.Admm.dual_residual;
    converged = acc.Admm.converged && a.Admm.converged;
  }

let solve ?cache ?(pool = Prelude.Pool.sequential) ~rho ~max_iters ~tol ~init
    (model : Hlmrf.t) =
  let truth, status, stats =
    Components.solve ?cache
      ~vars:(fun c -> c.vars)
      ~key:key_of
      ~solve_component:(fun c ~init ->
        if
          Array.length c.model.Hlmrf.potentials = 0
          && Array.length c.model.Hlmrf.constraints = 0
        then { values = Array.map clip01 init; admm = idle }
        else
          let values, admm =
            Admm.solve ~rho ~max_iters ~tol ~init ~pool c.model
          in
          { values; admm })
      ~status:(fun s -> s.admm.Admm.status)
      ~values:(fun s -> s.values)
      ~merge ~acc:idle ~init (split model)
  in
  (truth, { stats with Admm.objective = Hlmrf.objective model truth; status })
