(* Tests for the PSL engine: HL-MRF compilation, the ADMM solver on
   problems with known optima, rounding, and the nPSL pipeline. *)

module Hlmrf = Psl.Hlmrf
module Store = Grounder.Atom_store

(* Models written out factor by factor: the list-shaped form the packed
   [Hlmrf.t] replaced, kept for readable hand-made models and as the
   input of the reference implementations below. [make] packs one,
   keeping factor and term order. *)
module Spec = struct
  type linexp = {
    coeffs : (int * float) list;  (* (variable, coefficient) *)
    const : float;
  }

  type potential = {
    weight : float;
    expr : linexp;  (* the potential is [weight · max(0, expr)] *)
  }

  type lincon =
    | Le of linexp  (* expr <= 0 *)
    | Eq of linexp  (* expr = 0 *)

  type t = {
    num_vars : int;
    potentials : potential array;
    constraints : lincon array;
  }

  let make (s : t) =
    let factors =
      Array.append
        (Array.map (fun p -> (Hlmrf.Hinge, p.weight, p.expr)) s.potentials)
        (Array.map
           (function Le e -> (Hlmrf.Le, 0.0, e) | Eq e -> (Hlmrf.Eq, 0.0, e))
           s.constraints)
    in
    let nf = Array.length factors in
    let offsets = Array.make (nf + 1) 0 in
    Array.iteri
      (fun f (_, _, e) -> offsets.(f + 1) <- offsets.(f) + List.length e.coeffs)
      factors;
    let var = Array.make offsets.(nf) 0 in
    let coef = Array.make offsets.(nf) 0.0 in
    Array.iteri
      (fun f (_, _, e) ->
        List.iteri
          (fun j (v, a) ->
            var.(offsets.(f) + j) <- v;
            coef.(offsets.(f) + j) <- a)
          e.coeffs)
      factors;
    {
      Hlmrf.num_vars = s.num_vars;
      num_potentials = Array.length s.potentials;
      kind = Array.map (fun (k, _, _) -> k) factors;
      weight = Array.map (fun (_, w, _) -> w) factors;
      const = Array.map (fun (_, _, e) -> e.const) factors;
      offsets;
      var;
      coef;
    }
end

module Admm = Psl.Admm

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let near ?(eps = 2e-2) a b = Float.abs (a -. b) <= eps

let test_admm_single_pull () =
  (* minimize 1.0 * max(0, 1 - x): optimum x = 1. *)
  let model =
    Spec.make
      {
        Spec.num_vars = 1;
        potentials =
          [| { Spec.weight = 1.0; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } } |];
        constraints = [||];
      }
  in
  let x, stats = Admm.solve model in
  Alcotest.(check bool) "converged" true stats.Admm.converged;
  Alcotest.(check bool) "x = 1" true (near x.(0) 1.0)

let test_admm_competing_pulls () =
  (* min 3*max(0,1-x) + 1*max(0,x): linear in x with slope -2 on [0,1],
     optimum x = 1. Swap weights -> x = 0. *)
  let model w_up w_down =
    Spec.make
      {
        Spec.num_vars = 1;
        potentials =
          [|
            { Spec.weight = w_up; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } };
            { Spec.weight = w_down; expr = { coeffs = [ (0, 1.0) ]; const = 0.0 } };
          |];
        constraints = [||];
      }
  in
  let x, _ = Admm.solve (model 3.0 1.0) in
  Alcotest.(check bool) "strong pull wins" true (near x.(0) 1.0);
  let x, _ = Admm.solve (model 1.0 3.0) in
  Alcotest.(check bool) "strong push wins" true (near x.(0) 0.0)

let test_admm_mutual_exclusion () =
  (* Pull both vars to 1 with weights 0.9 and 0.6 under x0 + x1 <= 1:
     optimum keeps the heavier at 1. *)
  let model =
    Spec.make
      {
        Spec.num_vars = 2;
        potentials =
          [|
            { Spec.weight = 0.9; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } };
            { Spec.weight = 0.6; expr = { coeffs = [ (1, -1.0) ]; const = 1.0 } };
          |];
        constraints =
          [| Spec.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 } |];
      }
  in
  let x, stats = Admm.solve ~max_iters:5000 model in
  Alcotest.(check bool) "feasible" true
    (Hlmrf.constraint_violation model x < 0.05);
  Alcotest.(check bool) "heavier kept" true (x.(0) > x.(1));
  Alcotest.(check bool) "x0 near 1" true (near ~eps:0.05 x.(0) 1.0);
  Alcotest.(check bool) "x1 near 0" true (near ~eps:0.05 x.(1) 0.0);
  Alcotest.(check bool) "objective near 0.6" true
    (near ~eps:0.05 stats.Admm.objective 0.6)

let test_admm_equality_pin () =
  let model =
    Spec.make
      {
        Spec.num_vars = 1;
        potentials =
          [| { Spec.weight = 5.0; expr = { coeffs = [ (0, 1.0) ]; const = 0.0 } } |];
        constraints = [| Spec.Eq { coeffs = [ (0, 1.0) ]; const = -1.0 } |];
      }
  in
  (* Even a strong pull to 0 cannot move a pinned variable. *)
  let x, _ = Admm.solve ~max_iters:5000 model in
  Alcotest.(check bool) "pinned at 1" true (near ~eps:0.05 x.(0) 1.0)

let test_admm_implication_potential () =
  (* body -> head with body pinned at 1: w*max(0, x_b - x_h) plus a tiny
     prior on the head; the head should rise to ~1. *)
  let model =
    Spec.make
      {
        Spec.num_vars = 2;
        potentials =
          [|
            { Spec.weight = 2.0; expr = { coeffs = [ (0, 1.0); (1, -1.0) ]; const = 0.0 } };
            { Spec.weight = 0.05; expr = { coeffs = [ (1, 1.0) ]; const = 0.0 } };
          |];
        constraints = [| Spec.Eq { coeffs = [ (0, 1.0) ]; const = -1.0 } |];
      }
  in
  let x, _ = Admm.solve ~max_iters:5000 model in
  Alcotest.(check bool) "head derived" true (x.(1) > 0.9)

let test_objective_and_violation () =
  let model =
    Spec.make
      {
        Spec.num_vars = 2;
        potentials =
          [| { Spec.weight = 2.0; expr = { coeffs = [ (0, 1.0) ]; const = -0.25 } } |];
        constraints =
          [| Spec.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 } |];
      }
  in
  Alcotest.(check bool) "objective" true
    (near (Hlmrf.objective model [| 0.75; 0.0 |]) 1.0);
  Alcotest.(check bool) "violation zero" true
    (Hlmrf.constraint_violation model [| 0.5; 0.5 |] = 0.0);
  Alcotest.(check bool) "violation positive" true
    (Hlmrf.constraint_violation model [| 1.0; 0.5 |] > 0.0)

let test_rounding_simple () =
  let model = Spec.make { Spec.num_vars = 3; potentials = [||]; constraints = [||] } in
  let assignment, stats = Psl.Rounding.round model [| 0.9; 0.4; 0.5 |] in
  Alcotest.(check (array bool)) "threshold 0.5" [| true; false; true |] assignment;
  Alcotest.(check int) "no flips" 0 stats.Psl.Rounding.flipped

let test_rounding_repair () =
  (* Both rounded to true but mutually exclusive: the lower soft value is
     flipped. *)
  let model =
    Spec.make
      {
        Spec.num_vars = 2;
        potentials = [||];
        constraints =
          [| Spec.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 } |];
      }
  in
  let assignment, stats = Psl.Rounding.round model [| 0.8; 0.6 |] in
  Alcotest.(check (array bool)) "lower flipped" [| true; false |] assignment;
  Alcotest.(check int) "one flip" 1 stats.Psl.Rounding.flipped;
  Alcotest.(check int) "repaired" 0 stats.Psl.Rounding.unrepaired

let test_rounding_respects_pins () =
  let model =
    Spec.make
      {
        Spec.num_vars = 2;
        potentials = [||];
        constraints =
          [|
            Spec.Eq { coeffs = [ (0, 1.0) ]; const = -1.0 };
            Spec.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 };
          |];
      }
  in
  let assignment, _ = Psl.Rounding.round model [| 0.6; 0.9 |] in
  Alcotest.(check (array bool)) "pinned survives, other flips"
    [| true; false |] assignment

let cr_graph () =
  Kg.Graph.of_list
    [
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Leicester") (2015, 2017) 0.7;
      Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
      Kg.Quad.v "CR" "birthDate" (Kg.Term.int 1951) (1951, 2017) 1.0;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
    ]

let test_hlmrf_build_shape () =
  let store = Store.of_graph (cr_graph ()) in
  let rules =
    parse_rules
      {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .|}
  in
  let result = Grounder.Ground.run store rules in
  let model = Hlmrf.build store result.Grounder.Ground.instances in
  Alcotest.(check int) "vars" 6 model.Hlmrf.num_vars;
  (* 1 equality pin (birthDate) + 1 deduplicated clash constraint. *)
  Alcotest.(check int) "constraints" 2 (Hlmrf.num_constraints model);
  (* 4 uncertain evidence pulls + 1 hidden prior + 1 soft rule instance. *)
  Alcotest.(check int) "potentials" 6 model.Hlmrf.num_potentials

let test_npsl_running_example () =
  let rules =
    parse_rules
      {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .|}
  in
  let out = Psl.Npsl.run (cr_graph ()) rules in
  Alcotest.(check bool) "admm converged" true out.Psl.Npsl.stats.Psl.Npsl.admm.Admm.converged;
  Alcotest.(check int) "repaired" 0
    out.Psl.Npsl.stats.Psl.Npsl.rounding.Psl.Rounding.unrepaired;
  (* Figure 7: facts 1-4 kept, fact 5 (Napoli) removed, worksFor derived. *)
  Alcotest.(check (array bool)) "assignment"
    [| true; true; true; true; false; true |]
    out.Psl.Npsl.assignment;
  (* The continuous state is crisp on this instance. *)
  Alcotest.(check bool) "napoli near 0" true (out.Psl.Npsl.truth.(4) < 0.2);
  Alcotest.(check bool) "chelsea near 1" true (out.Psl.Npsl.truth.(0) > 0.8)

let test_npsl_agrees_with_mln_on_example () =
  let rules =
    parse_rules
      "constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
  in
  let psl_out = Psl.Npsl.run (cr_graph ()) rules in
  let mln_out = Mln.Map_inference.run (cr_graph ()) rules in
  Alcotest.(check (array bool)) "same MAP state"
    mln_out.Mln.Map_inference.assignment psl_out.Psl.Npsl.assignment

(* ------------------------------------------------------------------ *)
(* Reference implementations: the list-shaped HL-MRF builder, the     *)
(* boxed record-per-factor ADMM kernel and the Hashtbl-and-list       *)
(* component split that the packed ones replaced, verbatim over       *)
(* [Hlmrf.Spec] (the kernel minus its Obs reporting).                 *)

module Reference = struct
  module Vec = Prelude.Vec
  module Instance = Instance_view

  let eval_linexp (e : Spec.linexp) x =
    List.fold_left (fun acc (v, a) -> acc +. (a *. x.(v))) e.const e.coeffs

  let objective (t : Spec.t) x =
    Array.fold_left
      (fun acc (p : Spec.potential) ->
        acc +. (p.weight *. Float.max 0.0 (eval_linexp p.expr x)))
      0.0 t.potentials

  let build ?(config = Hlmrf.default_config) store instances : Spec.t =
    let potentials = Vec.create () in
    let constraints = Vec.create () in
    Store.iter
      (fun id _atom origin ->
        match origin with
        | Store.Evidence { confidence; _ } ->
            if confidence >= 1.0 && config.Hlmrf.evidence_hard then
              (* x = 1 *)
              Vec.push constraints
                (Spec.Eq { coeffs = [ (id, 1.0) ]; const = -1.0 })
            else
              (* weight · (1 - x) = weight · max(0, 1 - x) since x <= 1 *)
              Vec.push potentials
                {
                  Spec.weight = confidence +. config.Hlmrf.evidence_bonus;
                  expr = { coeffs = [ (id, -1.0) ]; const = 1.0 };
                }
        | Store.Hidden ->
            if config.Hlmrf.hidden_prior > 0.0 then
              Vec.push potentials
                {
                  Spec.weight = config.Hlmrf.hidden_prior;
                  expr = { coeffs = [ (id, 1.0) ]; const = 0.0 };
                })
      store;
    let seen_hard = Hashtbl.create 1024 in
    List.iter
      (fun { Instance.rule; body_atoms; head } ->
        let n = List.length body_atoms in
        let body_coeffs = List.map (fun id -> (id, 1.0)) body_atoms in
        let body_const = -.float_of_int (n - 1) in
        match (head, rule.Logic.Rule.weight) with
        | Instance.Satisfied, _ -> ()
        | Instance.Violated, Some w ->
            Vec.push potentials
              { Spec.weight = w; expr = { coeffs = body_coeffs; const = body_const } }
        | Instance.Violated, None ->
            (* Σ body - (n-1) <= 0 *)
            let key = List.sort compare body_atoms in
            if not (Hashtbl.mem seen_hard (key, -1)) then begin
              Hashtbl.replace seen_hard (key, -1) ();
              Vec.push constraints
                (Spec.Le { coeffs = body_coeffs; const = body_const })
            end
        | Instance.Derives h, Some w ->
            Vec.push potentials
              {
                Spec.weight = w;
                expr = { coeffs = (h, -1.0) :: body_coeffs; const = body_const };
              }
        | Instance.Derives h, None ->
            let key = List.sort compare body_atoms in
            if not (Hashtbl.mem seen_hard (key, h)) then begin
              Hashtbl.replace seen_hard (key, h) ();
              Vec.push constraints
                (Spec.Le { coeffs = (h, -1.0) :: body_coeffs; const = body_const })
            end)
      (Instance.of_instances instances);
    {
      num_vars = Store.size store;
      potentials = Vec.to_array potentials;
      constraints = Vec.to_array constraints;
    }

  (* The boxed ADMM kernel. *)

  type kind =
    | Hinge of float  (* weight *)
    | Con_le
    | Con_eq

  type factor = {
    kind : kind;
    vars : int array;
    coeffs : float array;
    const : float;
    norm_sq : float;
    y : float array;  (* local copy *)
    u : float array;  (* scaled dual *)
  }

  let factor_of_potential (p : Spec.potential) =
    let vars = Array.of_list (List.map fst p.expr.coeffs) in
    let coeffs = Array.of_list (List.map snd p.expr.coeffs) in
    {
      kind = Hinge p.weight;
      vars;
      coeffs;
      const = p.expr.const;
      norm_sq = Array.fold_left (fun acc a -> acc +. (a *. a)) 0.0 coeffs;
      y = Array.make (Array.length vars) 0.0;
      u = Array.make (Array.length vars) 0.0;
    }

  let factor_of_constraint (c : Spec.lincon) =
    let expr, kind =
      match c with Spec.Le e -> (e, Con_le) | Spec.Eq e -> (e, Con_eq)
    in
    let vars = Array.of_list (List.map fst expr.coeffs) in
    let coeffs = Array.of_list (List.map snd expr.coeffs) in
    {
      kind;
      vars;
      coeffs;
      const = expr.const;
      norm_sq = Array.fold_left (fun acc a -> acc +. (a *. a)) 0.0 coeffs;
      y = Array.make (Array.length vars) 0.0;
      u = Array.make (Array.length vars) 0.0;
    }

  let dot coeffs v =
    let acc = ref 0.0 in
    Array.iteri (fun i a -> acc := !acc +. (a *. v.(i))) coeffs;
    !acc

  (* argmin_y f(y) + rho/2 ||y - v||^2 for one factor, written into f.y. *)
  let prox rho f v =
    let k = Array.length f.vars in
    let value = dot f.coeffs v +. f.const in
    let project () =
      (* Euclidean projection of v onto the hyperplane a.y + c = 0. *)
      let step = value /. f.norm_sq in
      for i = 0 to k - 1 do
        f.y.(i) <- v.(i) -. (step *. f.coeffs.(i))
      done
    in
    match f.kind with
    | Con_eq -> if f.norm_sq = 0.0 then Array.blit v 0 f.y 0 k else project ()
    | Con_le ->
        if value <= 0.0 || f.norm_sq = 0.0 then Array.blit v 0 f.y 0 k
        else project ()
    | Hinge w ->
        if f.norm_sq = 0.0 then Array.blit v 0 f.y 0 k
        else begin
          (* Active-hinge candidate: gradient step of the linear part. *)
          let shift = w /. rho in
          let candidate_value = value -. (shift *. f.norm_sq) in
          if candidate_value >= 0.0 then
            for i = 0 to k - 1 do
              f.y.(i) <- v.(i) -. (shift *. f.coeffs.(i))
            done
          else if value <= 0.0 then Array.blit v 0 f.y 0 k
          else project ()
        end

  let clip01 x = Float.min 1.0 (Float.max 0.0 x)

  let block = 256

  let solve ?(rho = 1.0) ?(max_iters = 2_000) ?(tol = 1e-4) ?init
      ?(deadline = Prelude.Deadline.none) (model : Spec.t) =
    let n = model.num_vars in
    let factors =
      Array.append
        (Array.map factor_of_potential model.potentials)
        (Array.map factor_of_constraint model.constraints)
    in
    let z =
      match init with
      | Some x -> Array.map clip01 x
      | None -> Array.make n 0.5
    in
    (* How many local copies each variable has (for averaging). *)
    let copies = Array.make n 0 in
    Array.iter
      (fun f -> Array.iter (fun v -> copies.(v) <- copies.(v) + 1) f.vars)
      factors;
    (* Initialise local copies at the consensus value. *)
    Array.iter
      (fun f -> Array.iteri (fun i v -> f.y.(i) <- z.(v)) f.vars)
      factors;
    let num_factors = Array.length factors in
    let num_blocks = (num_factors + block - 1) / block in
    let pr_parts = Array.make (max 1 num_blocks) 0.0 in
    let sums = Array.make n 0.0 in
    let z_old = Array.make n 0.0 in
    let iterations = ref 0 in
    let primal = ref infinity in
    let dual = ref infinity in
    let converged = ref false in
    let halted = ref false in
    while (not !converged) && (not !halted) && !iterations < max_iters do
      if Prelude.Deadline.expired deadline then halted := true
      else begin
      incr iterations;
      for fi = 0 to num_factors - 1 do
        let f = factors.(fi) in
        let k = Array.length f.vars in
        let v = Array.init k (fun i -> z.(f.vars.(i)) -. f.u.(i)) in
        prox rho f v
      done;
      Array.blit z 0 z_old 0 n;
      Array.fill sums 0 n 0.0;
      Array.iter
        (fun f ->
          Array.iteri
            (fun i v -> sums.(v) <- sums.(v) +. f.y.(i) +. f.u.(i))
            f.vars)
        factors;
      for v = 0 to n - 1 do
        if copies.(v) > 0 then
          z.(v) <- clip01 (sums.(v) /. float_of_int copies.(v))
      done;
      Array.fill pr_parts 0 (Array.length pr_parts) 0.0;
      for fi = 0 to num_factors - 1 do
        let f = factors.(fi) in
        let b = fi / block in
        Array.iteri
          (fun i v ->
            let r = f.y.(i) -. z.(v) in
            f.u.(i) <- f.u.(i) +. r;
            pr_parts.(b) <- pr_parts.(b) +. (r *. r))
          f.vars
      done;
      let pr = ref 0.0 in
      for b = 0 to num_blocks - 1 do
        pr := !pr +. pr_parts.(b)
      done;
      let du = ref 0.0 in
      for v = 0 to n - 1 do
        let d = z.(v) -. z_old.(v) in
        du := !du +. (float_of_int copies.(v) *. d *. d)
      done;
      primal := sqrt !pr;
      dual := rho *. sqrt !du;
      let scale = sqrt (float_of_int (max 1 n)) in
      if !primal <= tol *. scale && !dual <= tol *. scale then converged := true
      end
    done;
    ( z,
      {
        Admm.iterations = !iterations;
        primal_residual = !primal;
        dual_residual = !dual;
        converged = !converged;
        objective = objective model z;
        status =
          (if !halted then Prelude.Deadline.Timed_out
           else Prelude.Deadline.Completed);
      } )

  (* The component split. *)

  type component = {
    vars : int array;
    model : Spec.t;
  }

  let linexp_vars (e : Spec.linexp) = List.map fst e.coeffs

  let lincon_exp = function Spec.Le e -> e | Spec.Eq e -> e

  let split (model : Spec.t) =
    let n = model.num_vars in
    let parent = Array.init n Fun.id in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
    in
    let union_exp e =
      match linexp_vars e with
      | [] -> ()
      | v0 :: rest -> List.iter (fun v -> union v0 v) rest
    in
    Array.iter (fun (p : Spec.potential) -> union_exp p.expr) model.potentials;
    Array.iter (fun c -> union_exp (lincon_exp c)) model.constraints;
    let members = Hashtbl.create 64 in
    let roots = ref [] in
    for i = 0 to n - 1 do
      let r = find i in
      match Hashtbl.find_opt members r with
      | None ->
          roots := r :: !roots;
          Hashtbl.add members r (ref [ i ])
      | Some l -> l := i :: !l
    done;
    let roots = List.rev !roots in
    let local = Array.make n 0 in
    let atoms_of_root =
      List.map
        (fun r ->
          let vars = Array.of_list (List.rev !(Hashtbl.find members r)) in
          Array.iteri (fun li v -> local.(v) <- li) vars;
          (r, vars))
        roots
    in
    let pots = Hashtbl.create 64 and cons = Hashtbl.create 64 in
    List.iter
      (fun (r, _) ->
        Hashtbl.add pots r (ref []);
        Hashtbl.add cons r (ref []))
      atoms_of_root;
    let remap (e : Spec.linexp) =
      { e with Spec.coeffs = List.map (fun (v, c) -> (local.(v), c)) e.coeffs }
    in
    let orphan = ref false in
    Array.iter
      (fun (p : Spec.potential) ->
        match linexp_vars p.expr with
        | [] -> orphan := true
        | v0 :: _ ->
            let cell = Hashtbl.find pots (find v0) in
            cell := { p with Spec.expr = remap p.expr } :: !cell)
      model.potentials;
    Array.iter
      (fun c ->
        match linexp_vars (lincon_exp c) with
        | [] -> orphan := true
        | v0 :: _ ->
            let cell = Hashtbl.find cons (find v0) in
            let c' =
              match c with
              | Spec.Le e -> Spec.Le (remap e)
              | Spec.Eq e -> Spec.Eq (remap e)
            in
            cell := c' :: !cell)
      model.constraints;
    if !orphan then
      (* A variable-free factor (a constant) belongs to no component;
         splitting would silently drop it from every sub-solve. Degenerate
         and unreachable with the current builder — fall back to one
         component covering the whole model. *)
      [ { vars = Array.init n Fun.id; model } ]
    else
      List.map
        (fun (r, vars) ->
          {
            vars;
            model =
              {
                Spec.num_vars = Array.length vars;
                potentials = Array.of_list (List.rev !(Hashtbl.find pots r));
                constraints = Array.of_list (List.rev !(Hashtbl.find cons r));
              };
          })
        atoms_of_root
end

(* ------------------------------------------------------------------ *)
(* Component split and solve cache.                                   *)

(* Random small HL-MRFs: potentials and Le/Eq constraints over up to 12
   variables, 1 to 3 terms each, with repeated variables inside one
   linexp left in. Unreferenced variables become singleton components,
   and zero variables gives the empty model. *)
let random_model case_seed =
  let rng = Prelude.Prng.create case_seed in
  let num_vars = Prelude.Prng.int rng 13 in
  let linexp () =
    {
      Spec.coeffs =
        List.init
          (1 + Prelude.Prng.int rng 3)
          (fun _ ->
            ( Prelude.Prng.int rng num_vars,
              float_of_int (Prelude.Prng.int rng 5 - 2) /. 2. ));
      const = float_of_int (Prelude.Prng.int rng 5 - 2) /. 2.;
    }
  in
  let count bound = if num_vars = 0 then 0 else Prelude.Prng.int rng bound in
  let model =
    {
      Spec.num_vars;
      potentials =
        Array.init (count 10) (fun _ ->
            {
              Spec.weight = float_of_int (1 + Prelude.Prng.int rng 20) /. 10.;
              expr = linexp ();
            });
      constraints =
        Array.init (count 4) (fun _ ->
            if Prelude.Prng.bool rng then Spec.Le (linexp ())
            else Spec.Eq (linexp ()));
    }
  in
  (model, Array.init num_vars (fun _ -> Prelude.Prng.float rng 1.0))

let arbitrary_case generate =
  QCheck.make
    ~print:(fun case_seed ->
      Format.asprintf "case %d:@.%a" case_seed Hlmrf.pp
        (Spec.make (fst (generate case_seed))))
    QCheck.Gen.(int_bound 1_000_000)

let arbitrary_model = arbitrary_case random_model

(* Component order and within-component factor order are the solve
   cache's key contract. *)
let qcheck_split_matches_reference =
  QCheck.Test.make ~name:"counting-sort split = Hashtbl reference" ~count:300
    arbitrary_model (fun case_seed ->
      let model, _ = random_model case_seed in
      Psl.Decompose.split (Spec.make model)
      = List.map
          (fun (c : Reference.component) ->
            { Psl.Decompose.vars = c.vars; model = Spec.make c.model })
          (Reference.split model))

let bits = Array.map Int64.bits_of_float

let qcheck_cache_is_transparent =
  QCheck.Test.make ~name:"cached decomposed solve = uncached, bit for bit"
    ~count:100 arbitrary_model (fun case_seed ->
      let model, init = random_model case_seed in
      let model = Spec.make model in
      let solve ?cache () =
        fst
          (Psl.Decompose.solve ?cache ~rho:1.0 ~max_iters:200 ~tol:1e-4 ~init
             model)
      in
      let cache = Components.create_cache () in
      let uncached = solve () in
      let first = solve ~cache () in
      let replayed = solve ~cache () in
      bits first = bits uncached && bits replayed = bits uncached)

(* A variable-free potential belongs to no component, so the split must
   fall back to one component holding the whole model. *)
let test_variable_free_fallback () =
  let model =
    Spec.make
      {
        Spec.num_vars = 3;
        potentials =
          [|
            { Spec.weight = 1.0; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } };
            { Spec.weight = 2.0; expr = { coeffs = []; const = 0.5 } };
            { Spec.weight = 0.5; expr = { coeffs = [ (2, 1.0) ]; const = 0.0 } };
          |];
        constraints = [||];
      }
  in
  (match Psl.Decompose.split model with
  | [ c ] ->
      Alcotest.(check (array int)) "every variable" [| 0; 1; 2 |]
        c.Psl.Decompose.vars;
      Alcotest.(check bool) "the whole model" true (c.Psl.Decompose.model = model)
  | cs -> Alcotest.failf "%d components, expected one" (List.length cs));
  let init = [| 0.2; 0.4; 0.6 |] in
  let truth, stats =
    Psl.Decompose.solve ~rho:1.0 ~max_iters:2_000 ~tol:1e-4 ~init model
  in
  let global, global_stats = Admm.solve ~init model in
  Alcotest.(check (array int64)) "decomposed = global" (bits global) (bits truth);
  Alcotest.(check int) "same iterations" global_stats.Admm.iterations
    stats.Admm.iterations

(* ------------------------------------------------------------------ *)
(* The packed kernel against the boxed reference.                     *)

(* Random HL-MRFs for the kernel oracle: hinge weights log-uniform in
   [0.01, 10], Le and Eq constraints, variables repeated inside one
   factor, zero-norm factors (every coefficient 0), variables in no
   factor, and [init] given or absent. One case in eight is large
   enough (over 256 factors) to span several blocks, so the residual
   is reduced over more than one block sum. *)
let kernel_case case_seed =
  let rng = Prelude.Prng.create case_seed in
  let large = Prelude.Prng.int rng 8 = 0 in
  let num_vars = Prelude.Prng.int rng (if large then 200 else 10) + 1 in
  (* Leave the top variables out of every factor. *)
  let used = max 1 (num_vars - Prelude.Prng.int rng 3) in
  let linexp () =
    let zero_norm = Prelude.Prng.int rng 10 = 0 in
    let v0 = Prelude.Prng.int rng used in
    {
      Spec.coeffs =
        List.init
          (1 + Prelude.Prng.int rng 4)
          (fun _ ->
            (* A repeat of the first variable, now and then. *)
            ( (if Prelude.Prng.int rng 4 = 0 then v0
               else Prelude.Prng.int rng used),
              if zero_norm then 0.0
              else float_of_int (Prelude.Prng.int rng 9 - 4) /. 4. ));
      const = float_of_int (Prelude.Prng.int rng 9 - 4) /. 4.;
    }
  in
  let scale = if large then 60 else 1 in
  let model =
    {
      Spec.num_vars;
      potentials =
        Array.init
          (scale * (1 + Prelude.Prng.int rng 8))
          (fun _ ->
            {
              Spec.weight =
                0.01 *. Float.pow 1000.0 (Prelude.Prng.float rng 1.0);
              expr = linexp ();
            });
      constraints =
        Array.init
          (scale * Prelude.Prng.int rng 4)
          (fun _ ->
            if Prelude.Prng.bool rng then Spec.Le (linexp ())
            else Spec.Eq (linexp ()));
    }
  in
  let init =
    if Prelude.Prng.bool rng then
      Some (Array.init num_vars (fun _ -> Prelude.Prng.float rng 1.2 -. 0.1))
    else None
  in
  let max_iters = 1 + Prelude.Prng.int rng 400 in
  (model, (init, max_iters))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let qcheck_kernel_matches_reference =
  QCheck.Test.make ~name:"packed ADMM = boxed reference, bit for bit"
    ~count:300 (arbitrary_case kernel_case) (fun case_seed ->
      let model, (init, max_iters) = kernel_case case_seed in
      let rz, rs = Reference.solve ?init ~max_iters model in
      let z, s = Admm.solve ?init ~max_iters (Spec.make model) in
      bits z = bits rz
      && same_float s.Admm.primal_residual rs.Admm.primal_residual
      && same_float s.Admm.dual_residual rs.Admm.dual_residual
      && same_float s.Admm.objective rs.Admm.objective
      && s.Admm.iterations = rs.Admm.iterations
      && s.Admm.converged = rs.Admm.converged)

(* The grounded models of two benchmark inputs, through the packed and
   the list builder: the same factors, in the same order, with the same
   terms. *)
let check_build_matches_reference name graph rules =
  let store = Store.of_graph graph in
  let ground = Grounder.Ground.run ~lazy_constraints:true store rules in
  let instances = ground.Grounder.Ground.instances in
  let packed = Hlmrf.build store instances in
  let spec = Reference.build store instances in
  let np = Array.length spec.potentials in
  Alcotest.(check int) (name ^ ": vars") spec.num_vars packed.Hlmrf.num_vars;
  Alcotest.(check int) (name ^ ": potentials") np packed.Hlmrf.num_potentials;
  Alcotest.(check int)
    (name ^ ": constraints")
    (Array.length spec.constraints)
    (Hlmrf.num_constraints packed);
  Alcotest.(check bool) (name ^ ": non-trivial") true (np > 500);
  let factor f =
    let kind, weight, (e : Spec.linexp) =
      if f < np then
        let p = spec.potentials.(f) in
        (Hlmrf.Hinge, p.weight, p.expr)
      else
        match spec.constraints.(f - np) with
        | Spec.Le e -> (Hlmrf.Le, 0.0, e)
        | Spec.Eq e -> (Hlmrf.Eq, 0.0, e)
    in
    let o = packed.Hlmrf.offsets.(f) in
    let terms =
      List.init (packed.Hlmrf.offsets.(f + 1) - o) (fun j ->
          (packed.Hlmrf.var.(o + j), packed.Hlmrf.coef.(o + j)))
    in
    if
      not
        (kind = packed.Hlmrf.kind.(f)
        && same_float weight packed.Hlmrf.weight.(f)
        && same_float e.const packed.Hlmrf.const.(f)
        && terms = e.coeffs)
    then Alcotest.failf "%s: factor %d differs from the list builder" name f
  in
  for f = 0 to Hlmrf.num_factors packed - 1 do
    factor f
  done

let test_build_matches_reference () =
  let fb =
    Datagen.Footballdb.generate ~seed:1 ~players:150 ~noise_ratio:0.5 ()
  in
  check_build_matches_reference "footballdb-150" fb.Datagen.Footballdb.graph
    (Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ());
  let wd =
    Datagen.Wikidata.generate ~seed:1 ~total_facts:2_000 ~conflict_rate:0.01 ()
  in
  check_build_matches_reference "wikidata-2000" wd.Datagen.Wikidata.graph
    (Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules ())

(* [x0 + x1 = 3] cannot hold in the box, so the primal residual never
   vanishes and ADMM runs to its budget: a solve must allocate the same
   words whatever that budget is. *)
let test_iteration_allocation_free () =
  let model =
    Spec.make
      {
        Spec.num_vars = 2;
        potentials =
          [|
            { Spec.weight = 0.9; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } };
            { Spec.weight = 0.6; expr = { coeffs = [ (1, 1.0) ]; const = 0.0 } };
          |];
        constraints =
          [|
            Spec.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 };
            Spec.Eq { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -3.0 };
          |];
      }
  in
  let words max_iters =
    let before = Gc.minor_words () in
    let _, stats = Admm.solve ~tol:0.0 ~max_iters model in
    Alcotest.(check int) "ran to budget" max_iters stats.Admm.iterations;
    Gc.minor_words () -. before
  in
  ignore (words 100);
  let short = words 100 and long = words 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "same words for 100 and 10000 iterations (%.0f vs %.0f)"
       short long)
    true (short = long)

let test_init_length () =
  let model =
    Spec.make
      {
        Spec.num_vars = 2;
        potentials =
          [| { Spec.weight = 1.0; expr = { coeffs = [ (1, -1.0) ]; const = 1.0 } } |];
        constraints = [||];
      }
  in
  List.iter
    (fun init ->
      Alcotest.check_raises
        (Printf.sprintf "init of length %d" (Array.length init))
        (Invalid_argument "Admm.solve: init length")
        (fun () -> ignore (Admm.solve ~init model)))
    [ [| 0.5 |]; [| 0.5; 0.5; 0.5 |] ]

let () =
  Alcotest.run "psl"
    [
      ( "admm",
        [
          Alcotest.test_case "single pull" `Quick test_admm_single_pull;
          Alcotest.test_case "competing pulls" `Quick test_admm_competing_pulls;
          Alcotest.test_case "mutual exclusion" `Quick test_admm_mutual_exclusion;
          Alcotest.test_case "equality pin" `Quick test_admm_equality_pin;
          Alcotest.test_case "implication potential" `Quick
            test_admm_implication_potential;
          Alcotest.test_case "objective/violation" `Quick
            test_objective_and_violation;
          QCheck_alcotest.to_alcotest qcheck_kernel_matches_reference;
          Alcotest.test_case "iterations allocation-free" `Quick
            test_iteration_allocation_free;
          Alcotest.test_case "init length" `Quick test_init_length;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "simple threshold" `Quick test_rounding_simple;
          Alcotest.test_case "repair" `Quick test_rounding_repair;
          Alcotest.test_case "respects pins" `Quick test_rounding_respects_pins;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "hlmrf shape" `Quick test_hlmrf_build_shape;
          Alcotest.test_case "build = list reference" `Quick
            test_build_matches_reference;
          Alcotest.test_case "running example" `Quick test_npsl_running_example;
          Alcotest.test_case "agrees with mln" `Quick
            test_npsl_agrees_with_mln_on_example;
        ] );
      ( "decompose",
        [
          QCheck_alcotest.to_alcotest qcheck_split_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_cache_is_transparent;
          Alcotest.test_case "variable-free potential" `Quick
            test_variable_free_fallback;
        ] );
    ]
