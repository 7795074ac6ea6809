(* Tests for the PSL engine: HL-MRF compilation, the ADMM solver on
   problems with known optima, rounding, and the nPSL pipeline. *)

module Hlmrf = Psl.Hlmrf
module Admm = Psl.Admm
module Store = Grounder.Atom_store

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let near ?(eps = 2e-2) a b = Float.abs (a -. b) <= eps

let test_admm_single_pull () =
  (* minimize 1.0 * max(0, 1 - x): optimum x = 1. *)
  let model =
    {
      Hlmrf.num_vars = 1;
      potentials =
        [| { Hlmrf.weight = 1.0; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } } |];
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
    {
      Hlmrf.num_vars = 1;
      potentials =
        [|
          { Hlmrf.weight = w_up; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } };
          { Hlmrf.weight = w_down; expr = { coeffs = [ (0, 1.0) ]; const = 0.0 } };
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
    {
      Hlmrf.num_vars = 2;
      potentials =
        [|
          { Hlmrf.weight = 0.9; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } };
          { Hlmrf.weight = 0.6; expr = { coeffs = [ (1, -1.0) ]; const = 1.0 } };
        |];
      constraints =
        [| Hlmrf.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 } |];
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
    {
      Hlmrf.num_vars = 1;
      potentials =
        [| { Hlmrf.weight = 5.0; expr = { coeffs = [ (0, 1.0) ]; const = 0.0 } } |];
      constraints = [| Hlmrf.Eq { coeffs = [ (0, 1.0) ]; const = -1.0 } |];
    }
  in
  (* Even a strong pull to 0 cannot move a pinned variable. *)
  let x, _ = Admm.solve ~max_iters:5000 model in
  Alcotest.(check bool) "pinned at 1" true (near ~eps:0.05 x.(0) 1.0)

let test_admm_implication_potential () =
  (* body -> head with body pinned at 1: w*max(0, x_b - x_h) plus a tiny
     prior on the head; the head should rise to ~1. *)
  let model =
    {
      Hlmrf.num_vars = 2;
      potentials =
        [|
          { Hlmrf.weight = 2.0; expr = { coeffs = [ (0, 1.0); (1, -1.0) ]; const = 0.0 } };
          { Hlmrf.weight = 0.05; expr = { coeffs = [ (1, 1.0) ]; const = 0.0 } };
        |];
      constraints = [| Hlmrf.Eq { coeffs = [ (0, 1.0) ]; const = -1.0 } |];
    }
  in
  let x, _ = Admm.solve ~max_iters:5000 model in
  Alcotest.(check bool) "head derived" true (x.(1) > 0.9)

let test_objective_and_violation () =
  let model =
    {
      Hlmrf.num_vars = 2;
      potentials =
        [| { Hlmrf.weight = 2.0; expr = { coeffs = [ (0, 1.0) ]; const = -0.25 } } |];
      constraints =
        [| Hlmrf.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 } |];
    }
  in
  Alcotest.(check bool) "objective" true
    (near (Hlmrf.objective model [| 0.75; 0.0 |]) 1.0);
  Alcotest.(check bool) "violation zero" true
    (Hlmrf.constraint_violation model [| 0.5; 0.5 |] = 0.0);
  Alcotest.(check bool) "violation positive" true
    (Hlmrf.constraint_violation model [| 1.0; 0.5 |] > 0.0)

let test_rounding_simple () =
  let model = { Hlmrf.num_vars = 3; potentials = [||]; constraints = [||] } in
  let assignment, stats = Psl.Rounding.round model [| 0.9; 0.4; 0.5 |] in
  Alcotest.(check (array bool)) "threshold 0.5" [| true; false; true |] assignment;
  Alcotest.(check int) "no flips" 0 stats.Psl.Rounding.flipped

let test_rounding_repair () =
  (* Both rounded to true but mutually exclusive: the lower soft value is
     flipped. *)
  let model =
    {
      Hlmrf.num_vars = 2;
      potentials = [||];
      constraints =
        [| Hlmrf.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 } |];
    }
  in
  let assignment, stats = Psl.Rounding.round model [| 0.8; 0.6 |] in
  Alcotest.(check (array bool)) "lower flipped" [| true; false |] assignment;
  Alcotest.(check int) "one flip" 1 stats.Psl.Rounding.flipped;
  Alcotest.(check int) "repaired" 0 stats.Psl.Rounding.unrepaired

let test_rounding_respects_pins () =
  let model =
    {
      Hlmrf.num_vars = 2;
      potentials = [||];
      constraints =
        [|
          Hlmrf.Eq { coeffs = [ (0, 1.0) ]; const = -1.0 };
          Hlmrf.Le { coeffs = [ (0, 1.0); (1, 1.0) ]; const = -1.0 };
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
  Alcotest.(check int) "constraints" 2 (Array.length model.Hlmrf.constraints);
  (* 4 uncertain evidence pulls + 1 hidden prior + 1 soft rule instance. *)
  Alcotest.(check int) "potentials" 6 (Array.length model.Hlmrf.potentials)

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
(* Component split.                                                   *)

module Reference = struct
  (* The Hashtbl-and-list component split that the shared counting-sort
     one replaced, verbatim. *)
  type component = Psl.Decompose.component = {
    vars : int array;
    model : Hlmrf.t;
  }

  let linexp_vars (e : Hlmrf.linexp) = List.map fst e.Hlmrf.coeffs

  let lincon_exp = function Hlmrf.Le e -> e | Hlmrf.Eq e -> e

  let split (model : Hlmrf.t) =
    let n = model.Hlmrf.num_vars in
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
    Array.iter (fun (p : Hlmrf.potential) -> union_exp p.Hlmrf.expr)
      model.Hlmrf.potentials;
    Array.iter (fun c -> union_exp (lincon_exp c)) model.Hlmrf.constraints;
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
    let remap (e : Hlmrf.linexp) =
      {
        e with
        Hlmrf.coeffs = List.map (fun (v, c) -> (local.(v), c)) e.Hlmrf.coeffs;
      }
    in
    let orphan = ref false in
    Array.iter
      (fun (p : Hlmrf.potential) ->
        match linexp_vars p.Hlmrf.expr with
        | [] -> orphan := true
        | v0 :: _ ->
            let cell = Hashtbl.find pots (find v0) in
            cell := { p with Hlmrf.expr = remap p.Hlmrf.expr } :: !cell)
      model.Hlmrf.potentials;
    Array.iter
      (fun c ->
        match linexp_vars (lincon_exp c) with
        | [] -> orphan := true
        | v0 :: _ ->
            let cell = Hashtbl.find cons (find v0) in
            let c' =
              match c with
              | Hlmrf.Le e -> Hlmrf.Le (remap e)
              | Hlmrf.Eq e -> Hlmrf.Eq (remap e)
            in
            cell := c' :: !cell)
      model.Hlmrf.constraints;
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
                Hlmrf.num_vars = Array.length vars;
                potentials = Array.of_list (List.rev !(Hashtbl.find pots r));
                constraints = Array.of_list (List.rev !(Hashtbl.find cons r));
              };
          })
        atoms_of_root
end

(* Random small HL-MRFs: potentials and Le/Eq constraints over up to 12
   variables, 1 to 3 terms each, with repeated variables inside one
   linexp left in. Unreferenced variables become singleton components,
   and zero variables gives the empty model. *)
let random_model case_seed =
  let rng = Prelude.Prng.create case_seed in
  let num_vars = Prelude.Prng.int rng 13 in
  let linexp () =
    {
      Hlmrf.coeffs =
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
      Hlmrf.num_vars;
      potentials =
        Array.init (count 10) (fun _ ->
            {
              Hlmrf.weight = float_of_int (1 + Prelude.Prng.int rng 20) /. 10.;
              expr = linexp ();
            });
      constraints =
        Array.init (count 4) (fun _ ->
            if Prelude.Prng.bool rng then Hlmrf.Le (linexp ())
            else Hlmrf.Eq (linexp ()));
    }
  in
  (model, Array.init num_vars (fun _ -> Prelude.Prng.float rng 1.0))

let arbitrary_model =
  QCheck.make
    ~print:(fun case_seed ->
      Format.asprintf "case %d:@.%a" case_seed Hlmrf.pp
        (fst (random_model case_seed)))
    QCheck.Gen.(int_bound 1_000_000)

(* Component order and within-component factor order are the solve
   cache's key contract. *)
let qcheck_split_matches_reference =
  QCheck.Test.make ~name:"counting-sort split = Hashtbl reference" ~count:300
    arbitrary_model (fun case_seed ->
      let model, _ = random_model case_seed in
      Psl.Decompose.split model = Reference.split model)

let bits = Array.map Int64.bits_of_float

let qcheck_cache_is_transparent =
  QCheck.Test.make ~name:"cached decomposed solve = uncached, bit for bit"
    ~count:100 arbitrary_model (fun case_seed ->
      let model, init = random_model case_seed in
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
    {
      Hlmrf.num_vars = 3;
      potentials =
        [|
          { Hlmrf.weight = 1.0; expr = { coeffs = [ (0, -1.0) ]; const = 1.0 } };
          { Hlmrf.weight = 2.0; expr = { coeffs = []; const = 0.5 } };
          { Hlmrf.weight = 0.5; expr = { coeffs = [ (2, 1.0) ]; const = 0.0 } };
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
