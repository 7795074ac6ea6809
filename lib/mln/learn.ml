module Store = Grounder.Atom_store

type options = {
  iterations : int;
  learning_rate : float;
  l2 : float;
  min_weight : float;
  max_weight : float;
}

let default_options =
  {
    iterations = 200;
    learning_rate = 0.1;
    l2 = 0.01;
    min_weight = 0.01;
    max_weight = 15.0;
  }

type result = {
  weights : (string * float) list;
  pll_trace : float list;
}

let log_sigmoid x =
  (* Numerically stable log(sigmoid(x)). *)
  if x >= 0.0 then -.log1p (exp (-.x)) else x -. log1p (exp x)

let hard_weight = 2.0 *. Kg.Quad.max_weight

let clause_weight (network : Network.t) ci =
  if network.hard.(ci) then hard_weight else network.weights.(ci)

(* Per-atom statistics of the observed world: for each learnable rule, the
   satisfied-count difference between the observed value and the flip; for
   fixed-weight clauses, the same difference folded into a constant. *)
type atom_stats = {
  const : float;                    (* fixed-weight contribution to d_i *)
  grad : (int * float) list;        (* (rule index, g_ir) sparse vector *)
}

let learn ?(options = default_options) store instances rules =
  let learnable =
    List.filter_map
      (fun (r : Logic.Rule.t) ->
        match r.weight with Some _ -> Some r.name | None -> None)
      rules
  in
  let rule_index = Hashtbl.create 8 in
  List.iteri (fun i name -> Hashtbl.replace rule_index name i) learnable;
  let num_rules = List.length learnable in
  (* Build the network with all learnable weights at 1.0 so clause
     satisfaction structure is weight-independent; weights enter only
     through the per-rule grouping below. *)
  let network = Network.build store instances in
  (* The observed world under the closed-world assumption: evidence atoms
     are true, closure-introduced hidden atoms are unobserved and hence
     false — otherwise a rule whose head is never in the data would look
     confirmed by its own derivations. *)
  let world = Network.initial_assignment network store in
  let occ_start, occ = Network.occurrences network in
  let rule_of_source =
    Array.map (Hashtbl.find_opt rule_index) network.sources
  in
  let stats =
    Array.init network.num_atoms (fun i ->
        let const = ref 0.0 in
        let grad = Hashtbl.create 4 in
        for o = occ_start.(i) to occ_start.(i + 1) - 1 do
          let ci = occ.(o) in
          let satisfied_with = Network.satisfied_if network ci world ~atom:i in
          let diff =
            match (satisfied_with world.(i), satisfied_with (not world.(i)))
            with
            | true, false -> 1.0
            | false, true -> -1.0
            | _ -> 0.0
          in
          if diff <> 0.0 then
            match rule_of_source.(network.source.(ci)) with
            | Some r ->
                Hashtbl.replace grad r
                  (diff +. Option.value (Hashtbl.find_opt grad r) ~default:0.0)
            | None -> const := !const +. (diff *. clause_weight network ci)
        done;
        {
          const = !const;
          grad = Hashtbl.fold (fun r g acc -> (r, g) :: acc) grad [];
        })
  in
  let weights = Array.make num_rules 1.0 in
  let clamp w = Float.min options.max_weight (Float.max options.min_weight w) in
  let sigmoid x = 1.0 /. (1.0 +. exp (-.x)) in
  let trace = ref [] in
  for _ = 1 to options.iterations do
    let gradient = Array.make num_rules 0.0 in
    let pll = ref 0.0 in
    Array.iter
      (fun s ->
        let d =
          List.fold_left
            (fun acc (r, g) -> acc +. (weights.(r) *. g))
            s.const s.grad
        in
        pll := !pll +. log_sigmoid d;
        let slack = 1.0 -. sigmoid d in
        List.iter
          (fun (r, g) -> gradient.(r) <- gradient.(r) +. (slack *. g))
          s.grad)
      stats;
    Array.iteri
      (fun r g ->
        weights.(r) <-
          clamp
            (weights.(r)
            +. (options.learning_rate *. (g -. (options.l2 *. weights.(r))))))
      gradient;
    trace := !pll :: !trace
  done;
  {
    weights = List.mapi (fun i name -> (name, weights.(i))) learnable;
    pll_trace = List.rev !trace;
  }

let apply result rules =
  List.map
    (fun (r : Logic.Rule.t) ->
      match (r.weight, List.assoc_opt r.name result.weights) with
      | Some _, Some w -> { r with Logic.Rule.weight = Some w }
      | _ -> r)
    rules
