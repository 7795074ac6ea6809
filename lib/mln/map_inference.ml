module Store = Grounder.Atom_store
module Deadline = Prelude.Deadline

type solver =
  | Walk
  | Exact_bb
  | Ilp_exact

type options = {
  solver : solver;
  use_cpi : bool;
  network_config : Network.config;
}

let default_options =
  { solver = Walk; use_cpi = true; network_config = Network.default_config }

(* The MaxWalkSAT settings of every solve; [max_flips] caps the
   per-component flip budget. *)
let seed = 7
let max_flips = 100_000
let restarts = 3

type stats = {
  atoms : int;
  evidence_atoms : int;
  hidden_atoms : int;
  ground_ms : float;
  solve_ms : float;
  hard_violations : int;
  objective : float;
  status : Deadline.status;
}

type outcome = {
  assignment : bool array;
  stats : stats;
}

(* One solve of [network] with the configured backend. The exact
   backends run a degradation ladder: the exact search gets half the
   remaining budget; if the deadline cuts it short before it proves
   optimality, MaxWalkSAT takes over with whatever budget is left,
   seeded from the exact incumbent when one exists, and the status
   degrades. A deadline that does not fire leaves the ladder inert: the
   answer (an exhausted node budget's incumbent included) is the
   unbudgeted one. *)
let base_solver ~max_flips ~stall ~pool ~deadline options network ~init =
  let walk ~init =
    let assignment, stats =
      Maxwalksat.solve ~seed ~max_flips ~restarts ~stall ~pool ~deadline
        ~init network
    in
    (* MaxWalkSAT tags a walk cut short with hard clauses violated
       [Degraded]; here it is [Timed_out], and the repair backstop of
       [run_ground] decides soundness. A crashed task stays [Degraded]. *)
    match stats.Maxwalksat.status with
    | Deadline.Degraded when not stats.Maxwalksat.crashed ->
        (assignment, Deadline.Timed_out)
    | status -> (assignment, status)
  in
  match options.solver with
  | Walk -> walk ~init
  | (Exact_bb | Ilp_exact) as solver -> (
      let slice = Deadline.slice deadline ~frac:0.5 in
      let outcome =
        if solver = Exact_bb then
          Exact.solve ~deadline:slice network
          |> Option.map (fun r -> (r.Exact.assignment, r.Exact.optimal))
        else Ilp_encoding.solve ~deadline:slice network
      in
      (* [None] without expiry: the hard part is unsatisfiable, which
         the stats report. *)
      let best = Option.fold ~none:init ~some:fst outcome in
      match outcome with
      | Some (assignment, true) -> (assignment, Deadline.Completed)
      | _ when not (Deadline.expired slice) -> (best, Deadline.Completed)
      | _ ->
          Obs.event "solver.degraded"
            [
              ("from", Obs.Events.Str "exact");
              ("to", Obs.Events.Str "walksat");
              ( "remaining_ms",
                Obs.Events.Float (Deadline.remaining_ms deadline) );
            ];
          (fst (walk ~init:best), Deadline.Degraded))

(* The solver of one connected component. The walk budgets are scaled
   to the component's size — a component only ever needs flips
   proportional to its own atoms, and without scaling the per-descent
   stall budget alone would make an N-component network N times more
   expensive than one whole-network solve. Unless the deadline fires,
   everything here is a deterministic function of the sub-network and
   the (fixed) options, never of the surrounding network — the purity
   contract of {!Components}. *)
let component_solver options ~pool ~deadline sub ~init =
  let a = max 1 sub.Network.num_atoms in
  let max_flips = min max_flips (max 1_000 (100 * a)) in
  let stall = min 20_000 (max 250 (25 * a)) in
  let solver = base_solver ~max_flips ~stall ~pool ~deadline options in
  if options.use_cpi then
    let assignment, cpi_stats = Cpi.solve ~solver ~deadline ~init sub in
    { Decompose.values = assignment; status = cpi_stats.Cpi.status }
  else
    let assignment, status = solver sub ~init in
    { Decompose.values = assignment; status }

let run_ground ?(options = default_options) ?(pool = Prelude.Pool.sequential)
    ?(deadline = Deadline.none) ?cache store
    (ground_result : Grounder.Ground.result) ~ground_ms =
  let network =
    Obs.span "encode" (fun () ->
        let network =
          Network.build ~config:options.network_config store
            ground_result.Grounder.Ground.instances
        in
        Obs.count ~n:network.Network.num_atoms "network.atoms";
        Obs.count ~n:(Network.num_clauses network) "network.clauses";
        network)
  in
  let init = Network.expanded_assignment network in
  let (assignment, status), solve_ms =
    Prelude.Timing.time (fun () ->
        Obs.span "solve" (fun () ->
            Decompose.solve ?cache ~deadline
              ~solve_component:(component_solver options ~pool ~deadline)
              ~init network))
  in
  if Deadline.is_finite deadline then
    Obs.gauge "deadline.solve_slack_ms" (Deadline.remaining_ms deadline);
  let evidence_atoms = ref 0 in
  for id = 0 to Store.size store - 1 do
    if Store.is_evidence store id then incr evidence_atoms
  done;
  (* A cut-short run may leave hard clauses violated — CPI's active
     subnetwork can even hide violations the expired budget never got
     to activate. Restore soundness with the deterministic (and
     budget-free) greedy repair; only when that too fails is the run
     [Degraded]. A [Completed] run with violations is the genuinely
     unsatisfiable case and keeps its tag, exactly as without a
     deadline. *)
  let hard_violations, status =
    let violations = Network.hard_violations network assignment in
    if status = Deadline.Completed || violations = 0 then (violations, status)
    else
      let remaining = Network.repair_hard network assignment in
      Obs.event ~level:Obs.Events.Warn "solver.hard_repair"
        [
          ("violations", Obs.Events.Int violations);
          ("remaining", Obs.Events.Int remaining);
        ];
      if Deadline.is_finite deadline then
        Obs.count ~n:(violations - remaining) "deadline.hard_repairs";
      if remaining > 0 then (remaining, Deadline.Degraded)
      else (0, status)
  in
  {
    assignment;
    stats =
      {
        atoms = Store.size store;
        evidence_atoms = !evidence_atoms;
        hidden_atoms = Store.size store - !evidence_atoms;
        ground_ms;
        solve_ms;
        hard_violations;
        objective = Network.score network assignment;
        status;
      };
  }

let run ?(options = default_options) graph rules =
  let store = Store.of_graph graph in
  let ground_result, ground_ms =
    Prelude.Timing.time (fun () ->
        Obs.span "ground" (fun () ->
            Grounder.Ground.run ~lazy_constraints:true store rules))
  in
  run_ground ~options store ground_result ~ground_ms
