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
  seed : int;
  max_flips : int;
  restarts : int;
  pool : Prelude.Pool.t;
  deadline : Deadline.t;
  solve_cache : Decompose.cache option;
}

let default_options =
  {
    solver = Walk;
    use_cpi = true;
    network_config = Network.default_config;
    seed = 7;
    max_flips = 100_000;
    restarts = 3;
    pool = Prelude.Pool.sequential;
    deadline = Deadline.none;
    solve_cache = None;
  }

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

(* Degradation ladder for the exact backends under a finite deadline:
   the exact search gets half the remaining budget; if it does not
   prove optimality in that slice, MaxWalkSAT takes over with whatever
   budget is left, seeded from the exact incumbent when one exists.
   The answer is then best-effort rather than provably optimal, so the
   status degrades. With an infinite deadline the ladder is inert and
   the behaviour (including exhausted-node-budget results) is exactly
   the pre-deadline one. *)
let walk_fallback options network ~init =
  Obs.event "solver.degraded"
    [
      ("from", Obs.Events.Str "exact");
      ("to", Obs.Events.Str "walksat");
      ("remaining_ms", Obs.Events.Float (Deadline.remaining_ms options.deadline));
    ];
  let assignment, _ =
    Maxwalksat.solve ~seed:options.seed ~max_flips:options.max_flips
      ~restarts:options.restarts ~pool:options.pool ~deadline:options.deadline
      ~init network
  in
  (assignment, Deadline.Degraded)

let exact_ladder options network ~init outcome =
  match outcome with
  | Some (assignment, true) -> (assignment, Deadline.Completed)
  | Some (assignment, false) when not (Deadline.is_finite options.deadline) ->
      (assignment, Deadline.Completed)
  | None when not (Deadline.is_finite options.deadline) ->
      (init, Deadline.Completed) (* hard unsat: report via stats *)
  | Some (incumbent, false) -> walk_fallback options network ~init:incumbent
  | None -> walk_fallback options network ~init

let base_solver ?stall options network ~init =
  match options.solver with
  | Walk ->
      let assignment, stats =
        Maxwalksat.solve ~seed:options.seed ~max_flips:options.max_flips
          ~restarts:options.restarts ?stall ~pool:options.pool
          ~deadline:options.deadline ~init network
      in
      (assignment, stats.Maxwalksat.status)
  | Exact_bb ->
      let deadline = Deadline.slice options.deadline ~frac:0.5 in
      exact_ladder options network ~init
        (match Exact.solve ~deadline network with
        | Some { assignment; optimal; _ } -> Some (assignment, optimal)
        | None -> None)
  | Ilp_exact ->
      let deadline = Deadline.slice options.deadline ~frac:0.5 in
      exact_ladder options network ~init (Ilp_encoding.solve ~deadline network)

(* Per-component solver for the decomposed path. The walk budgets are
   scaled to the component's size — a component only ever needs flips
   proportional to its own atoms, and without scaling the per-descent
   stall budget alone would make an N-component network N times more
   expensive than the global solve. Everything here is a deterministic
   function of the sub-network and the (fixed) options, never of the
   surrounding network — the purity contract of {!Components}. *)
let component_solver options sub ~init =
  let a = max 1 sub.Network.num_atoms in
  let scaled =
    {
      options with
      max_flips = min options.max_flips (max 1_000 (100 * a));
    }
  in
  let stall = min 20_000 (max 250 (25 * a)) in
  if options.use_cpi then
    let assignment, cpi_stats =
      Cpi.solve
        ~solver:(fun net ~init ->
          base_solver ~stall scaled net ~init)
        ~init sub
    in
    { Decompose.values = assignment; status = cpi_stats.Cpi.status }
  else
    let assignment, status = base_solver ~stall scaled sub ~init in
    { Decompose.values = assignment; status }

let run_ground ?(options = default_options) store
    (ground_result : Grounder.Ground.result) ~ground_ms =
  let network =
    Obs.span "encode" (fun () ->
        let network =
          Network.build ~config:options.network_config store
            ground_result.Grounder.Ground.instances
        in
        Obs.count ~n:network.Network.num_atoms "network.atoms";
        Obs.count
          ~n:(Array.length network.Network.clauses)
          "network.clauses";
        network)
  in
  let init = Network.expanded_assignment network in
  (* Decompose only under an infinite deadline: splitting a finite
     budget fairly across components would change the carefully tested
     anytime behaviour, and the incremental cache is bypassed for
     budgeted runs anyway. *)
  let solve () =
    if not (Deadline.is_finite options.deadline) then
      Decompose.solve ?cache:options.solve_cache
        ~solve_component:(component_solver options) ~init network
    else if options.use_cpi then
      let assignment, cpi_stats =
        Cpi.solve ~solver:(base_solver options) ~deadline:options.deadline
          ~init network
      in
      (assignment, cpi_stats.Cpi.status)
    else base_solver options network ~init
  in
  let (assignment, status), solve_ms =
    Prelude.Timing.time (fun () -> Obs.span "solve" solve)
  in
  if Deadline.is_finite options.deadline then
    Obs.gauge "deadline.solve_slack_ms"
      (Deadline.remaining_ms options.deadline);
  let evidence_atoms = ref 0 in
  Store.iter
    (fun _ _ origin ->
      match origin with
      | Store.Evidence _ -> incr evidence_atoms
      | Store.Hidden -> ())
    store;
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
      if Deadline.is_finite options.deadline then
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
            Grounder.Ground.run ~pool:options.pool ~lazy_constraints:true store
              rules))
  in
  run_ground ~options store ground_result ~ground_ms
