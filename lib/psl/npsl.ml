module Store = Grounder.Atom_store

type options = {
  config : Hlmrf.config;
  rho : float;
  max_iters : int;
  tol : float;
  threshold : float;
  pool : Prelude.Pool.t;
  deadline : Prelude.Deadline.t;
  ground_deadline : Prelude.Deadline.t;
  solve_cache : Decompose.cache option;
}

let default_options =
  {
    config = Hlmrf.default_config;
    rho = 1.0;
    max_iters = 2_000;
    tol = 1e-4;
    threshold = 0.5;
    pool = Prelude.Pool.sequential;
    deadline = Prelude.Deadline.none;
    ground_deadline = Prelude.Deadline.none;
    solve_cache = None;
  }

type stats = {
  atoms : int;
  evidence_atoms : int;
  hidden_atoms : int;
  potentials : int;
  hard_constraints : int;
  closure_rounds : int;
  ground_ms : float;
  solve_ms : float;
  admm : Admm.stats;
  rounding : Rounding.stats;
  status : Prelude.Deadline.status;
}

type outcome = {
  assignment : bool array;
  truth : float array;
  store : Grounder.Atom_store.t;
  instances : Grounder.Ground.Instance.t list;
  model : Hlmrf.t;
  stats : stats;
}

let run_ground ?(options = default_options) store
    (ground_result : Grounder.Ground.result) ~ground_ms =
  let model =
    Obs.span "encode" (fun () ->
        let model =
          Hlmrf.build ~config:options.config store
            ground_result.Grounder.Ground.instances
        in
        Obs.count ~n:model.Hlmrf.num_vars "hlmrf.vars";
        Obs.count ~n:model.Hlmrf.num_potentials "hlmrf.potentials";
        Obs.count ~n:(Hlmrf.num_constraints model) "hlmrf.constraints";
        model)
  in
  (* Seed the consensus at the evidence state. *)
  let init = Array.make model.Hlmrf.num_vars 0.0 in
  for id = 0 to Store.size store - 1 do
    match Store.origin store id with
    | Store.Evidence { confidence; _ } -> init.(id) <- confidence
    | Store.Hidden -> init.(id) <- 0.0
  done;
  (* Decompose only under an infinite deadline (mirroring the MLN path):
     budgeted runs keep the global anytime ADMM, and the incremental
     cache is bypassed for them anyway. *)
  let (truth, admm_stats), solve_ms =
    Prelude.Timing.time (fun () ->
        Obs.span "solve" (fun () ->
            if not (Prelude.Deadline.is_finite options.deadline) then
              Decompose.solve ?cache:options.solve_cache ~pool:options.pool
                ~rho:options.rho ~max_iters:options.max_iters ~tol:options.tol
                ~init model
            else
              Admm.solve ~rho:options.rho ~max_iters:options.max_iters
                ~tol:options.tol ~init ~pool:options.pool
                ~deadline:options.deadline model))
  in
  if Prelude.Deadline.is_finite options.deadline then
    Obs.gauge "deadline.solve_slack_ms"
      (Prelude.Deadline.remaining_ms options.deadline);
  let assignment, rounding_stats =
    Obs.span "round" (fun () ->
        Rounding.round ~threshold:options.threshold model truth)
  in
  if rounding_stats.Rounding.flipped > 0 || rounding_stats.Rounding.unrepaired > 0
  then
    Obs.event
      ~level:
        (if rounding_stats.Rounding.unrepaired > 0 then Obs.Events.Warn
         else Obs.Events.Info)
      "npsl.rounding_repair"
      [
        ("flipped", Obs.Events.Int rounding_stats.Rounding.flipped);
        ("unrepaired", Obs.Events.Int rounding_stats.Rounding.unrepaired);
      ];
  let evidence_atoms = ref 0 in
  for id = 0 to Store.size store - 1 do
    if Store.is_evidence store id then incr evidence_atoms
  done;
  {
    assignment;
    truth;
    store;
    instances = ground_result.Grounder.Ground.instances;
    model;
    stats =
      {
        atoms = Store.size store;
        evidence_atoms = !evidence_atoms;
        hidden_atoms = Store.size store - !evidence_atoms;
        potentials = model.Hlmrf.num_potentials;
        hard_constraints = Hlmrf.num_constraints model;
        closure_rounds = ground_result.Grounder.Ground.rounds;
        ground_ms;
        solve_ms;
        admm = admm_stats;
        rounding = rounding_stats;
        status = admm_stats.Admm.status;
      };
  }

let run_store ?(options = default_options) store rules =
  let (ground_result : Grounder.Ground.result), ground_ms =
    Prelude.Timing.time (fun () ->
        Obs.span "ground" (fun () ->
            Grounder.Ground.run ~deadline:options.ground_deadline
              ~pool:options.pool ~lazy_constraints:true store rules))
  in
  (* Per-stage budget telemetry, only under a finite deadline so
     unbudgeted runs keep byte-identical reports. *)
  if Prelude.Deadline.is_finite options.deadline then
    Obs.gauge "deadline.ground_slack_ms"
      (Prelude.Deadline.remaining_ms options.deadline);
  run_ground ~options store ground_result ~ground_ms

let run ?options graph rules =
  run_store ?options (Store.of_graph graph) rules
