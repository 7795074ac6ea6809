module Store = Grounder.Atom_store

type options = {
  config : Hlmrf.config;
  max_iters : int;
}

let default_options = { config = Hlmrf.default_config; max_iters = 2_000 }

(* The ADMM step size and tolerance and the rounding threshold of every
   solve. *)
let rho = 1.0
let tol = 1e-4
let threshold = 0.5

type stats = {
  atoms : int;
  ground_ms : float;
  solve_ms : float;
  admm : Admm.stats;
  rounding : Rounding.stats;
  status : Prelude.Deadline.status;
}

type outcome = {
  assignment : bool array;
  truth : float array;
  model : Hlmrf.t;
  stats : stats;
}

let run_ground ?(options = default_options) ?(deadline = Prelude.Deadline.none)
    ?cache store (ground_result : Grounder.Ground.result) ~ground_ms =
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
  let (truth, admm_stats), solve_ms =
    Prelude.Timing.time (fun () ->
        Obs.span "solve" (fun () ->
            Decompose.solve ?cache ~deadline ~rho
              ~max_iters:options.max_iters ~tol ~init model))
  in
  if Prelude.Deadline.is_finite deadline then
    Obs.gauge "deadline.solve_slack_ms" (Prelude.Deadline.remaining_ms deadline);
  let assignment, rounding_stats =
    Obs.span "round" (fun () ->
        Rounding.round ~threshold model truth)
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
  {
    assignment;
    truth;
    model;
    stats =
      {
        atoms = Store.size store;
        ground_ms;
        solve_ms;
        admm = admm_stats;
        rounding = rounding_stats;
        status = admm_stats.Admm.status;
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
