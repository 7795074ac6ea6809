module Deadline = Prelude.Deadline

type stats = {
  iterations : int;
  active_clauses : int;
  total_clauses : int;
  status : Deadline.status;
}

let default_solver deadline network ~init =
  let assignment, stats = Maxwalksat.solve ~deadline ~init network in
  (assignment, stats.Maxwalksat.status)

let solve ?solver ?(deadline = Deadline.none) ~init (network : Network.t) =
  let solver =
    match solver with Some s -> s | None -> default_solver deadline
  in
  let total = Network.num_clauses network in
  let active = Array.make total false in
  let num_active = ref 0 in
  (* Seed with the unit clauses: evidence and priors. *)
  for ci = 0 to total - 1 do
    if network.offsets.(ci + 1) - network.offsets.(ci) = 1 then begin
      active.(ci) <- true;
      incr num_active
    end
  done;
  (* The active clauses, in network order, sliced out of the network —
     or the network itself once every clause is active. *)
  let build_active () =
    if !num_active = total then network
    else begin
      let clauses = Array.make !num_active 0 in
      let k = ref 0 in
      Array.iteri
        (fun ci a ->
          if a then begin
            clauses.(!k) <- ci;
            incr k
          end)
        active;
      Network.sub ~num_atoms:network.num_atoms network clauses
    end
  in
  (* The inner solver is anytime, so each round returns a status; the
     loop's own status is the worst seen, bumped to at least [Timed_out]
     when the deadline cuts the separation loop short — the returned
     assignment then proves only the active subset, not the full
     network. *)
  let rec iterate assignment status iteration =
    (* Separation: activate every clause the solution violates. *)
    let added = ref 0 in
    for ci = 0 to total - 1 do
      if
        (not active.(ci))
        && not (Network.clause_satisfied network ci assignment)
      then begin
        active.(ci) <- true;
        incr added
      end
    done;
    num_active := !num_active + !added;
    Obs.event ~level:Obs.Events.Debug "cpi.round"
      [
        ("iteration", Obs.Events.Int iteration);
        ("activated", Obs.Events.Int !added);
      ];
    if !added = 0 then (assignment, status, iteration)
    else if Deadline.expired deadline then begin
      Obs.event ~level:Obs.Events.Warn "cpi.expired"
        [ ("iteration", Obs.Events.Int iteration) ];
      (assignment, Deadline.worst status Deadline.Timed_out, iteration)
    end
    else begin
      let sub = build_active () in
      (* Restart every inner solve from the caller's init: re-seeding
         from the previous round's solution lets an early,
         under-constrained round (priors only) collapse derived atoms
         and strand later rounds in a poor basin. *)
      let assignment, round_status = solver sub ~init in
      iterate assignment (Deadline.worst status round_status) (iteration + 1)
    end
  in
  let first, first_status = solver (build_active ()) ~init in
  let assignment, status, iterations = iterate first first_status 1 in
  let active_clauses = !num_active in
  Obs.count ~n:iterations "cpi.iterations";
  Obs.count ~n:active_clauses "cpi.active_clauses";
  Obs.count ~n:total "cpi.total_clauses";
  ( assignment,
    { iterations; active_clauses; total_clauses = total; status } )
