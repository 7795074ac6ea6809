module Prng = Prelude.Prng
module Pool = Prelude.Pool
module Deadline = Prelude.Deadline

type result = {
  marginals : float array;
  samples : int;
  recorded : int;
  burn_in : int;
  chains : int;
  status : Deadline.status;
}

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

let run ?(seed = 7) ?(burn_in = 1_000) ?(samples = 5_000)
    ?(hard_weight = 2.0 *. Kg.Quad.max_weight) ?init ?(chains = 1)
    ?(deadline = Deadline.none) (network : Network.t) =
  if chains < 1 then invalid_arg "Gibbs.run: chains must be >= 1";
  let n = network.num_atoms in
  let base =
    match init with Some a -> Array.copy a | None -> Array.make n false
  in
  (* The occurrence index depends only on the network: build once,
     share read-only across chains. *)
  let occ_start, occ = Network.occurrences network in
  let weight ci =
    if network.hard.(ci) then hard_weight else network.weights.(ci)
  in
  (* Energy difference of clauses containing [v] between x_v=1 and
     x_v=0, with the rest of the chain state fixed. *)
  let delta state v =
    let acc = ref 0.0 in
    for o = occ_start.(v) to occ_start.(v + 1) - 1 do
      let ci = occ.(o) in
      let sat1 = Network.satisfied_if network ci state ~atom:v true in
      let sat0 = Network.satisfied_if network ci state ~atom:v false in
      if sat1 <> sat0 then
        acc := if sat1 then !acc +. weight ci else !acc -. weight ci
    done;
    !acc
  in
  (* One independent chain: own state, own PRNG stream. Chain 0 keeps
     the caller's seed (identical to the single-chain behaviour);
     further chains derive theirs, so the chain set — and the merged
     marginals — are fixed by [chains] and [seed] alone. *)
  (* A chain is an anytime estimator: it records as many sample sweeps
     as the deadline allows and reports how many it kept, so the merged
     marginals always divide by the number of sweeps actually counted —
     never by the nominal [samples]. Polling happens between sweeps (a
     sweep touches every atom; mid-sweep states are not sample points). *)
  let observing = Obs.enabled () in
  let run_chain k =
    if k > 0 then Deadline.Faults.inject "worker_crash" ~index:k;
    let chain_seed = if k = 0 then seed else Prng.subseed seed k in
    let rng = Prng.create chain_seed in
    let state = Array.copy base in
    let sweep () =
      for v = 0 to n - 1 do
        state.(v) <- Prng.bernoulli rng (sigmoid (delta state v))
      done
    in
    let sweeps = ref 0 in
    let halted = ref false in
    let budgeted_sweep () =
      if !halted || Deadline.expired deadline then halted := true
      else begin
        sweep ();
        incr sweeps
      end
    in
    for _ = 1 to burn_in do
      budgeted_sweep ()
    done;
    let counts = Array.make n 0 in
    let recorded = ref 0 in
    (* Progress trail for the convergence timeline: (absolute ms,
       sweeps recorded since the previous entry), sampled every 16
       recorded sweeps plus once at the end. Collected newest first,
       merged across chains by the coordinator. *)
    let trail = ref [] in
    let last_noted = ref 0 in
    let note () =
      if observing && !recorded > !last_noted then begin
        trail :=
          (Prelude.Timing.now_ms (), float_of_int (!recorded - !last_noted))
          :: !trail;
        last_noted := !recorded
      end
    in
    for _ = 1 to samples do
      budgeted_sweep ();
      if not !halted then begin
        incr recorded;
        for v = 0 to n - 1 do
          if state.(v) then counts.(v) <- counts.(v) + 1
        done;
        if !recorded land 15 = 0 then note ()
      end
    done;
    note ();
    (counts, !recorded, !sweeps, List.rev !trail)
  in
  let results =
    Pool.map_results ~deadline Pool.sequential run_chain
      (List.init chains Fun.id)
  in
  let completed = List.filter_map Result.to_option results in
  let crashed =
    List.exists
      (function Error Deadline.Expired | Ok _ -> false | Error _ -> true)
      results
  in
  let totals = Array.make n 0 in
  List.iter
    (fun (counts, _, _, _) ->
      for v = 0 to n - 1 do
        totals.(v) <- totals.(v) + counts.(v)
      done)
    completed;
  let recorded =
    List.fold_left (fun acc (_, r, _, _) -> acc + r) 0 completed
  in
  let sweeps =
    List.fold_left (fun acc (_, _, s, _) -> acc + s) 0 completed
  in
  Obs.count ~n:sweeps "gibbs.sweeps";
  Obs.count ~n:recorded "gibbs.samples";
  Obs.count ~n:chains "gibbs.chains";
  if observing then begin
    (* Cumulative recorded sweeps over time, merged across chains. *)
    let deltas =
      List.concat_map (fun (_, _, _, trail) -> trail) completed
      |> List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
    in
    let deltas =
      match deltas with
      | [] -> [ (Prelude.Timing.now_ms (), float_of_int recorded) ]
      | _ -> deltas
    in
    ignore
      (List.fold_left
         (fun acc (t, d) ->
           let acc = acc +. d in
           Obs.sample "gibbs.convergence" ~t_ms:t ~v:acc;
           acc)
         0.0 deltas);
    List.iteri
      (fun k r ->
        match r with
        | Ok (_, chain_recorded, chain_sweeps, _) ->
            Obs.event ~level:Obs.Events.Debug "gibbs.chain"
              [
                ("chain", Obs.Events.Int k);
                ("sweeps", Obs.Events.Int chain_sweeps);
                ("recorded", Obs.Events.Int chain_recorded);
              ]
        | Error Deadline.Expired ->
            Obs.event ~level:Obs.Events.Warn "gibbs.chain_expired"
              [ ("chain", Obs.Events.Int k) ]
        | Error e ->
            Obs.event ~level:Obs.Events.Warn "gibbs.chain_crashed"
              [
                ("chain", Obs.Events.Int k);
                ("error", Obs.Events.Str (Printexc.to_string e));
              ])
      results
  end;
  let status =
    if crashed || recorded = 0 then Deadline.Degraded
    else if Deadline.expired deadline || recorded < chains * samples then
      Deadline.Timed_out
    else Deadline.Completed
  in
  let marginals =
    if recorded = 0 then
      (* Nothing was sampled (already-expired deadline, or every chain
         crashed): degenerate to the point mass of the start state. *)
      Array.map (fun b -> if b then 1.0 else 0.0) base
    else
      let denom = float_of_int recorded in
      Array.map (fun c -> float_of_int c /. denom) totals
  in
  { marginals; samples; recorded; burn_in; chains; status }
