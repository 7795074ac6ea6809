module Prng = Prelude.Prng
module Pool = Prelude.Pool
module Deadline = Prelude.Deadline

type result = {
  marginals : float array;
  samples : int;
  recorded : int;
  rejected : int;
  chains : int;
  status : Deadline.status;
}

(* The clauses [m] of [network], in the given order, all hard. *)
let hardened (network : Network.t) m =
  let sub = Network.sub ~num_atoms:network.num_atoms network m in
  let nc = Array.length m in
  { sub with hard = Array.make nc true; weights = Array.make nc 0.0 }

(* Draw a (near-)uniform satisfying assignment of the clause subset [m]
   with randomized WalkSAT from a random initial state: high noise gives
   the chain enough entropy to act as a SampleSAT stand-in. Returns None
   when the flip budget is exhausted. *)
let sample_sat rng network m sample_flips state =
  let selected = hardened network m in
  (* Random restart point: perturb the current state a little rather than
     fully randomize, which keeps acceptance high while still moving. *)
  let start = Array.copy state in
  Array.iteri
    (fun v _ -> if Prng.bernoulli rng 0.2 then start.(v) <- not start.(v))
    start;
  let assignment, stats =
    Maxwalksat.solve
      ~seed:(Prng.int rng 1_000_000)
      ~max_flips:sample_flips ~restarts:2 ~noise:0.5 ~init:start selected
  in
  (* All selected clauses are treated as hard by the caller's contract:
     they entered [m] as "must stay satisfied". *)
  if
    stats.Maxwalksat.hard_violated = 0
    && Network.hard_violations selected assignment = 0
  then begin
    (* WalkSAT halts at the first solution it reaches, which biases
       toward solutions near the start. De-bias with a Metropolis walk
       inside the solution space: flip a random variable, keep the flip
       only if every selected clause still holds — a symmetric chain
       whose stationary distribution is uniform over solutions. *)
    let n = Array.length assignment in
    let occ_start, occ = Network.occurrences selected in
    let x = Array.copy assignment in
    for _ = 1 to 6 * n do
      let v = Prng.int rng n in
      x.(v) <- not x.(v);
      let rec still_ok o =
        o >= occ_start.(v + 1)
        || (Network.clause_satisfied selected occ.(o) x && still_ok (o + 1))
      in
      if not (still_ok occ_start.(v)) then x.(v) <- not x.(v)
    done;
    Some x
  end
  else None

(* The indices of the clauses whose hard flag is [flag], in order. *)
let clauses_where (network : Network.t) flag =
  List.filter
    (fun ci -> network.hard.(ci) = flag)
    (List.init (Network.num_clauses network) Fun.id)

let run ?(seed = 7) ?(burn_in = 100) ?(samples = 1_000)
    ?(sample_flips = 10_000) ?init ?(chains = 1) ?(deadline = Deadline.none)
    (network : Network.t) =
  if chains < 1 then invalid_arg "Mcsat.run: chains must be >= 1";
  let n = network.num_atoms in
  let hard = Array.of_list (clauses_where network true) in
  let soft = clauses_where network false in
  (* Initial state: satisfy the hard clauses. Computed once (it depends
     only on [seed] and [init]) and copied into every chain. *)
  let initial =
    let candidate =
      match init with Some a -> Array.copy a | None -> Array.make n false
    in
    if Network.hard_violations network candidate = 0 then candidate
    else begin
      let hard_only = hardened network hard in
      let a, stats = Maxwalksat.solve ~seed ~init:candidate hard_only in
      if stats.Maxwalksat.hard_violated > 0 then
        invalid_arg "Mcsat.run: hard clauses are unsatisfiable";
      a
    end
  in
  (* One independent chain. Chain 0 keeps the caller's seed (identical
     to the single-chain sampler); chain [k] derives its own stream, so
     the merged marginals depend only on [chains] and [seed], never on
     how the chains are scheduled. *)
  let observing = Obs.enabled () in
  let run_chain k =
    if k > 0 then Deadline.Faults.inject "worker_crash" ~index:k;
    let chain_seed = if k = 0 then seed else Prng.subseed seed k in
    let rng = Prng.create chain_seed in
    let state = ref (Array.copy initial) in
    let counts = Array.make n 0 in
    let rejected = ref 0 in
    let recorded = ref 0 in
    let halted = ref false in
    (* Progress trail for the convergence timeline: (absolute ms,
       samples recorded since the previous entry), noted every 8
       recorded slice-sampling steps plus once at the end. *)
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
    let step record =
      (* Slice selection: hard clauses always; satisfied soft clauses with
         probability 1 - exp(-w). *)
      let m =
        Array.append hard
          (Array.of_list
             (List.filter
                (fun ci ->
                  Network.clause_satisfied network ci !state
                  && Prng.bernoulli rng (1.0 -. exp (-.network.weights.(ci))))
                soft))
      in
      (match sample_sat rng network m sample_flips !state with
      | Some next -> state := next
      | None -> incr rejected);
      if record then begin
        incr recorded;
        Array.iteri
          (fun v value -> if value then counts.(v) <- counts.(v) + 1)
          !state;
        if !recorded land 7 = 0 then note ()
      end
    in
    (* A slice-sampling step is the polling granularity: a step runs a
       bounded inner WalkSAT solve, so expiry is noticed within one
       [sample_flips] budget. Interrupted chains report the samples they
       actually recorded. *)
    let budgeted_step record =
      if !halted || Deadline.expired deadline then halted := true
      else step record
    in
    for _ = 1 to burn_in do
      budgeted_step false
    done;
    for _ = 1 to samples do
      budgeted_step true
    done;
    note ();
    (counts, !rejected, !recorded, List.rev !trail)
  in
  let results =
    Pool.map_results ~deadline Pool.sequential run_chain
      (List.init chains Fun.id)
  in
  let per_chain = List.filter_map Result.to_option results in
  let crashed =
    List.exists
      (function Error Deadline.Expired | Ok _ -> false | Error _ -> true)
      results
  in
  let totals = Array.make n 0 in
  let rejected =
    List.fold_left
      (fun acc (counts, rej, _, _) ->
        for v = 0 to n - 1 do
          totals.(v) <- totals.(v) + counts.(v)
        done;
        acc + rej)
      0 per_chain
  in
  let recorded =
    List.fold_left (fun acc (_, _, r, _) -> acc + r) 0 per_chain
  in
  Obs.count ~n:recorded "mcsat.samples";
  Obs.count ~n:rejected "mcsat.rejected";
  Obs.count ~n:chains "mcsat.chains";
  if observing then begin
    (* Cumulative recorded samples over time, merged across chains. *)
    let deltas =
      List.concat_map (fun (_, _, _, trail) -> trail) per_chain
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
           Obs.sample "mcsat.convergence" ~t_ms:t ~v:acc;
           acc)
         0.0 deltas);
    List.iteri
      (fun k r ->
        match r with
        | Ok (_, chain_rejected, chain_recorded, _) ->
            Obs.event ~level:Obs.Events.Debug "mcsat.chain"
              [
                ("chain", Obs.Events.Int k);
                ("recorded", Obs.Events.Int chain_recorded);
                ("rejected", Obs.Events.Int chain_rejected);
              ]
        | Error Deadline.Expired ->
            Obs.event ~level:Obs.Events.Warn "mcsat.chain_expired"
              [ ("chain", Obs.Events.Int k) ]
        | Error e ->
            Obs.event ~level:Obs.Events.Warn "mcsat.chain_crashed"
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
      (* Nothing sampled: the hard-consistent initial state is the best
         available answer — report its point mass. *)
      Array.map (fun b -> if b then 1.0 else 0.0) initial
    else
      let denom = float_of_int recorded in
      Array.map (fun c -> float_of_int c /. denom) totals
  in
  { marginals; samples; recorded; rejected; chains; status }
