module Deadline = Prelude.Deadline

type engine =
  | Mln of Mln.Map_inference.options
  | Psl of Psl.Npsl.options
  | Auto

type run_stats = {
  engine_used : Translator.engine_choice;
  atoms : int;
  ground_ms : float;
  solve_ms : float;
  total_ms : float;
  hard_violations : int;
  objective : float;
  status : Deadline.status;
}

type raw = {
  store : Grounder.Atom_store.t;
  instances : Grounder.Ground.instances;
  assignment : bool array;
}

type result = {
  resolution : Conflict.resolution;
  report : Translator.report;
  stats : run_stats;
  raw : raw;
}

exception Rejected of Translator.report

exception Ground_timed_out of Translator.report

(* ------------------------------------------------------------------ *)
(* Incremental state                                                   *)
(* ------------------------------------------------------------------ *)

type delta = {
  facts : Logic.Atom.Ground.t list;
      (** ground atoms of the facts asserted or retracted since the
          last resolve (θ of each edited quad) *)
  rules_changed : bool;
}

type cache_outcome =
  | Hit          (** empty delta: previous result returned as-is *)
  | Replay       (** delta grounding replayed, solver caches consulted *)
  | Miss         (** no usable state yet: fresh resolve, state recorded *)
  | Invalidate   (** rules or options changed: caches dropped, fresh *)
  | Bypass       (** finite deadline: incremental machinery skipped *)
  | Fallback     (** replay failed mid-flight: fresh resolve instead *)
  | Fresh_run    (** caller asked for [`Fresh]; state still recorded *)

let choice_name = function
  | Translator.Mln_engine -> "mln"
  | Translator.Psl_engine -> "psl"

let outcome_name = function
  | Hit -> "hit"
  | Replay -> "replay"
  | Miss -> "miss"
  | Invalidate -> "invalidate"
  | Bypass -> "bypass"
  | Fallback -> "fallback"
  | Fresh_run -> "fresh"

(* A state only replays against the exact configuration that produced
   it: the resolved engine (its options are plain data) and the
   threshold. *)
type state = {
  mutable snapshot : Grounder.Ground.snapshot option;
  mutable config : (engine * float option) option;
  mutable last : result option;
  mln_cache : Mln.Decompose.cache;
  psl_cache : Psl.Decompose.cache;
  mutable outcome : cache_outcome option;
}

let create_state () =
  {
    snapshot = None;
    config = None;
    last = None;
    mln_cache = Components.create_cache ();
    psl_cache = Components.create_cache ();
    outcome = None;
  }

let clear_solve_caches st =
  Components.clear_cache st.mln_cache;
  Components.clear_cache st.psl_cache

let invalidate st =
  st.snapshot <- None;
  st.config <- None;
  st.last <- None;
  clear_solve_caches st

let last_outcome st = st.outcome

type cache_stats = {
  solve_entries : int;
  solve_hits : int;
  solve_misses : int;
}

let cache_stats st =
  let m = Components.cache_stats st.mln_cache in
  let p = Components.cache_stats st.psl_cache in
  {
    solve_entries = m.Components.entries + p.Components.entries;
    solve_hits = m.Components.hits + p.Components.hits;
    solve_misses = m.Components.misses + p.Components.misses;
  }

(* Append the structured partial-grounding note to the translator report
   carried by {!Ground_timed_out}: how far the closure got, and why the
   partial state cannot be used. *)
let ground_timeout_report (report : Translator.report) ~atoms ~rounds =
  let note =
    {
      Translator.severity = Translator.Error;
      rule = None;
      message =
        Printf.sprintf
          "grounding timed out after %d closure round%s (%d atoms \
           interned); a partially saturated store would silently drop \
           constraints, so no best-effort answer exists for this stage \
           — raise --timeout or use --on-timeout best-effort to budget \
           only the solver"
          rounds
          (if rounds = 1 then "" else "s")
          atoms;
    }
  in
  { report with Translator.notes = report.Translator.notes @ [ note ]; ok = false }

let resolve ?(engine = Auto) ?jobs ?threshold ?(deadline = Deadline.none)
    ?(on_timeout = `Best_effort) ?(mode = `Fresh) ?state ?delta graph rules =
  Obs.span "resolve" @@ fun () ->
  let report = Obs.span "translate" (fun () -> Translator.analyse graph rules) in
  if not report.Translator.ok then raise (Rejected report);
  (* Under [`Fail] grounding polls the real deadline and the whole run is
     rejected on expiry (raising {!Ground_timed_out}); under
     [`Best_effort] grounding must complete — a partial grounding has no
     sound interpretation — and the budget disciplines only the solver,
     which can be cut anywhere and still return its best incumbent. *)
  let ground_deadline =
    match on_timeout with `Fail -> deadline | `Best_effort -> Deadline.none
  in
  let engine =
    match engine with
    | Auto -> (
        match report.Translator.recommended with
        | Translator.Mln_engine -> Mln Mln.Map_inference.default_options
        | Translator.Psl_engine -> Psl Psl.Npsl.default_options)
    | e -> e
  in
  (* [jobs] defaults to the environment ([TECORE_JOBS], else 1). A pool
     is created only when more than one job is requested; only the
     grounding joins use it. *)
  let jobs =
    match jobs with Some j -> j | None -> Prelude.Pool.default_jobs ()
  in
  let pool = if jobs = 1 then None else Some (Prelude.Pool.create ~jobs) in
  Obs.event "engine.selected"
    [
      ( "engine",
        Obs.Events.Str
          (match engine with
          | Mln _ -> "mln"
          | Psl _ -> "psl"
          | Auto -> "auto") );
      ("jobs", Obs.Events.Int jobs);
    ];
  (* Pool scheduling counters must be captured on every exit — a
     rejected grounding used the pool too, and the Obs report of a
     failed run is exactly where those numbers matter. *)
  let emit_pool_stats () =
    match pool with
    | None -> ()
    | Some pool ->
        let s = Prelude.Pool.stats pool in
        Obs.count ~n:s.Prelude.Pool.calls "pool.calls";
        Obs.count ~n:s.Prelude.Pool.tasks "pool.tasks";
        Obs.add "pool.busy_ms" s.Prelude.Pool.busy_ms;
        Obs.add "pool.wall_ms" s.Prelude.Pool.wall_ms;
        if s.Prelude.Pool.wall_ms > 0.0 then
          Obs.gauge "pool.speedup"
            (s.Prelude.Pool.busy_ms /. s.Prelude.Pool.wall_ms)
  in
  Fun.protect ~finally:emit_pool_stats @@ fun () ->
  (* A finite deadline makes cached reuse unsound (a budgeted solve is
     not a pure function of the problem), so the state steps aside
     entirely. *)
  let state =
    match state with
    | Some st when Deadline.is_finite deadline ->
        if mode = `Incremental then begin
          st.outcome <- Some Bypass;
          Obs.count "incr.bypass"
        end;
        None
    | state -> state
  in
  (* The one grounding step, constraints always pushed into the joins.
     θ(G) is built inside the span, so [ground_ms] covers the atom store
     as well as the closure and the instance joins. Without a state
     this is the plain [Ground.run], the only grounding that polls a
     deadline; with one, [run_record] also keeps the replay snapshot,
     and [reground] replays one. [None] means the replay could not be
     proven exact. *)
  let ground ?replay () =
    let grounding, ground_ms =
      Prelude.Timing.time (fun () ->
          (* Only the grounding joins run on the pool; its idle workers
             would slow every minor collection of the solve. *)
          Fun.protect ~finally:(fun () ->
              if pool <> None then Prelude.Pool.release ())
          @@ fun () ->
          Obs.span "ground" (fun () ->
              let store = Grounder.Atom_store.of_graph graph in
              match (state, replay) with
              | None, _ ->
                  Some
                    ( store,
                      Grounder.Ground.run ~deadline:ground_deadline
                        ?pool ~lazy_constraints:true store rules,
                      None )
              | Some _, None ->
                  let g, snap =
                    Grounder.Ground.run_record ?pool store rules
                  in
                  Some (store, g, Some snap)
              | Some _, Some (snapshot, affected) ->
                  Grounder.Ground.reground ~snapshot ~affected
                    ?pool store rules
                  |> Option.map (fun (g, snap) -> (store, g, Some snap))))
    in
    Option.map (fun (store, g, snap) -> (store, g, snap, ground_ms)) grounding
  in
  let fresh_ground () =
    match ground () with
    | Some g -> g
    | None -> assert false
    | exception Grounder.Ground.Timed_out { atoms; rounds } ->
        Obs.event ~level:Obs.Events.Error "ground.timed_out"
          [
            ("atoms", Obs.Events.Int atoms); ("rounds", Obs.Events.Int rounds);
          ];
        Obs.count "deadline.expired";
        Obs.gauge "deadline.budget_ms" (Deadline.budget_ms deadline);
        raise (Ground_timed_out (ground_timeout_report report ~atoms ~rounds))
  in
  (* With a state: decide from the configuration, the mode and the delta
     whether to reuse the last result, replay the snapshot or ground
     afresh, and record how the caches were used. *)
  let plan st =
    let config = Some (engine, threshold) in
    let config_ok = st.config = config in
    let had_config = st.config <> None in
    if not config_ok then invalidate st;
    st.config <- config;
    let d =
      match delta with
      | Some d -> d
      | None -> { facts = []; rules_changed = true }
    in
    let replay snapshot =
      (* The [incr_timeout] fault point simulates a failure in the middle
         of the incremental machinery; the handler below must recover
         with a correct fresh resolve, never a stale cache. *)
      Prelude.Deadline.Faults.inject "incr_timeout"
        ~index:(Prelude.Deadline.Faults.arg "incr_timeout");
      let delta_preds =
        List.sort_uniq String.compare
          (List.map
             (fun (a : Logic.Atom.Ground.t) -> a.Logic.Atom.Ground.predicate)
             d.facts)
      in
      let affected = Grounder.Ground.affected_rules ~delta:delta_preds rules in
      let rejoined = List.length (List.filter affected rules) in
      Obs.count ~n:rejoined "incr.rejoined_rules";
      Obs.count ~n:(List.length rules - rejoined) "incr.replayed_rules";
      ground ~replay:(snapshot, affected) ()
    in
    let fall_back () =
      Obs.count "incr.fallback_events";
      st.snapshot <- None;
      st.last <- None;
      clear_solve_caches st;
      (`Ground (fresh_ground ()), Fallback)
    in
    let grounding, outcome =
      match mode with
      | `Fresh -> (`Ground (fresh_ground ()), Fresh_run)
      | `Incremental ->
          if (not config_ok) || d.rules_changed || st.snapshot = None then begin
            (* Rule edits invalidate everything: the snapshot replays a
               specific rule list, and stale clauses from a removed rule
               must never survive in any cache. *)
            if d.rules_changed then invalidate st;
            st.config <- config;
            let oc =
              if had_config && ((not config_ok) || d.rules_changed) then
                Invalidate
              else Miss
            in
            (`Ground (fresh_ground ()), oc)
          end
          else
            match (st.last, d.facts) with
            | Some last, [] -> (`Cached last, Hit)
            | _ -> (
                match replay (Option.get st.snapshot) with
                | Some g -> (`Ground g, Replay)
                | None -> fall_back ()
                | exception e ->
                    Obs.event ~level:Obs.Events.Warn "incr.fault"
                      [ ("exn", Obs.Events.Str (Printexc.to_string e)) ];
                    fall_back ())
    in
    st.outcome <- Some outcome;
    Obs.count ("incr." ^ outcome_name outcome);
    Obs.event "incr.resolve"
      [
        ( "mode",
          Obs.Events.Str
            (match mode with `Fresh -> "fresh" | `Incremental -> "incremental")
        );
        ("outcome", Obs.Events.Str (outcome_name outcome));
        ("delta_facts", Obs.Events.Int (List.length d.facts));
      ];
    grounding
  in
  (* Solve and interpret one grounding. Only a state lends the solver
     its component cache. *)
  let solve_and_interpret (store, ground_result, snap, ground_ms) =
    if Deadline.is_finite deadline then
      Obs.gauge "deadline.ground_slack_ms" (Deadline.remaining_ms deadline);
    let run () =
      let engine_used, assignment, atoms, solve_ms, hard_violations, objective,
          status =
        match engine with
        | Auto -> assert false
        | Mln options ->
            let cache = Option.map (fun st -> st.mln_cache) state in
            let out =
              Mln.Map_inference.run_ground ~options ~deadline ?cache
                store ground_result ~ground_ms
            in
            let s = out.Mln.Map_inference.stats in
            ( Translator.Mln_engine,
              out.Mln.Map_inference.assignment,
              s.Mln.Map_inference.atoms,
              s.Mln.Map_inference.solve_ms,
              s.Mln.Map_inference.hard_violations,
              s.Mln.Map_inference.objective,
              s.Mln.Map_inference.status )
        | Psl options ->
            let cache = Option.map (fun st -> st.psl_cache) state in
            let out =
              Psl.Npsl.run_ground ~options ~deadline ?cache store ground_result
                ~ground_ms
            in
            let s = out.Psl.Npsl.stats in
            ( Translator.Psl_engine,
              out.Psl.Npsl.assignment,
              s.Psl.Npsl.atoms,
              s.Psl.Npsl.solve_ms,
              s.Psl.Npsl.rounding.Psl.Rounding.unrepaired,
              s.Psl.Npsl.admm.Psl.Admm.objective,
              s.Psl.Npsl.status )
      in
      let instances = ground_result.Grounder.Ground.instances in
      let resolution =
        Obs.span "interpret" (fun () ->
            Conflict.interpret ~graph ~store ~instances ~assignment ())
      in
      ( resolution,
        { store; instances; assignment },
        {
          engine_used;
          atoms;
          ground_ms;
          solve_ms;
          total_ms = ground_ms;
          hard_violations;
          objective;
          status;
        } )
    in
    let (resolution, raw, stats), rest_ms = Prelude.Timing.time run in
    let stats = { stats with total_ms = ground_ms +. rest_ms } in
    let status = stats.status in
    (* Deadline telemetry is emitted only for finite budgets so that runs
       without [--timeout] produce byte-identical reports to earlier
       releases. *)
    if Deadline.is_finite deadline then begin
      if status <> Deadline.Completed then
        Obs.event ~level:Obs.Events.Warn "deadline.expired"
          [
            ("budget_ms", Obs.Events.Float (Deadline.budget_ms deadline));
            ( "status",
              Obs.Events.Str (Format.asprintf "%a" Deadline.pp_status status) );
          ];
      Obs.count ~n:(if status = Deadline.Completed then 0 else 1)
        "deadline.expired";
      Obs.gauge "deadline.budget_ms" (Deadline.budget_ms deadline);
      Obs.gauge "deadline.slack_ms" (Deadline.remaining_ms deadline)
    end;
    let resolution =
      match threshold with
      | None -> resolution
      | Some t -> Conflict.apply_threshold t resolution
    in
    let result = { resolution; report; stats; raw } in
    Option.iter
      (fun st ->
        st.snapshot <- snap;
        st.last <- (if status = Deadline.Completed then Some result else None))
      state;
    result
  in
  let grounding =
    match state with None -> `Ground (fresh_ground ()) | Some st -> plan st
  in
  match grounding with
  | `Cached result -> result
  | `Ground g -> solve_and_interpret g

let pp_result ppf r =
  Format.fprintf ppf "@[<v>engine: %s@ %a@ runtime: %.1f ms (ground %.1f, solve %.1f)@]"
    (match r.stats.engine_used with
    | Translator.Mln_engine -> "MLN (nRockIt path)"
    | Translator.Psl_engine -> "nPSL")
    Conflict.pp_summary r.resolution r.stats.total_ms r.stats.ground_ms
    r.stats.solve_ms;
  (* Printed only for budget-limited runs: with no deadline the status
     is always [Completed] and the output stays identical to earlier
     releases. *)
  if r.stats.status <> Deadline.Completed then
    Format.fprintf ppf "@.status: %a (best-effort result)" Deadline.pp_status
      r.stats.status
