module Prng = Prelude.Prng
module Pool = Prelude.Pool
module Deadline = Prelude.Deadline

type stats = {
  flips : int;
  restarts_used : int;
  hard_violated : int;
  soft_cost : float;
  crashed : bool;
  status : Deadline.status;
}

(* The network's packed clauses plus the occurrence index, built once
   per solve and shared read-only by every descent (and every domain):
   atom [a]'s occurrences are [occ.(occ_start.(a)) .. occ.(occ_start.(a
   + 1) - 1)], one entry per literal, in descending clause order. That
   is exactly the order the list-based kernel prepended its occurrence
   lists in, and [flip] and [delta] visit clauses in this order — the
   soft-cost float sums, and hence every tie-break downstream, depend
   on it. The clause arrays are the network's own, not copies. *)
type packed = {
  num_atoms : int;
  num_clauses : int;
  lits : int array;
  offsets : int array;
  weights : float array;
  hard : bool array;
  occ_start : int array;
  occ : int array;
}

let view (network : Network.t) =
  let occ_start, occ = Network.occurrences network in
  {
    num_atoms = network.num_atoms;
    num_clauses = Network.num_clauses network;
    lits = network.lits;
    offsets = network.offsets;
    weights = network.weights;
    hard = network.hard;
    occ_start;
    occ;
  }

let[@inline] literal_true assignment code =
  let v = assignment.(code lsr 1) in
  if code land 1 = 1 then v else not v

(* One dense set of clause indices with O(1) insert/remove. *)
type clause_set = {
  items : int array;
  pos : int array; (* clause -> position or -1 *)
  mutable len : int;
}

let set_create n =
  { items = Array.make (max 1 n) 0; pos = Array.make (max 1 n) (-1); len = 0 }

let set_add s ci =
  if s.pos.(ci) = -1 then begin
    s.items.(s.len) <- ci;
    s.pos.(ci) <- s.len;
    s.len <- s.len + 1
  end

let set_remove s ci =
  let p = s.pos.(ci) in
  if p <> -1 then begin
    let last = s.len - 1 in
    let moved = s.items.(last) in
    s.items.(p) <- moved;
    s.pos.(moved) <- p;
    s.len <- last;
    s.pos.(ci) <- -1
  end

let set_clear s =
  for p = 0 to s.len - 1 do
    s.pos.(s.items.(p)) <- -1
  done;
  s.len <- 0

(* The float side of a descent. An all-float record stores its fields
   unboxed, so updating them never allocates (a mutable float in a
   mixed record would box on every write). *)
type floats = {
  mutable soft_cost : float; (* running violated soft weight *)
  mutable dsoft : float; (* soft part of the last [delta] *)
}

(* Mutable solver state: per-clause count of true literals, violated hard
   and soft clauses tracked separately (hard violations are repaired with
   priority), and the running (hard, soft) cost. *)
type state = {
  p : packed;
  assignment : bool array;
  true_counts : int array;
  unsat_hard : clause_set;
  unsat_soft : clause_set;
  f : floats;
}

let mark_unsat st ci =
  if st.p.hard.(ci) then set_add st.unsat_hard ci
  else begin
    if st.unsat_soft.pos.(ci) = -1 then
      st.f.soft_cost <- st.f.soft_cost +. st.p.weights.(ci);
    set_add st.unsat_soft ci
  end

let mark_sat st ci =
  if st.p.hard.(ci) then set_remove st.unsat_hard ci
  else begin
    if st.unsat_soft.pos.(ci) <> -1 then
      st.f.soft_cost <- st.f.soft_cost -. st.p.weights.(ci);
    set_remove st.unsat_soft ci
  end

let make_state p =
  {
    p;
    assignment = Array.make (max 1 p.num_atoms) false;
    true_counts = Array.make (max 1 p.num_clauses) 0;
    unsat_hard = set_create p.num_clauses;
    unsat_soft = set_create p.num_clauses;
    f = { soft_cost = 0.0; dsoft = 0.0 };
  }

let count_true p assignment ci =
  let count = ref 0 in
  for j = p.offsets.(ci) to p.offsets.(ci + 1) - 1 do
    if literal_true assignment p.lits.(j) then incr count
  done;
  !count

(* (Re)initialise the state at [start] without reallocating: restarts
   reuse the arrays and the shared packed view. *)
let reset_state st start =
  Array.blit start 0 st.assignment 0 (Array.length start);
  set_clear st.unsat_hard;
  set_clear st.unsat_soft;
  st.f.soft_cost <- 0.0;
  for ci = 0 to st.p.num_clauses - 1 do
    let count = count_true st.p st.assignment ci in
    st.true_counts.(ci) <- count;
    if count = 0 then mark_unsat st ci
  done

(* Every literal of every occurrence is matched against [v], so a clause
   repeating [v] is adjusted once per (occurrence, literal) pair — the
   list-based kernel's exact update sequence. *)
let flip st v =
  let p = st.p in
  let old_value = st.assignment.(v) in
  st.assignment.(v) <- not old_value;
  for o = p.occ_start.(v) to p.occ_start.(v + 1) - 1 do
    let ci = p.occ.(o) in
    for j = p.offsets.(ci) to p.offsets.(ci + 1) - 1 do
      let code = p.lits.(j) in
      if code lsr 1 = v then
        if (code land 1 = 1) = old_value then begin
          let count = st.true_counts.(ci) - 1 in
          st.true_counts.(ci) <- count;
          if count = 0 then mark_unsat st ci
        end
        else begin
          let count = st.true_counts.(ci) + 1 in
          st.true_counts.(ci) <- count;
          if count = 1 then mark_sat st ci
        end
    done
  done

(* Does clause literal [j .. stop - 1] carry [v] with truth value
   [value]? *)
let rec carries p assignment v value j stop =
  j < stop
  && ((p.lits.(j) lsr 1 = v && literal_true assignment p.lits.(j) = value)
     || carries p assignment v value (j + 1) stop)

(* Cost change of flipping [v], by break/make counting: returns the hard
   change and leaves the soft change in [st.f.dsoft]. *)
let delta st v =
  let p = st.p in
  let dhard = ref 0 and dsoft = ref 0.0 in
  for o = p.occ_start.(v) to p.occ_start.(v + 1) - 1 do
    let ci = p.occ.(o) in
    let lo = p.offsets.(ci) and hi = p.offsets.(ci + 1) in
    let sign =
      match st.true_counts.(ci) with
      | 1 ->
          (* Breaks iff the single true literal is carried by [v]. *)
          if carries p st.assignment v true lo hi then 1 else 0
      | 0 ->
          (* Makes iff [v] carries a literal that becomes true. *)
          if carries p st.assignment v false lo hi then -1 else 0
      | _ -> 0
    in
    if sign <> 0 then
      if p.hard.(ci) then dhard := !dhard + sign
      else dsoft := !dsoft +. (p.weights.(ci) *. float_of_int sign)
  done;
  st.f.dsoft <- !dsoft;
  !dhard

(* Lexicographic (hard, soft) order, soft within a 1e-12 tolerance.
   Inlined, so the flip loop compares unboxed floats. *)
let[@inline] lower h1 s1 h2 s2 = h1 < h2 || (h1 = h2 && s1 < s2 -. 1e-12)

let better (h1, s1) (h2, s2) = lower h1 s1 h2 s2

(* Has a cost reached [target], the network's optimal soft cost? A
   descent or portfolio holding such a cost can never be improved by
   [lower] (it needs a gain above 1e-12), so searching on only burns
   flips. The tolerance is half [lower]'s: it absorbs the float
   rounding between two summation orders of the same optimum. With no
   proven optimum the target is 0.0 and this is the classic (0, 0)
   stop. *)
let[@inline] reached target h s = h = 0 && Float.abs (s -. target) <= 5e-13

(* Exact cost of [assignment], summing violated soft weight in clause
   order. The in-descent soft cost is incremental and drifts by float
   rounding ((s +. w) -. w need not equal s), so attempts are compared
   on this recomputation: the reported cost — and hence the portfolio
   winner — is a pure function of the assignment, not of the add/remove
   history, which keeps the winner identical at every job count. *)
let evaluate p assignment =
  let hard = ref 0 and soft = ref 0.0 in
  for ci = 0 to p.num_clauses - 1 do
    if count_true p assignment ci = 0 then
      if p.hard.(ci) then incr hard else soft := !soft +. p.weights.(ci)
  done;
  (!hard, !soft)

(* Networks of at most this many atoms get their optimum proven by
   {!Exact} before the walk: 2^16 leaves stay well inside its node
   budget, and FootballDB's components are nearly all this small. *)
let exact_atoms = 16

(* The soft cost of the network's proven optimum, or [None] when none
   is computed: too many atoms, no soft clause (the optimum is (0, 0)
   whenever the hard clauses are satisfiable) or an expired deadline
   (no search runs at all; a live deadline gets the same proof, and so
   the same flips, as none). Exact's assignment itself is
   never returned — among several optima it may pick another one than
   the walk — only its cost, scored like every attempt. Until the
   deadline expires, a function of the network alone, so component
   solves stay pure. *)
let optimum network p ~deadline =
  if
    p.num_atoms > exact_atoms
    || Array.for_all Fun.id p.hard
    || Deadline.expired deadline
  then None
  else
    match Exact.solve network with
    | Some { Exact.assignment; optimal = true; _ } -> (
        match evaluate p assignment with 0, s -> Some s | _ -> None)
    | Some _ | None -> None

(* One full WalkSAT descent from [start], task-local. It stops early
   once its best reaches [target] (see [reached]). [stop] holds the
   smallest task index that has reached the target ([max_int] while
   none has). It is only consulted *between* tasks, never inside a
   running descent, and task [k] skips only when [stop < k] — a plain
   boolean would let a later, faster-scheduled optimum skip an
   earlier-indexed task it loses the tie-break to. With the index
   check, every task below the first optimal one completes identically
   to a sequential run, and a skipped later task could at best have
   tied — which loses the earliest-task tie-break. The winning
   assignment, not just its cost, is thus the same at every job
   count. *)
type attempt = {
  a_cost : int * float;
  a_assignment : bool array;
  a_flips : int;
  a_trail : (float * float) list;
      (* (absolute ms, scalarised best cost) at each improvement,
         newest first; [] unless observability is enabled *)
}

let skipped_attempt =
  { a_cost = (max_int, infinity); a_assignment = [||]; a_flips = 0; a_trail = [] }

(* Hard violations dominate soft cost lexicographically; one scalar for
   the convergence timeline. Soft weights are nowhere near 1e9. *)
let scalar_cost (h, s) = (float_of_int h *. 1e9) +. s

(* Lower [stop] to [k] if no smaller index is recorded yet. *)
let rec note_reached stop k =
  let cur = Atomic.get stop in
  if k < cur && not (Atomic.compare_and_set stop cur k) then note_reached stop k

(* Poll the deadline every 256 flips: a flip is cheap, a clock read is
   not, and a safe point is any flip boundary — [best] always holds a
   complete assignment. *)
let poll_mask = 0xff

(* The variable to flip in clause [ci]: a random one of its literals
   with probability [noise], else the greedy choice — the literal whose
   flip lowers cost the most, compared against the current best by
   [lower]. *)
let pick_var st rng ~noise ci =
  let p = st.p in
  let lo = p.offsets.(ci) and hi = p.offsets.(ci + 1) in
  if Prng.bernoulli rng noise then p.lits.(lo + Prng.int rng (hi - lo)) lsr 1
  else begin
    let best_var = ref (p.lits.(lo) lsr 1) in
    let best_hard = ref (delta st !best_var) in
    let best_soft = ref st.f.dsoft in
    for j = lo to hi - 1 do
      let a = p.lits.(j) lsr 1 in
      if a <> !best_var then begin
        let h = delta st a in
        let s = st.f.dsoft in
        if lower h s !best_hard !best_soft then begin
          best_hard := h;
          best_soft := s;
          best_var := a
        end
      end
    done;
    !best_var
  end

let descend st rng ~max_flips ~stall ~noise ~deadline ~target ~stop ~k
    ~observing start =
  reset_state st start;
  let best = Array.copy st.assignment in
  let best_hard = ref st.unsat_hard.len and best_soft = ref st.f.soft_cost in
  let trail = ref [] in
  if observing then
    trail := [ (Prelude.Timing.now_ms (), scalar_cost (!best_hard, !best_soft)) ];
  let since_improvement = ref 0 in
  let flips = ref 0 in
  let halted = ref false in
  let optimal = ref (reached target !best_hard !best_soft) in
  while
    (not !halted)
    && !flips < max_flips
    && (not !optimal)
    && !since_improvement < stall
  do
    if !flips land poll_mask = 0 && Deadline.expired deadline then
      halted := true
    else begin
      incr flips;
      (* Repair hard violations with priority: a solution violating a
         hard constraint is worthless whatever its soft cost. *)
      let ci =
        if st.unsat_hard.len > 0
           && (st.unsat_soft.len = 0 || not (Prng.bernoulli rng 0.1))
        then st.unsat_hard.items.(Prng.int rng st.unsat_hard.len)
        else st.unsat_soft.items.(Prng.int rng st.unsat_soft.len)
      in
      flip st (pick_var st rng ~noise ci);
      let h = st.unsat_hard.len and s = st.f.soft_cost in
      if lower h s !best_hard !best_soft then begin
        best_hard := h;
        best_soft := s;
        Array.blit st.assignment 0 best 0 (Array.length st.assignment);
        if observing then
          trail := (Prelude.Timing.now_ms (), scalar_cost (h, s)) :: !trail;
        since_improvement := 0;
        optimal := reached target h s
      end
      else incr since_improvement
    end
  done;
  let ((h, s) as cost) = evaluate st.p best in
  if reached target h s then note_reached stop k;
  if observing then
    trail := (Prelude.Timing.now_ms (), scalar_cost cost) :: !trail;
  { a_cost = cost; a_assignment = best; a_flips = !flips; a_trail = !trail }

let solve ?(seed = 7) ?(max_flips = 100_000) ?(restarts = 3) ?(noise = 0.2)
    ?(stall = 20_000) ?init ?(portfolio = []) ?(pool = Pool.sequential)
    ?(deadline = Deadline.none) network =
  let base =
    match init with
    | Some a -> Array.copy a
    | None -> Array.make network.Network.num_atoms false
  in
  (* Task seeds: the configured restarts draw derived seeds; portfolio
     seeds are appended verbatim as extra independent descents. Task 0
     starts at [base]; every other task starts at a perturbation of
     [base] drawn from its own stream, so tasks are independent of each
     other and of the schedule. *)
  let seeds =
    Array.of_list
      (List.init (max 1 restarts) (fun i -> Prng.subseed seed i) @ portfolio)
  in
  let packed = view network in
  let optimum = optimum network packed ~deadline in
  let target = Option.value optimum ~default:0.0 in
  let observing = Obs.enabled () in
  let stop = Atomic.make max_int in
  let start_of_task rng k =
    if k = 0 then Array.copy base
    else begin
      (* Perturb the base assignment to escape its basin. WalkSAT moves
         only touch variables of violated clauses, so the perturbation
         must be able to reach the others: flip a guaranteed handful. *)
      let start = Array.copy base in
      let n = Array.length start in
      if n > 0 then begin
        let forced = max 1 (n / 10) in
        for _ = 1 to forced do
          let v = Prng.int rng n in
          start.(v) <- not start.(v)
        done;
        Array.iteri
          (fun v _ ->
            if Prng.bernoulli rng 0.05 then start.(v) <- not start.(v))
          start
      end;
      start
    end
  in
  (* Every task — sequential or pooled — is crash-contained: a raised
     exception (in particular an injected "worker_crash" fault) loses
     that one attempt and nothing else. Expired deadlines skip tasks
     that have not started; running descents stop at their next poll. *)
  let run_task st k =
    if Atomic.get stop < k then skipped_attempt
    else begin
      if k > 0 then Deadline.Faults.inject "worker_crash" ~index:k;
      let rng = Prng.create seeds.(k) in
      let start = start_of_task rng k in
      descend st rng ~max_flips ~stall ~noise ~deadline ~target ~stop ~k
        ~observing start
    end
  in
  let results =
    if Pool.jobs pool = 1 then begin
      (* Sequential path: one state reused across restarts (reset in
         place), early exit once an optimum has been found. *)
      let st = make_state packed in
      List.filter_map
        (fun k ->
          if Deadline.expired deadline then Some (Error Deadline.Expired)
          else if Atomic.get stop < k then None
          else
            match run_task st k with
            | a -> Some (Ok a)
            | exception e -> Some (Error e))
        (List.init (Array.length seeds) Fun.id)
    end
    else
      (* Parallel portfolio: every task gets its own state over the
         shared packed view; once some domain reaches the target
         descents with a larger index stop being started (running ones
         complete). *)
      Pool.map_results ~deadline pool
        (fun k -> run_task (make_state packed) k)
        (List.init (Array.length seeds) Fun.id)
  in
  let attempts = List.filter_map Result.to_option results in
  let crashed =
    List.exists
      (function Error Deadline.Expired | Ok _ -> false | Error _ -> true)
      results
  in
  (* Deterministic pick: lexicographic (hard, soft), earliest task wins
     ties. The target short-circuit can only drop attempts that would
     have lost anyway, so the winning cost is schedule-independent. *)
  let best =
    List.fold_left
      (fun acc a ->
        match acc with
        | Some b when not (better a.a_cost b.a_cost) -> acc
        | _ -> Some a)
      None attempts
  in
  let best =
    match best with
    | Some a -> a
    | None ->
        (* All tasks skipped (already-expired deadline) or crashed:
           score the base assignment directly — the one answer that is
           always available immediately. *)
        {
          a_cost = evaluate packed base;
          a_assignment = Array.copy base;
          a_flips = 0;
          a_trail = [];
        }
  in
  let total_flips = List.fold_left (fun acc a -> acc + a.a_flips) 0 attempts in
  let restarts_used =
    max 0 (List.length (List.filter (fun a -> a.a_flips > 0) attempts) - 1)
  in
  let hard_violated, soft_cost = best.a_cost in
  let status =
    if crashed then Deadline.Degraded
    else if Deadline.expired deadline then
      if hard_violated > 0 then Deadline.Degraded else Deadline.Timed_out
    else Deadline.Completed
  in
  Obs.count ~n:total_flips "walksat.flips";
  Obs.count ~n:restarts_used "walksat.restarts";
  Obs.count ~n:(List.length attempts) "walksat.portfolio_tasks";
  Obs.record "walksat.flips_per_solve" (float_of_int total_flips);
  Obs.gauge "walksat.soft_cost" soft_cost;
  if Option.is_some optimum then begin
    Obs.count "walksat.optimum_known";
    if not (reached target hard_violated soft_cost) then
      Obs.count "walksat.optimum_missed"
  end;
  if observing then begin
    (* Convergence timeline: improvement samples from every attempt,
       time-ordered, lowered to a running minimum so the curve is the
       portfolio-wide best-so-far (non-increasing by construction). *)
    let samples =
      List.concat_map (fun a -> List.rev a.a_trail) attempts
      |> List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
    in
    let samples =
      match samples with
      | [] -> [ (Prelude.Timing.now_ms (), scalar_cost best.a_cost) ]
      | _ -> samples
    in
    ignore
      (List.fold_left
         (fun running (t, c) ->
           let running = Float.min running c in
           Obs.sample "walksat.convergence" ~t_ms:t ~v:running;
           running)
         infinity samples);
    List.iteri
      (fun k r ->
        match r with
        | Ok a when a.a_flips > 0 ->
            let h, s = a.a_cost in
            Obs.event ~level:Obs.Events.Debug "walksat.restart"
              [
                ("task", Obs.Events.Int k);
                ("flips", Obs.Events.Int a.a_flips);
                ("hard", Obs.Events.Int h);
                ("soft", Obs.Events.Float s);
              ]
        | Ok _ -> ()
        | Error Deadline.Expired ->
            Obs.event ~level:Obs.Events.Warn "walksat.task_expired"
              [ ("task", Obs.Events.Int k) ]
        | Error e ->
            Obs.event ~level:Obs.Events.Warn "walksat.task_crashed"
              [
                ("task", Obs.Events.Int k);
                ("error", Obs.Events.Str (Printexc.to_string e));
              ])
      results
  end;
  ( best.a_assignment,
    { flips = total_flips; restarts_used; hard_violated; soft_cost; crashed;
      status } )
