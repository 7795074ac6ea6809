type stats = {
  iterations : int;
  primal_residual : float;
  dual_residual : float;
  converged : bool;
  objective : float;
  status : Prelude.Deadline.status;
}

(* ADMM over the packed model: one local copy [y] and one scaled dual [u]
   per term, in flat float arrays parallel to [Hlmrf.var]/[Hlmrf.coef],
   and one squared coefficient norm per factor. A sweep reads factor [f]'s
   terms [offsets.(f) .. offsets.(f + 1) - 1] in place; nothing is
   allocated per iteration.

   Every float is computed in the order of the original record-per-factor
   kernel (kept as the reference in test/test_psl.ml), so the iterates are
   identical bit for bit: a factor's value is its dot product with
   [v = z - u] summed from 0.0 in term order, then [+ const]; the norm is a
   left fold of squares; the consensus sums run over factors, then terms,
   in order; and the residual partials are summed per block and reduced in
   block order. [v] is recomputed wherever the old kernel read its
   materialised copy, which gives the same bits. *)

(* [Float.min 1.0 (Float.max 0.0 x)], nan and -0.0 included, inlined:
   the two [Float] calls would box [x] on every consensus update. *)
let[@inline] clip01 x =
  if x > 0.0 then if x < 1.0 then x else 1.0
  else if Float.is_nan x then x
  else 0.0

(* The primal residual is summed per block of this many factors, and
   the block sums are added in block order: that association is part of
   every iterate's bits. *)
let block = 256

(* [step f] for every factor [f], in order. Passed as values, the two
   steps allocate their closures once per solve. Kept so: the benchmark
   suite's quick allocation reading cannot yet tell a smaller solve
   window from an empty one (ROADMAP: count allocation exactly). *)
let sweep num_factors step =
  for f = 0 to num_factors - 1 do
    step f
  done

let solve ?(rho = 1.0) ?(max_iters = 2_000) ?(tol = 1e-4) ?init
    ?(deadline = Prelude.Deadline.none) (model : Hlmrf.t) =
  let n = model.num_vars in
  let { Hlmrf.kind; weight; const; offsets; var; coef; _ } = model in
  let num_factors = Hlmrf.num_factors model in
  let num_terms = offsets.(num_factors) in
  let z =
    match init with
    | Some x when Array.length x <> n -> invalid_arg "Admm.solve: init length"
    | Some x -> Array.map clip01 x
    | None -> Array.make n 0.5
  in
  let norm_sq = Array.make num_factors 0.0 in
  for f = 0 to num_factors - 1 do
    let s = ref 0.0 in
    for j = offsets.(f) to offsets.(f + 1) - 1 do
      s := !s +. (coef.(j) *. coef.(j))
    done;
    norm_sq.(f) <- !s
  done;
  (* How many local copies each variable has (for averaging). *)
  let copies = Array.make n 0 in
  for j = 0 to num_terms - 1 do
    copies.(var.(j)) <- copies.(var.(j)) + 1
  done;
  (* Local copies start at the consensus value. *)
  let y = Array.make num_terms 0.0 in
  for j = 0 to num_terms - 1 do
    y.(j) <- z.(var.(j))
  done;
  let u = Array.make num_terms 0.0 in
  let num_blocks = (num_factors + block - 1) / block in
  let pr_parts = Array.make (max 1 num_blocks) 0.0 in
  let sums = Array.make n 0.0 in
  let z_old = Array.make n 0.0 in
  (* argmin_y f(y) + rho/2 ||y - v||^2 for factor [f], with [v = z - u],
     written into [y]. *)
  let prox f =
    let lo = offsets.(f) and hi = offsets.(f + 1) - 1 in
    let dot = ref 0.0 in
    for j = lo to hi do
      dot := !dot +. (coef.(j) *. (z.(var.(j)) -. u.(j)))
    done;
    let value = !dot +. const.(f) in
    let ns = norm_sq.(f) in
    (* [y = v - step · coef]: the gradient step of an active hinge
       ([step = w / rho]) or the projection onto the hyperplane
       [a.y + c = 0] ([step = value / ns]). A satisfied hinge or
       halfspace, or a zero-norm factor, copies [v] ([step = 0]). Writing
       [v] itself for a zero step has the bits of [v - 0 · coef], because
       [z] is box-clipped and so never -0.0, and neither is [v]. *)
    let step =
      if ns = 0.0 then 0.0
      else
        match kind.(f) with
        | Hlmrf.Eq -> value /. ns
        | Hlmrf.Le -> if value <= 0.0 then 0.0 else value /. ns
        | Hlmrf.Hinge ->
            let shift = weight.(f) /. rho in
            if value -. (shift *. ns) >= 0.0 then shift
            else if value <= 0.0 then 0.0
            else value /. ns
    in
    if step = 0.0 then
      for j = lo to hi do
        y.(j) <- z.(var.(j)) -. u.(j)
      done
    else
      for j = lo to hi do
        y.(j) <- z.(var.(j)) -. u.(j) -. (step *. coef.(j))
      done
  in
  (* Dual update and the factor's share of its block's primal residual. *)
  let dual_step f =
    let b = f / block in
    for j = offsets.(f) to offsets.(f + 1) - 1 do
      let r = y.(j) -. z.(var.(j)) in
      u.(j) <- u.(j) +. r;
      pr_parts.(b) <- pr_parts.(b) +. (r *. r)
    done
  in
  let iterations = ref 0 in
  let primal = ref infinity in
  let dual = ref infinity in
  let converged = ref false in
  let halted = ref false in
  let observing = Obs.enabled () in
  (* Convergence trail: (absolute ms, objective at the current iterate),
     every 8 iterations — the objective pass costs about one factor
     sweep, so it stays off the path unless observability is on. *)
  let trail = ref [] in
  (* Deadline polled between iterations: the consensus vector [z] is a
     feasible-by-construction (box-clipped) iterate after every sweep,
     so any iteration boundary is a safe stopping point. *)
  while (not !converged) && (not !halted) && !iterations < max_iters do
    if Prelude.Deadline.expired deadline then halted := true
    else begin
    incr iterations;
    (* Local proximal steps: each factor writes only its own [y]. *)
    sweep num_factors prox;
    (* Consensus update: average local copies plus duals, clipped. *)
    Array.blit z 0 z_old 0 n;
    Array.fill sums 0 n 0.0;
    for j = 0 to num_terms - 1 do
      let v = var.(j) in
      sums.(v) <- sums.(v) +. y.(j) +. u.(j)
    done;
    for v = 0 to n - 1 do
      if copies.(v) > 0 then
        z.(v) <- clip01 (sums.(v) /. float_of_int copies.(v))
      (* variables in no factor keep their initial value *)
    done;
    (* Dual update and primal residual: per-block partial sums, reduced
       in block order. *)
    Array.fill pr_parts 0 (Array.length pr_parts) 0.0;
    sweep num_factors dual_step;
    let pr = ref 0.0 in
    for b = 0 to num_blocks - 1 do
      pr := !pr +. pr_parts.(b)
    done;
    let du = ref 0.0 in
    for v = 0 to n - 1 do
      let d = z.(v) -. z_old.(v) in
      du := !du +. (float_of_int copies.(v) *. d *. d)
    done;
    primal := sqrt !pr;
    dual := rho *. sqrt !du;
    let scale = sqrt (float_of_int (max 1 n)) in
    if !primal <= tol *. scale && !dual <= tol *. scale then converged := true;
    if observing && !iterations land 7 = 0 then
      trail := (Prelude.Timing.now_ms (), Hlmrf.objective model z) :: !trail
    end
  done;
  let objective = Hlmrf.objective model z in
  Obs.count ~n:!iterations "admm.iterations";
  Obs.gauge "admm.primal_residual" !primal;
  Obs.gauge "admm.dual_residual" !dual;
  Obs.record "admm.iters_per_solve" (float_of_int !iterations);
  if observing then begin
    (* Objective over time, lowered to a running minimum: ADMM iterates
       are not monotone, the best-so-far curve is. *)
    let samples =
      List.rev ((Prelude.Timing.now_ms (), objective) :: !trail)
    in
    ignore
      (List.fold_left
         (fun running (t, v) ->
           let running = Float.min running v in
           Obs.sample "admm.convergence" ~t_ms:t ~v:running;
           running)
         infinity samples);
    Obs.event ~level:Obs.Events.Debug "admm.solve"
      [
        ("iterations", Obs.Events.Int !iterations);
        ("converged", Obs.Events.Bool !converged);
        ("primal_residual", Obs.Events.Float !primal);
        ("dual_residual", Obs.Events.Float !dual);
      ]
  end;
  ( z,
    {
      iterations = !iterations;
      primal_residual = !primal;
      dual_residual = !dual;
      converged = !converged;
      objective;
      status =
        (if !halted then Prelude.Deadline.Timed_out
         else Prelude.Deadline.Completed);
    } )
