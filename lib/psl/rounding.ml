type stats = {
  flipped : int;
  unrepaired : int;
}

(* A constraint's left-hand side at a Boolean point, summed from the
   constant in term order. *)
let eval_bool (model : Hlmrf.t) f assignment =
  let acc = ref model.const.(f) in
  for j = model.offsets.(f) to model.offsets.(f + 1) - 1 do
    let x = if assignment.(model.var.(j)) then 1.0 else 0.0 in
    acc := !acc +. (model.coef.(j) *. x)
  done;
  !acc

let violated (model : Hlmrf.t) f assignment =
  model.kind.(f) = Hlmrf.Le && eval_bool model f assignment > 1e-9

let round ?(threshold = 0.5) (model : Hlmrf.t) x =
  let assignment = Array.map (fun v -> v >= threshold) x in
  let first = model.num_potentials and last = Hlmrf.num_factors model - 1 in
  (* Variables pinned to a value by a one-term equality constraint. *)
  let pinned = Array.make model.num_vars false in
  for f = first to last do
    let j = model.offsets.(f) in
    if
      model.kind.(f) = Hlmrf.Eq
      && model.offsets.(f + 1) = j + 1
      && model.coef.(j) <> 0.0
    then begin
      let v = model.var.(j) in
      pinned.(v) <- true;
      assignment.(v) <- -.model.const.(f) /. model.coef.(j) >= 0.5
    end
  done;
  let flipped = ref 0 in
  let progress = ref true in
  let max_passes = 1 + Hlmrf.num_constraints model in
  let passes = ref 0 in
  while !progress && !passes < max_passes do
    progress := false;
    incr passes;
    for f = first to last do
      if violated model f assignment then begin
        (* Flip the true positive-coefficient variable with the lowest
           soft value (the least-supported fact); the first one on
           ties. *)
        let candidate = ref (-1) in
        for j = model.offsets.(f) to model.offsets.(f + 1) - 1 do
          let v = model.var.(j) in
          if
            model.coef.(j) > 0.0 && assignment.(v) && (not pinned.(v))
            && not (!candidate >= 0 && x.(!candidate) <= x.(v))
          then candidate := v
        done;
        if !candidate >= 0 then begin
          assignment.(!candidate) <- false;
          incr flipped;
          progress := true
        end
      end
    done
  done;
  let unrepaired = ref 0 in
  for f = first to last do
    if violated model f assignment then incr unrepaired
  done;
  (assignment, { flipped = !flipped; unrepaired = !unrepaired })
