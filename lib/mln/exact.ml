type result = {
  assignment : bool array;
  soft_cost : float;
  nodes : int;
  optimal : bool;
}

(* Deadline polls are strided: a node expansion is tens of nanoseconds,
   a clock read is not. 1024 nodes stay well under a millisecond. *)
let deadline_stride = 1024

(* The float side of the search. An all-float record stores its fields
   unboxed, so updating them never allocates. *)
type floats = {
  mutable violated_soft : float; (* charged soft weight on the path *)
  mutable incumbent_cost : float;
}

(* Search state over the packed network and its CSR occurrence index
   (one entry per literal, descending clause order: the order a
   variable's clauses are visited in, which fixes both the propagation
   sequence and the float order of the charged soft weight). *)
type state = {
  net : Network.t;
  occ_start : int array;
  occ : int array;
  order : int array; (* static variable order *)
  value : int array; (* -1 unassigned, 0 false, 1 true *)
  trail : int array; (* assigned variables on the path, oldest first *)
  mutable trail_len : int;
  touched : int array; (* propagation stack *)
  charged : bool array;
  charges : int array; (* charged soft clauses, oldest first *)
  mutable charges_len : int;
  f : floats;
  mutable nodes : int;
  mutable exhausted : bool;
  mutable incumbent : bool array option;
  max_nodes : int;
  deadline : Prelude.Deadline.t;
}

(* [clause_state]'s answer for a clause with a true literal; otherwise
   it returns the count of unassigned literals (0: violated). *)
let satisfied = -1

let clause_state s ci =
  let { Network.offsets; lits; _ } = s.net in
  let unassigned = ref 0 in
  let sat = ref false in
  for j = offsets.(ci) to offsets.(ci + 1) - 1 do
    let c = lits.(j) in
    match s.value.(c lsr 1) with
    | -1 -> incr unassigned
    | v -> if v = c land 1 then sat := true
  done;
  if !sat then satisfied else !unassigned

let assign_var s v b =
  s.value.(v) <- Bool.to_int b;
  s.trail.(s.trail_len) <- v;
  s.trail_len <- s.trail_len + 1

let unwind s mark =
  for i = mark to s.trail_len - 1 do
    s.value.(s.trail.(i)) <- -1
  done;
  s.trail_len <- mark

(* Propagate hard unit clauses from [v]; returns false on hard
   conflict. A variable forced while visiting a clause list is pushed
   on the touched stack, so the last one forced is visited next. *)
let propagate s v =
  let { Network.offsets; lits; hard; _ } = s.net in
  s.touched.(0) <- v;
  let top = ref 1 in
  let conflict = ref false in
  while (not !conflict) && !top > 0 do
    decr top;
    let v = s.touched.(!top) in
    let o = ref s.occ_start.(v) in
    while (not !conflict) && !o < s.occ_start.(v + 1) do
      let ci = s.occ.(!o) in
      incr o;
      if hard.(ci) then
        match clause_state s ci with
        | 0 -> conflict := true
        | 1 ->
            (* Hard unit: force the remaining literal. *)
            for j = offsets.(ci) to offsets.(ci + 1) - 1 do
              let c = lits.(j) in
              if s.value.(c lsr 1) = -1 then begin
                assign_var s (c lsr 1) (c land 1 = 1);
                s.touched.(!top) <- c lsr 1;
                incr top
              end
            done
        | _ -> ()
    done
  done;
  not !conflict

(* Soft cost is tracked incrementally: a soft clause is charged the
   first time it becomes fully violated (stamped so it is charged only
   once) and uncharged on backtrack. Charge the clauses of the variables
   assigned since trail height [mark], newest first. *)
let charge_soft s mark =
  let { Network.hard; weights; _ } = s.net in
  for i = s.trail_len - 1 downto mark do
    let v = s.trail.(i) in
    for o = s.occ_start.(v) to s.occ_start.(v + 1) - 1 do
      let ci = s.occ.(o) in
      if (not hard.(ci)) && (not s.charged.(ci)) && clause_state s ci = 0
      then begin
        s.charged.(ci) <- true;
        s.charges.(s.charges_len) <- ci;
        s.charges_len <- s.charges_len + 1;
        s.f.violated_soft <- s.f.violated_soft +. weights.(ci)
      end
    done
  done

(* Undo the charges above height [mark], newest first. *)
let uncharge s mark =
  while s.charges_len > mark do
    s.charges_len <- s.charges_len - 1;
    let ci = s.charges.(s.charges_len) in
    s.charged.(ci) <- false;
    s.f.violated_soft <- s.f.violated_soft -. s.net.weights.(ci)
  done

let record_solution s =
  if s.f.violated_soft < s.f.incumbent_cost -. 1e-12 then begin
    s.f.incumbent_cost <- s.f.violated_soft;
    s.incumbent <- Some (Array.map (fun v -> v = 1) s.value)
  end

(* The next unassigned variable in static order, from index [i]. *)
let rec next s i =
  if i >= Array.length s.order || s.value.(s.order.(i)) = -1 then i
  else next s (i + 1)

let rec search s depth =
  if
    s.nodes >= s.max_nodes
    || (s.nodes land (deadline_stride - 1) = 0
       && Prelude.Deadline.expired s.deadline)
  then s.exhausted <- true
  else begin
    s.nodes <- s.nodes + 1;
    if s.f.violated_soft >= s.f.incumbent_cost -. 1e-12 then () (* prune *)
    else
      let i = next s depth in
      if i >= Array.length s.order then record_solution s
      else begin
        try_value s i true;
        try_value s i false
      end
  end

and try_value s i b =
  let trail_mark = s.trail_len and charge_mark = s.charges_len in
  let v = s.order.(i) in
  assign_var s v b;
  if propagate s v then begin
    charge_soft s trail_mark;
    if s.f.violated_soft < s.f.incumbent_cost -. 1e-12 then search s (i + 1)
  end;
  uncharge s charge_mark;
  unwind s trail_mark

let solve ?(max_nodes = 2_000_000) ?(deadline = Prelude.Deadline.none)
    (network : Network.t) =
  let n = network.num_atoms in
  let num_clauses = Network.num_clauses network in
  let occ_start, occ = Network.occurrences network in
  (* Variable order: descending occurrence count (most constrained first). *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      Int.compare
        (occ_start.(b + 1) - occ_start.(b))
        (occ_start.(a + 1) - occ_start.(a)))
    order;
  let s =
    {
      net = network;
      occ_start;
      occ;
      order;
      value = Array.make n (-1);
      trail = Array.make (max 1 n) 0;
      trail_len = 0;
      touched = Array.make (max 1 n) 0;
      charged = Array.make num_clauses false;
      charges = Array.make (max 1 num_clauses) 0;
      charges_len = 0;
      f = { violated_soft = 0.0; incumbent_cost = infinity };
      nodes = 0;
      exhausted = false;
      incumbent = None;
      max_nodes;
      deadline;
    }
  in
  search s 0;
  match s.incumbent with
  | None -> None
  | Some assignment ->
      Some
        {
          assignment;
          soft_cost = s.f.incumbent_cost;
          nodes = s.nodes;
          optimal = not s.exhausted;
        }
