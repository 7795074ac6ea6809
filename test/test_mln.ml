(* Tests for the MLN engine: network compilation, the three MAP solvers
   (and their mutual agreement on small instances), and CPI. *)

module Network = Mln.Network
module Store = Grounder.Atom_store
open Logic

(* Total weight of the soft clauses an assignment violates. *)
let soft_cost (network : Network.t) a =
  let cost = ref 0.0 in
  for ci = 0 to Network.num_clauses network - 1 do
    if
      (not network.Network.hard.(ci))
      && not (Network.clause_satisfied network ci a)
    then cost := !cost +. network.Network.weights.(ci)
  done;
  !cost

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let cr_graph () =
  Kg.Graph.of_list
    [
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Leicester") (2015, 2017) 0.7;
      Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
      Kg.Quad.v "CR" "birthDate" (Kg.Term.int 1951) (1951, 2017) 1.0;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
    ]

let cr_rules () =
  parse_rules
    {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .|}

let build_cr () =
  let store = Store.of_graph (cr_graph ()) in
  let result = Grounder.Ground.run store (cr_rules ()) in
  (store, Network.build store result.Grounder.Ground.instances)

let test_network_shape () =
  let _store, network = build_cr () in
  Alcotest.(check int) "six atoms" 6 network.Network.num_atoms;
  let hard =
    Array.fold_left
      (fun acc h -> if h then acc + 1 else acc)
      0 network.Network.hard
  in
  (* 1 hard evidence (birthDate) + 1 deduplicated hard violation clause
     for the Chelsea/Napoli clash. *)
  Alcotest.(check int) "hard clauses" 2 hard

let test_clause_satisfaction_and_score () =
  let store, network = build_cr () in
  let everything_true = Array.make network.Network.num_atoms true in
  Alcotest.(check bool) "all-true violates the clash" true
    (Network.hard_violations network everything_true > 0);
  let init = Network.initial_assignment network store in
  Alcotest.(check bool) "evidence init also violates" true
    (Network.hard_violations network init > 0);
  (* Score and the violated soft weight partition the total. *)
  let total = Array.fold_left ( +. ) 0.0 network.Network.weights in
  Alcotest.(check bool) "score + cost = total" true
    (Float.abs (Network.score network init +. soft_cost network init -. total)
    < 1e-9)

(* [satisfied_if] evaluates a clause with one atom overridden, leaving
   the assignment itself alone. *)
let test_satisfied_if () =
  let network =
    Network.of_clauses ~num_atoms:2 [ ([ (0, true); (1, false) ], Some 1.0, "r") ]
  in
  let x = [| false; true |] in
  Alcotest.(check bool) "clause fails as is" false
    (Network.clause_satisfied network 0 x);
  Alcotest.(check bool) "a0 := true" true
    (Network.satisfied_if network 0 x ~atom:0 true);
  Alcotest.(check bool) "a1 := false" true
    (Network.satisfied_if network 0 x ~atom:1 false);
  Alcotest.(check bool) "a1 := true" false
    (Network.satisfied_if network 0 x ~atom:1 true);
  Alcotest.(check (array bool)) "assignment untouched" [| false; true |] x

(* [repair_hard] flips, in place, the earliest literal of the lowest
   violated hard clause when that strictly lowers the violation count,
   and reports what it could not repair. *)
let test_repair_hard () =
  let network =
    Network.of_clauses ~num_atoms:3
      [
        ([ (0, false); (1, false) ], None, "c");
        ([ (2, true) ], None, "evidence");
        ([ (0, true) ], Some 1.0, "evidence");
      ]
  in
  let x = [| true; true; false |] in
  Alcotest.(check int) "two hard violations" 2 (Network.hard_violations network x);
  Alcotest.(check int) "all repaired" 0 (Network.repair_hard network x);
  Alcotest.(check (array bool)) "earliest literal flipped" [| false; true; true |] x;
  let contradiction =
    Network.of_clauses ~num_atoms:1
      [ ([ (0, true) ], None, "a"); ([ (0, false) ], None, "b") ]
  in
  let y = [| false |] in
  Alcotest.(check int) "a contradiction stays violated" 1
    (Network.repair_hard contradiction y);
  Alcotest.(check (array bool)) "no non-improving flip" [| false |] y

(* Binding both body atoms of a constraint to the one fact grounds
   (-a v -a) here — before(t, t) never holds. The clause must hold -a
   once: solvers count a clause's true literals, and the duplicate made
   the walk's counts run negative and hide the repairing flip. *)
let test_repeated_literals_collapse () =
  let graph =
    Kg.Graph.of_list [ Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.9 ]
  in
  let rules =
    parse_rules
      "constraint c: coach(x, y)@t ^ coach(x, z)@t2 => before(t, t2) ."
  in
  let store = Store.of_graph graph in
  let result = Grounder.Ground.run ~lazy_constraints:true store rules in
  Alcotest.(check bool) "grounding binds one fact twice" true
    (List.exists
       (fun (i : Instance_view.t) -> i.body_atoms = [ 0; 0 ])
       (Instance_view.of_result result));
  let network = Network.build store result.Grounder.Ground.instances in
  let literals ci =
    Array.sub network.Network.lits network.Network.offsets.(ci)
      (network.Network.offsets.(ci + 1) - network.Network.offsets.(ci))
  in
  let clauses = List.init (Network.num_clauses network) Fun.id in
  Alcotest.(check bool) "hard clause (-a)" true
    (List.exists
       (fun ci -> network.Network.hard.(ci) && literals ci = [| 0 |])
       clauses);
  List.iter
    (fun ci ->
      Alcotest.(check int) "no repeated literal"
        (Array.length (literals ci))
        (List.length (List.sort_uniq compare (Array.to_list (literals ci)))))
    clauses;
  let out = Mln.Map_inference.run graph rules in
  Alcotest.(check bool) "fact dropped" false out.Mln.Map_inference.assignment.(0);
  Alcotest.(check int) "resolved" 0
    out.Mln.Map_inference.stats.Mln.Map_inference.hard_violations

let solve_walk network store =
  fst
    (Mln.Maxwalksat.solve ~seed:5
       ~init:(Network.initial_assignment network store)
       network)

let assignment_to_facts store assignment =
  let kept = ref [] in
  Store.iter
    (fun id atom origin ->
      if assignment.(id) then
        match origin with
        | Store.Evidence _ -> kept := Atom.Ground.to_string atom :: !kept
        | Store.Hidden -> ())
    store;
  List.sort String.compare !kept

let expected_kept =
  [
    "birthDate(CR, 1951)@[1951,2017]";
    "coach(CR, Chelsea)@[2000,2004]";
    "coach(CR, Leicester)@[2015,2017]";
    "playsFor(CR, Palermo)@[1984,1986]";
  ]

let test_walk_running_example () =
  let store, network = build_cr () in
  let assignment = solve_walk network store in
  Alcotest.(check int) "no hard violations" 0
    (Network.hard_violations network assignment);
  Alcotest.(check (list string)) "figure 7" expected_kept
    (assignment_to_facts store assignment)

let test_exact_running_example () =
  let store, network = build_cr () in
  match Mln.Exact.solve network with
  | Some { Mln.Exact.assignment; optimal; _ } ->
      Alcotest.(check bool) "optimal" true optimal;
      Alcotest.(check int) "no hard violations" 0
        (Network.hard_violations network assignment);
      Alcotest.(check (list string)) "figure 7" expected_kept
        (assignment_to_facts store assignment)
  | None -> Alcotest.fail "exact solver failed"

let test_ilp_running_example () =
  let store, network = build_cr () in
  match Mln.Ilp_encoding.solve network with
  | Some (assignment, optimal) ->
      Alcotest.(check bool) "optimal" true optimal;
      Alcotest.(check (list string)) "figure 7" expected_kept
        (assignment_to_facts store assignment)
  | None -> Alcotest.fail "ilp solver failed"

let test_exact_unsat_hard () =
  (* Two contradictory hard unit clauses. *)
  let network =
    Network.of_clauses ~num_atoms:1
      [ ([ (0, true) ], None, "a"); ([ (0, false) ], None, "b") ]
  in
  Alcotest.(check bool) "unsatisfiable" true (Mln.Exact.solve network = None);
  Alcotest.(check bool) "ilp agrees" true (Mln.Ilp_encoding.solve network = None)

let test_cpi_agrees_with_direct () =
  let store, network = build_cr () in
  let init = Network.initial_assignment network store in
  let solver net ~init =
    (fst (Mln.Maxwalksat.solve ~seed:5 ~init net), Prelude.Deadline.Completed)
  in
  let direct = fst (solver network ~init) in
  let cpi, stats = Mln.Cpi.solve ~solver ~init network in
  Alcotest.(check int) "same hard"
    (Network.hard_violations network direct)
    (Network.hard_violations network cpi);
  Alcotest.(check bool) "same score" true
    (Float.abs (Network.score network direct -. Network.score network cpi) < 1e-6);
  Alcotest.(check bool) "cpi activated fewer clauses" true
    (stats.Mln.Cpi.active_clauses <= stats.Mln.Cpi.total_clauses);
  Alcotest.(check bool) "at least one iteration" true (stats.Mln.Cpi.iterations >= 1)

let test_map_inference_pipeline () =
  let options =
    { Mln.Map_inference.default_options with Mln.Map_inference.use_cpi = false }
  in
  let out = Mln.Map_inference.run ~options (cr_graph ()) (cr_rules ()) in
  Alcotest.(check int) "atoms" 6 out.Mln.Map_inference.stats.Mln.Map_inference.atoms;
  Alcotest.(check int) "evidence" 5
    out.Mln.Map_inference.stats.Mln.Map_inference.evidence_atoms;
  Alcotest.(check int) "hidden" 1
    out.Mln.Map_inference.stats.Mln.Map_inference.hidden_atoms;
  Alcotest.(check int) "no hard violations" 0
    out.Mln.Map_inference.stats.Mln.Map_inference.hard_violations;
  Alcotest.(check bool) "napoli removed" false
    out.Mln.Map_inference.assignment.(4)

(* Random small networks: all three solvers must agree on the optimum
   (modulo ties, compare objective values not assignments). *)
let random_network rng =
  let num_atoms = 2 + Prelude.Prng.int rng 5 in
  let num_clauses = 3 + Prelude.Prng.int rng 8 in
  let clauses =
    Array.init num_clauses (fun i ->
        let len = 1 + Prelude.Prng.int rng 3 in
        let literals =
          Array.init len (fun _ ->
              (Prelude.Prng.int rng num_atoms, Prelude.Prng.bool rng))
        in
        (* Avoid tautologies (solvers treat them fine but they blur the
           objective comparison with Network.score). *)
        let tautology =
          Array.exists
            (fun (a, positive) ->
              Array.exists
                (fun (a', positive') -> a = a' && positive <> positive')
                literals)
            literals
        in
        let literals =
          if tautology then [| (Prelude.Prng.int rng num_atoms, true) |]
          else literals
        in
        ( Array.to_list literals,
          Some (0.5 +. Prelude.Prng.float rng 3.0),
          Printf.sprintf "c%d" i ))
  in
  Network.of_clauses ~num_atoms (Array.to_list clauses)

let test_solvers_agree_on_random_networks () =
  let rng = Prelude.Prng.create 99 in
  for _ = 1 to 50 do
    let network = random_network rng in
    let exact =
      match Mln.Exact.solve network with
      | Some r -> r
      | None -> Alcotest.fail "soft-only network cannot be unsat"
    in
    Alcotest.(check bool) "exact optimal" true exact.Mln.Exact.optimal;
    let exact_score = Network.score network exact.Mln.Exact.assignment in
    (match Mln.Ilp_encoding.solve network with
    | Some (x, true) ->
        let ilp_score = Network.score network x in
        Alcotest.(check bool)
          (Printf.sprintf "ilp %.4f = exact %.4f" ilp_score exact_score)
          true
          (Float.abs (ilp_score -. exact_score) < 1e-6)
    | Some (_, false) -> Alcotest.fail "ilp hit the node budget"
    | None -> Alcotest.fail "ilp infeasible on soft-only network");
    (* MaxWalkSAT is a stochastic local search: it trades optimality for
       scalability (the paper's PSL-vs-MLN story in miniature). Demand
       near-optimality, not exactness. *)
    let walk, _ =
      Mln.Maxwalksat.solve ~seed:3 ~max_flips:50_000 ~restarts:8 ~noise:0.3
        network
    in
    let walk_score = Network.score network walk in
    Alcotest.(check bool)
      (Printf.sprintf "walk %.4f within 95%% of optimum %.4f" walk_score
         exact_score)
      true
      (walk_score >= (0.95 *. exact_score) -. 1e-6)
  done

(* The boxed clause layout the packed network replaced, with the code
   that ran on it, kept verbatim (minus Obs reporting): the network
   builder, the list-and-record MaxWalkSAT kernel, the component split
   and the list-based exact search. References for the differential
   oracles below. *)
module Reference = struct
  module Prng = Prelude.Prng
  module Pool = Prelude.Pool
  module Deadline = Prelude.Deadline

  type literal = { atom : int; positive : bool }

  type clause = {
    literals : literal array;
    weight : float option;  (* [None] = hard *)
    source : string;
  }

  type network = {
    num_atoms : int;
    clauses : clause array;
  }

  (* The boxed view of a packed network. *)
  let boxed (t : Network.t) =
    {
      num_atoms = t.Network.num_atoms;
      clauses =
        Array.init (Network.num_clauses t) (fun ci ->
            let o = t.Network.offsets.(ci) in
            {
              literals =
                Array.init (t.Network.offsets.(ci + 1) - o) (fun j ->
                    let c = t.Network.lits.(o + j) in
                    { atom = c lsr 1; positive = c land 1 = 1 });
              weight =
                (if t.Network.hard.(ci) then None
                 else Some t.Network.weights.(ci));
              source = t.Network.sources.(t.Network.source.(ci));
            });
    }

  type stats = {
    flips : int;
    restarts_used : int;
    hard_violated : int;
    soft_cost : float;
    status : Deadline.status;
  }

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

  (* Mutable solver state: per-clause count of true literals, violated hard
     and soft clauses tracked separately (hard violations are repaired with
     priority), and the running (hard, soft) cost. The occurrence lists are
     a function of the network alone, so one array is built per solve and
     shared read-only by every restart (and every domain). *)
  type state = {
    network : network;
    assignment : bool array;
    true_counts : int array;
    occurrences : int list array;
    unsat_hard : clause_set;
    unsat_soft : clause_set;
    mutable soft_cost : float;
  }

  let clause_weight (c : clause) =
    match c.weight with None -> `Hard | Some w -> `Soft w

  let mark_unsat st ci =
    match clause_weight st.network.clauses.(ci) with
    | `Hard -> set_add st.unsat_hard ci
    | `Soft w ->
        if st.unsat_soft.pos.(ci) = -1 then st.soft_cost <- st.soft_cost +. w;
        set_add st.unsat_soft ci

  let mark_sat st ci =
    match clause_weight st.network.clauses.(ci) with
    | `Hard -> set_remove st.unsat_hard ci
    | `Soft w ->
        if st.unsat_soft.pos.(ci) <> -1 then st.soft_cost <- st.soft_cost -. w;
        set_remove st.unsat_soft ci

  let literal_true assignment (l : literal) =
    assignment.(l.atom) = l.positive

  let build_occurrences (network : network) =
    let occurrences = Array.make network.num_atoms [] in
    Array.iteri
      (fun ci (c : clause) ->
        Array.iter
          (fun (l : literal) ->
            occurrences.(l.atom) <- ci :: occurrences.(l.atom))
          c.literals)
      network.clauses;
    occurrences

  let make_state network occurrences =
    let num_clauses = Array.length network.clauses in
    {
      network;
      assignment = Array.make (max 1 network.num_atoms) false;
      true_counts = Array.make (max 1 num_clauses) 0;
      occurrences;
      unsat_hard = set_create num_clauses;
      unsat_soft = set_create num_clauses;
      soft_cost = 0.0;
    }

  (* (Re)initialise the state at [start] without reallocating: restarts
     reuse the arrays and, crucially, the shared occurrence lists. *)
  let reset_state st start =
    Array.blit start 0 st.assignment 0 (Array.length start);
    set_clear st.unsat_hard;
    set_clear st.unsat_soft;
    st.soft_cost <- 0.0;
    Array.iteri
      (fun ci (c : clause) ->
        let count =
          Array.fold_left
            (fun acc l -> if literal_true st.assignment l then acc + 1 else acc)
            0 c.literals
        in
        st.true_counts.(ci) <- count;
        if count = 0 then mark_unsat st ci)
      st.network.clauses

  let flip st v =
    let old_value = st.assignment.(v) in
    st.assignment.(v) <- not old_value;
    List.iter
      (fun ci ->
        let c = st.network.clauses.(ci) in
        Array.iter
          (fun (l : literal) ->
            if l.atom = v then
              if l.positive = old_value then begin
                st.true_counts.(ci) <- st.true_counts.(ci) - 1;
                if st.true_counts.(ci) = 0 then mark_unsat st ci
              end
              else begin
                st.true_counts.(ci) <- st.true_counts.(ci) + 1;
                if st.true_counts.(ci) = 1 then mark_sat st ci
              end)
          c.literals)
      st.occurrences.(v)

  (* Cost change (hard, soft) of flipping [v], by break/make counting. *)
  let delta st v =
    let dhard = ref 0 and dsoft = ref 0.0 in
    List.iter
      (fun ci ->
        let c = st.network.clauses.(ci) in
        let sign =
          if st.true_counts.(ci) = 1 then begin
            (* Breaks iff the single true literal is carried by [v]. *)
            if
              Array.exists
                (fun (l : literal) ->
                  l.atom = v && literal_true st.assignment l)
                c.literals
            then 1
            else 0
          end
          else if st.true_counts.(ci) = 0 then
            (* Makes iff [v] carries a literal that becomes true. *)
            if
              Array.exists
                (fun (l : literal) ->
                  l.atom = v && not (literal_true st.assignment l))
                c.literals
            then -1
            else 0
          else 0
        in
        if sign <> 0 then
          match clause_weight c with
          | `Hard -> dhard := !dhard + sign
          | `Soft w -> dsoft := !dsoft +. (w *. float_of_int sign))
      st.occurrences.(v);
    (!dhard, !dsoft)

  let better (h1, s1) (h2, s2) =
    h1 < h2 || (h1 = h2 && s1 < s2 -. 1e-12)

  let perfect (h, s) = h = 0 && s = 0.0

  (* Exact cost of [assignment], summing violated soft weight in clause
     order. The in-descent soft cost is incremental and drifts by float
     rounding ((s +. w) -. w need not equal s), so attempts are compared
     on this recomputation: the reported cost — and hence the portfolio
     winner — is a pure function of the assignment, not of the add/remove
     history, which keeps the winner identical at every job count. *)
  let evaluate (network : network) assignment =
    let hard = ref 0 and soft = ref 0.0 in
    Array.iter
      (fun (c : clause) ->
        if not (Array.exists (literal_true assignment) c.literals) then
          match clause_weight c with
          | `Hard -> incr hard
          | `Soft w -> soft := !soft +. w)
      network.clauses;
    (!hard, !soft)

  (* One full WalkSAT descent from [start], task-local. [stop] holds the
     smallest task index that has reached cost (0, 0) ([max_int] while
     none has). It is only consulted *between* tasks, never inside a
     running descent, and task [k] skips only when [stop < k] — a plain
     boolean would let a later, faster-scheduled optimum skip an
     earlier-indexed task it loses the tie-break to. With the index
     check, every task below the first perfect one completes identically
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
  let rec note_perfect stop k =
    let cur = Atomic.get stop in
    if k < cur && not (Atomic.compare_and_set stop cur k) then note_perfect stop k

  (* Poll the deadline every 256 flips: a flip is cheap, a clock read is
     not, and a safe point is any flip boundary — [best] always holds a
     complete assignment. *)
  let poll_mask = 0xff

  let descend st rng ~max_flips ~stall ~noise ~deadline ~stop ~k ~observing
      start =
    reset_state st start;
    let current_cost st = (st.unsat_hard.len, st.soft_cost) in
    let best = ref (Array.copy st.assignment) in
    let best_cost = ref (current_cost st) in
    let trail = ref [] in
    let note cost =
      if observing then
        trail := (Prelude.Timing.now_ms (), scalar_cost cost) :: !trail
    in
    note !best_cost;
    let update_best () =
      let cost = current_cost st in
      if better cost !best_cost then begin
        best_cost := cost;
        Array.blit st.assignment 0 !best 0 (Array.length st.assignment);
        note cost;
        true
      end
      else false
    in
    let since_improvement = ref 0 in
    let flips = ref 0 in
    let halted = ref false in
    while
      (not !halted)
      && !flips < max_flips
      && st.unsat_hard.len + st.unsat_soft.len > 0
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
      let c = st.network.clauses.(ci) in
      let v =
        if Prng.bernoulli rng noise then
          (Array.get c.literals (Prng.int rng (Array.length c.literals))).atom
        else begin
          (* Greedy: the literal whose flip lowers cost the most. *)
          let best_var = ref (Array.get c.literals 0).atom in
          let best_delta = ref (delta st !best_var) in
          Array.iter
            (fun (l : literal) ->
              if l.atom <> !best_var then begin
                let d = delta st l.atom in
                if better d !best_delta then begin
                  best_delta := d;
                  best_var := l.atom
                end
              end)
            c.literals;
          !best_var
        end
      in
        flip st v;
        if update_best () then since_improvement := 0 else incr since_improvement
      end
    done;
    let cost = evaluate st.network !best in
    if perfect cost then note_perfect stop k;
    note cost;
    { a_cost = cost; a_assignment = !best; a_flips = !flips; a_trail = !trail }

  let solve ?(seed = 7) ?(max_flips = 100_000) ?(restarts = 3) ?(noise = 0.2)
      ?(stall = 20_000) ?init ?(portfolio = []) ?(pool = Pool.sequential)
      ?(deadline = Deadline.none) network =
    let base =
      match init with
      | Some a -> Array.copy a
      | None -> Array.make network.num_atoms false
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
    let occurrences = build_occurrences network in
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
        descend st rng ~max_flips ~stall ~noise ~deadline ~stop ~k ~observing
          start
      end
    in
    let results =
      if Pool.jobs pool = 1 then begin
        (* Sequential path: one state reused across restarts (reset in
           place), early exit once an optimum has been found. *)
        let st = make_state network occurrences in
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
           shared occurrence lists; once some domain reaches cost (0, 0)
           descents with a larger index stop being started (running ones
           complete). *)
        Pool.map_results ~deadline pool
          (fun k -> run_task (make_state network occurrences) k)
          (List.init (Array.length seeds) Fun.id)
    in
    let attempts = List.filter_map Result.to_option results in
    let crashed =
      List.exists
        (function Error Deadline.Expired | Ok _ -> false | Error _ -> true)
        results
    in
    (* Deterministic pick: lexicographic (hard, soft), earliest task wins
       ties. The (0, 0) short-circuit can only drop attempts that would
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
            a_cost = evaluate network base;
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
    ( best.a_assignment,
      { flips = total_flips; restarts_used; hard_violated; soft_cost; status } )


  (* The boxed network builder, verbatim. *)
  module Store = Grounder.Atom_store
  module Instance = Instance_view
  module Vec = Prelude.Vec

  let logit confidence =
    let w = log (confidence /. (1.0 -. confidence)) in
    Float.min Kg.Quad.max_weight (Float.max (-.Kg.Quad.max_weight) w)

  (* One literal per (atom, sign), first occurrence first. A constraint
     whose body atoms bind the same fact twice grounds e.g. (-a v -a);
     solvers count a clause's true literals, so a repeated literal would
     be counted once per copy. *)
  let rec distinct = function
    | [] -> []
    | l :: rest ->
        l
        :: distinct
             (List.filter
                (fun l' -> l'.atom <> l.atom || l'.positive <> l.positive)
                rest)

  let build ?(config = Network.default_config) store instances =
    let clauses = Vec.create () in
    let push literals weight source =
      if literals <> [] then
        Vec.push clauses { literals = Array.of_list literals; weight; source }
    in
    (* Unit clauses for evidence and hidden priors. *)
    Store.iter
      (fun id _atom origin ->
        match origin with
        | Store.Evidence { confidence; _ } ->
            if confidence >= 1.0 then
              push [ { atom = id; positive = true } ]
                (if config.Network.evidence_hard then None else Some Kg.Quad.max_weight)
                "evidence"
            else begin
              (* Confidence below 0.5 has a negative log-odds weight; keep
                 all clause weights positive by asserting the negation. *)
              let w = logit confidence +. config.Network.evidence_bonus in
              if w > 0.0 then
                push [ { atom = id; positive = true } ] (Some w) "evidence"
              else if w < 0.0 then
                push [ { atom = id; positive = false } ] (Some (-.w)) "evidence"
            end
        | Store.Hidden ->
            if config.Network.hidden_prior > 0.0 then
              push
                [ { atom = id; positive = false } ]
                (Some config.Network.hidden_prior) "prior")
      store;
    (* Clauses from ground rule instances. Identical hard clauses are
       deduplicated (pure efficiency); soft duplicates are genuine distinct
       groundings and must keep their cumulative weight. *)
    let seen_hard = Hashtbl.create 1024 in
    List.iter
      (fun { Instance.rule; body_atoms; head } ->
        let body_literals =
          List.map (fun id -> { atom = id; positive = false }) body_atoms
        in
        let literals =
          distinct
            (match head with
            | Instance.Satisfied -> []
            | Instance.Violated -> body_literals
            | Instance.Derives h -> body_literals @ [ { atom = h; positive = true } ])
        in
        match literals with
        | [] -> ()
        | _ ->
            let weight = rule.Logic.Rule.weight in
            let tautology =
              (* e.g. a reflexive self-join pairing a fact with itself:
                 (-a v ... v +a) is always true. *)
              List.exists
                (fun l ->
                  l.positive
                  && List.exists
                       (fun l' -> (not l'.positive) && l'.atom = l.atom)
                       literals)
                literals
            in
            if not tautology then
              if weight = None then begin
                let key =
                  List.sort compare
                    (List.map (fun l -> (l.atom, l.positive)) literals)
                in
                if not (Hashtbl.mem seen_hard key) then begin
                  Hashtbl.replace seen_hard key ();
                  push literals None rule.Logic.Rule.name
                end
              end
              else push literals weight rule.Logic.Rule.name)
      (Instance.of_instances instances);
    { num_atoms = Store.size store; clauses = Vec.to_array clauses }

  (* The list-based exact search, verbatim. *)
  type exact_result = {
    assignment : bool array;
    soft_cost : float;
    nodes : int;
    optimal : bool;
  }

  type undo = {
    mutable trail : int list; (* vars assigned since the choice point *)
  }

  (* Deadline polls are strided: a node expansion is tens of nanoseconds,
     a clock read is not. 1024 nodes stay well under a millisecond. *)
  let deadline_stride = 1024

  let exact ?(max_nodes = 2_000_000) ?(deadline = Prelude.Deadline.none)
      (network : network) =
    let n = network.num_atoms in
    let clauses = network.clauses in
    let num_clauses = Array.length clauses in
    (* -1 unassigned, 0 false, 1 true *)
    let value = Array.make n (-1) in
    let occurrences = Array.make n [] in
    Array.iteri
      (fun ci (c : clause) ->
        Array.iter
          (fun (l : literal) ->
            occurrences.(l.atom) <- ci :: occurrences.(l.atom))
          c.literals)
      clauses;
    (* Variable order: descending occurrence count (most constrained first). *)
    let order =
      let vars = Array.init n (fun v -> v) in
      Array.sort
        (fun a b ->
          Int.compare (List.length occurrences.(b)) (List.length occurrences.(a)))
        vars;
      vars
    in
    let lit_state (l : literal) =
      match value.(l.atom) with
      | -1 -> `Unassigned
      | v -> if (v = 1) = l.positive then `True else `False
    in
    let clause_state ci =
      let c = clauses.(ci) in
      let unassigned = ref 0 in
      let satisfied = ref false in
      Array.iter
        (fun l ->
          match lit_state l with
          | `True -> satisfied := true
          | `False -> ()
          | `Unassigned -> incr unassigned)
        c.literals;
      if !satisfied then `Satisfied
      else if !unassigned = 0 then `Violated
      else `Open !unassigned
    in
    let incumbent = ref None in
    let incumbent_cost = ref infinity in
    let nodes = ref 0 in
    let exhausted = ref false in
    (* Current violated soft weight on the path. *)
    let violated_soft = ref 0.0 in
    let assign_var trail v b =
      value.(v) <- (if b then 1 else 0);
      trail.trail <- v :: trail.trail
    in
    let unwind trail =
      List.iter (fun v -> value.(v) <- -1) trail.trail;
      trail.trail <- []
    in
    (* Propagate hard unit clauses; returns false on hard conflict. Also
       accumulates soft weight of clauses that became fully violated. *)
    let rec propagate trail touched =
      match touched with
      | [] -> true
      | v :: rest ->
          let conflict = ref false in
          let new_touched = ref rest in
          List.iter
            (fun ci ->
              let c = clauses.(ci) in
              if not !conflict then
                match clause_state ci with
                | `Satisfied -> ()
                | `Violated -> if c.weight = None then conflict := true
                | `Open 1 when c.weight = None ->
                    (* Hard unit: force the remaining literal. *)
                    Array.iter
                      (fun (l : literal) ->
                        if lit_state l = `Unassigned then begin
                          assign_var trail l.atom l.positive;
                          new_touched := l.atom :: !new_touched
                        end)
                      c.literals
                | `Open _ -> ())
            occurrences.(v);
          (not !conflict) && propagate trail !new_touched
    in
    (* Soft cost is tracked incrementally: a soft clause is charged the
       first time it becomes fully violated (stamped so it is charged only
       once) and uncharged on backtrack. *)
    let charged = Array.make num_clauses false in
    let charge_stack = ref [] in
    let charge_soft trail_vars =
      List.iter
        (fun v ->
          List.iter
            (fun ci ->
              let c = clauses.(ci) in
              match c.weight with
              | Some w when (not charged.(ci)) && clause_state ci = `Violated ->
                  charged.(ci) <- true;
                  charge_stack := (ci, w) :: !charge_stack;
                  violated_soft := !violated_soft +. w
              | _ -> ())
            occurrences.(v))
        trail_vars
    in
    let uncharge until =
      let rec loop () =
        if !charge_stack != until then
          match !charge_stack with
          | [] -> ()
          | (ci, w) :: rest ->
              charged.(ci) <- false;
              violated_soft := !violated_soft -. w;
              charge_stack := rest;
              loop ()
      in
      loop ()
    in
    let record_solution () =
      if !violated_soft < !incumbent_cost -. 1e-12 then begin
        incumbent_cost := !violated_soft;
        incumbent :=
          Some (Array.map (fun v -> v = 1) value)
      end
    in
    let rec search depth =
      if
        !nodes >= max_nodes
        || (!nodes land (deadline_stride - 1) = 0
           && Prelude.Deadline.expired deadline)
      then exhausted := true
      else begin
        incr nodes;
        if !violated_soft >= !incumbent_cost -. 1e-12 then () (* prune *)
        else begin
          (* Next unassigned variable in static order. *)
          let rec next i =
            if i >= n then None
            else if value.(order.(i)) = -1 then Some i
            else next (i + 1)
          in
          match next depth with
          | None -> record_solution ()
          | Some i ->
              let v = order.(i) in
              let try_value b =
                let trail = { trail = [] } in
                let saved_charges = !charge_stack in
                assign_var trail v b;
                if propagate trail [ v ] then begin
                  charge_soft trail.trail;
                  if !violated_soft < !incumbent_cost -. 1e-12 then
                    search (i + 1)
                end;
                uncharge saved_charges;
                unwind trail
              in
              try_value true;
              try_value false
        end
      end
    in
    search 0;
    match !incumbent with
    | None -> None
    | Some assignment ->
        Some
          {
            assignment;
            soft_cost = !incumbent_cost;
            nodes = !nodes;
            optimal = not !exhausted;
          }

  (* The Hashtbl-and-list component split that the counting-sort one
     replaced, verbatim. *)
  type component = {
    atoms : int array;
    network : network;
  }

  let split (network : network) =
    let n = network.num_atoms in
    let parent = Array.init n Fun.id in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
    in
    Array.iter
      (fun (c : clause) ->
        let lits = c.literals in
        if Array.length lits > 1 then begin
          let a0 = lits.(0).atom in
          Array.iter (fun (l : literal) -> union a0 l.atom) lits
        end)
      network.clauses;
    (* Union by smallest root, so each component's root is its smallest
       atom and first-seen order of roots is ascending — components come
       out in a canonical, job-count-independent order. *)
    let members = Hashtbl.create 64 in
    let roots = ref [] in
    for i = 0 to n - 1 do
      let r = find i in
      (match Hashtbl.find_opt members r with
      | None ->
          roots := r :: !roots;
          Hashtbl.add members r (ref [ i ])
      | Some l -> l := i :: !l)
    done;
    let roots = List.rev !roots in
    let local = Array.make n 0 in
    let atoms_of_root =
      List.map
        (fun r ->
          let atoms = Array.of_list (List.rev !(Hashtbl.find members r)) in
          Array.iteri (fun li a -> local.(a) <- li) atoms;
          (r, atoms))
        roots
    in
    let clauses_of_root = Hashtbl.create 64 in
    List.iter (fun (r, _) -> Hashtbl.add clauses_of_root r (ref [])) atoms_of_root;
    let orphan = ref false in
    Array.iter
      (fun (c : clause) ->
        if Array.length c.literals = 0 then orphan := true
        else begin
          let r = find c.literals.(0).atom in
          let cell = Hashtbl.find clauses_of_root r in
          cell :=
            {
              c with
              literals =
                Array.map
                  (fun (l : literal) ->
                    { l with atom = local.(l.atom) })
                  c.literals;
            }
            :: !cell
        end)
      network.clauses;
    if !orphan then
      (* A zero-literal clause has no component to live in; solving such a
         network piecewise could silently drop it. Degenerate and (with
         the current builder) unreachable — fall back to one component. *)
      [ { atoms = Array.init n Fun.id; network } ]
    else
      List.map
        (fun (r, atoms) ->
          let clauses = Array.of_list (List.rev !(Hashtbl.find clauses_of_root r)) in
          {
            atoms;
            network = { num_atoms = Array.length atoms; clauses };
          })
        atoms_of_root
end

(* Random small weighted partial MaxSAT instances: hard, soft and unit
   clauses over 1 to [max_atoms] atoms. Repeated and complementary
   literals are left in — the packed kernel must reproduce the
   reference's update sequence even there. Weights are tenths, so
   different sums land within float rounding of each other (0.1 + 0.2 <>
   0.3): near-ties inside the 1e-12 tolerance occur. *)
let weighted_maxsat rng ~max_atoms =
  let num_atoms = 1 + Prelude.Prng.int rng max_atoms in
  let clauses =
    Array.init
      (1 + Prelude.Prng.int rng 30)
      (fun i ->
        let len =
          if Prelude.Prng.bernoulli rng 0.3 then 1 else 1 + Prelude.Prng.int rng 4
        in
        ( Array.to_list
            (Array.init len (fun _ ->
                 (Prelude.Prng.int rng num_atoms, Prelude.Prng.bool rng))),
          (if Prelude.Prng.bernoulli rng 0.3 then None
           else Some (float_of_int (1 + Prelude.Prng.int rng 30) /. 10.)),
          Printf.sprintf "c%d" i ))
  in
  Network.of_clauses ~num_atoms (Array.to_list clauses)

(* Up to 24 atoms: both sides of MaxWalkSAT's 16-atom exact-optimum
   threshold. *)
let oracle_case case_seed =
  let rng = Prelude.Prng.create case_seed in
  let network = weighted_maxsat rng ~max_atoms:24 in
  let num_atoms = network.Network.num_atoms in
  let init =
    if Prelude.Prng.bool rng then
      Some (Array.init num_atoms (fun _ -> Prelude.Prng.bool rng))
    else None
  in
  ( network,
    init,
    Prelude.Prng.int rng 1_000,
    1 + Prelude.Prng.int rng 4,
    [| 50; 500; 2_000 |].(Prelude.Prng.int rng 3) )

let arbitrary_case =
  QCheck.make
    ~print:(fun case_seed ->
      let network, _, seed, restarts, max_flips = oracle_case case_seed in
      Format.asprintf "case %d: seed %d restarts %d max_flips %d@.%a"
        case_seed seed restarts max_flips Network.pp network)
    QCheck.Gen.(int_bound 1_000_000)

(* Component order and within-component clause order are the solve
   cache's key contract. *)
let qcheck_split_matches_reference =
  QCheck.Test.make ~name:"counting-sort split = Hashtbl reference" ~count:300
    arbitrary_case (fun case_seed ->
      let network, _, _, _, _ = oracle_case case_seed in
      List.map
        (fun (c : Mln.Decompose.component) ->
          { Reference.atoms = c.atoms; network = Reference.boxed c.network })
        (Mln.Decompose.split network)
      = Reference.split (Reference.boxed network))

(* A zero-literal clause belongs to no component, so the split must
   fall back to one component holding the whole network. *)
let test_zero_literal_fallback () =
  let network =
    Network.of_clauses ~num_atoms:3
      [
        ([ (0, true) ], Some 1.0, "a");
        ([], Some 2.0, "empty");
        ([ (1, false); (2, true) ], None, "b");
      ]
  in
  (match Mln.Decompose.split network with
  | [ c ] ->
      Alcotest.(check (array int)) "every atom" [| 0; 1; 2 |]
        c.Mln.Decompose.atoms;
      Alcotest.(check bool) "the whole network" true
        (c.Mln.Decompose.network = network)
  | cs -> Alcotest.failf "%d components, expected one" (List.length cs));
  let init = [| false; true; false |] in
  let walk net ~init = Mln.Maxwalksat.solve ~seed:3 ~max_flips:500 ~init net in
  let values, status =
    Mln.Decompose.solve ~init
      ~solve_component:(fun net ~init ->
        let values, s = walk net ~init in
        { Mln.Decompose.values; status = s.Mln.Maxwalksat.status })
      network
  in
  let global, s = walk network ~init in
  Alcotest.(check (array bool)) "decomposed = global" global values;
  Alcotest.(check bool) "same status" true (s.Mln.Maxwalksat.status = status)

let qcheck_packed_matches_reference =
  QCheck.Test.make ~name:"packed kernel = list-based reference, bit for bit"
    ~count:300
    arbitrary_case
    (fun case_seed ->
      let network, init, seed, restarts, max_flips = oracle_case case_seed in
      let x, s =
        Mln.Maxwalksat.solve ~seed ~restarts ~max_flips ?init network
      in
      let rx, rs =
        Reference.solve ~seed ~restarts ~max_flips ?init
          (Reference.boxed network)
      in
      (* Where the packed kernel proves the optimum first (small
         networks with a soft clause and satisfiable hard clauses) it
         may stop sooner than the reference's (0, 0) rule, never
         later. *)
      let targeted =
        network.Network.num_atoms <= 16
        && Array.exists not network.Network.hard
        && Mln.Exact.solve network <> None
      in
      x = rx
      && s.Mln.Maxwalksat.hard_violated = rs.Reference.hard_violated
      && Int64.equal
           (Int64.bits_of_float s.Mln.Maxwalksat.soft_cost)
           (Int64.bits_of_float rs.Reference.soft_cost)
      && ((targeted && s.Mln.Maxwalksat.flips <= rs.Reference.flips)
         || s.Mln.Maxwalksat.flips = rs.Reference.flips
            && s.Mln.Maxwalksat.restarts_used = rs.Reference.restarts_used
            && s.Mln.Maxwalksat.status = rs.Reference.status))

(* Two contradicting soft unit clauses keep one clause violated without
   ever improving, so every descent runs to its flip budget: a solve's
   allocation must not grow with that budget. The network has 17 atoms,
   one more than MaxWalkSAT proves optima for, so no descent learns it
   already holds the optimum. *)
let test_flip_loop_allocation_free () =
  let unit positive = ([ (0, positive) ], Some 1.0, "u") in
  let network = Network.of_clauses ~num_atoms:17 [ unit true; unit false ] in
  let words max_flips =
    let before = Gc.minor_words () in
    let _, stats =
      Mln.Maxwalksat.solve ~restarts:1 ~max_flips ~stall:max_int network
    in
    Alcotest.(check int) "ran to budget" max_flips stats.Mln.Maxwalksat.flips;
    Gc.minor_words () -. before
  in
  ignore (words 100);
  let short = words 100 and long = words 100_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 100 flips, %.0f for 100000" short long)
    true
    (long -. short < 64.)

(* [Exact.solve] against exhaustive enumeration. MaxWalkSAT stops at
   the soft cost Exact proves optimal, so a cost reported too high would
   end a descent early and change its answer. *)
let qcheck_exact_matches_enumeration =
  QCheck.Test.make ~name:"exact = exhaustive enumeration (<= 12 atoms)"
    ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun case_seed ->
      let network =
        weighted_maxsat (Prelude.Prng.create case_seed) ~max_atoms:12
      in
      let n = network.Network.num_atoms in
      let assignment_of bits = Array.init n (fun v -> bits land (1 lsl v) <> 0) in
      (* The cheapest soft cost over the hard-feasible assignments. *)
      let minimum = ref None in
      for bits = 0 to (1 lsl n) - 1 do
        let a = assignment_of bits in
        if Network.hard_violations network a = 0 then
          let c = soft_cost network a in
          match !minimum with
          | Some m when m <= c -> ()
          | _ -> minimum := Some c
      done;
      let at_minimum m a =
        Network.hard_violations network a = 0
        && Float.abs (soft_cost network a -. m) <= 1e-12
      in
      match (Mln.Exact.solve network, !minimum) with
      | None, None -> true
      | Some r, Some m ->
          r.Mln.Exact.optimal
          && at_minimum m r.Mln.Exact.assignment
          && Float.abs (r.Mln.Exact.soft_cost -. m) <= 1e-12
          && (match Mln.Ilp_encoding.solve network with
             | Some (x, true) -> at_minimum m x
             | Some (_, false) | None -> true)
      | Some _, None | None, Some _ -> false)

(* Packed [Exact.solve] against the list-based reference, bit for bit:
   same assignment, soft-cost bits, node count and optimality flag.
   The generator mixes hard and soft clauses, hard units (which drive
   propagation) and repeated atoms; a node budget of 1 to 60 cuts many
   searches short, so [optimal = false] incumbents are compared too. *)
let exact_case case_seed =
  let rng = Prelude.Prng.create case_seed in
  let network = weighted_maxsat rng ~max_atoms:12 in
  let max_nodes =
    if Prelude.Prng.bool rng then 1 + Prelude.Prng.int rng 60 else 2_000_000
  in
  (network, max_nodes)

let exact_matches_reference case_seed =
  let network, max_nodes = exact_case case_seed in
  match
    ( Mln.Exact.solve ~max_nodes network,
      Reference.exact ~max_nodes (Reference.boxed network) )
  with
  | None, None -> true
  | Some r, Some rr ->
      r.Mln.Exact.assignment = rr.Reference.assignment
      && Int64.equal
           (Int64.bits_of_float r.Mln.Exact.soft_cost)
           (Int64.bits_of_float rr.Reference.soft_cost)
      && r.Mln.Exact.nodes = rr.Reference.nodes
      && r.Mln.Exact.optimal = rr.Reference.optimal
  | Some _, None | None, Some _ -> false

let qcheck_exact_matches_reference =
  QCheck.Test.make ~name:"packed exact = list-based reference, bit for bit"
    ~count:500
    QCheck.(
      make
        ~print:(fun case_seed ->
          let network, max_nodes = exact_case case_seed in
          Format.asprintf "case %d: max_nodes %d@.%a" case_seed max_nodes
            Network.pp network)
        Gen.(int_bound 1_000_000))
    exact_matches_reference

(* The generator reaches every outcome the property compares. *)
let test_exact_cases_cover_outcomes () =
  let outcomes =
    List.init 500 (fun case_seed ->
        let network, max_nodes = exact_case case_seed in
        match Mln.Exact.solve ~max_nodes network with
        | None -> `Unsat
        | Some { Mln.Exact.optimal = false; _ } -> `Cut
        | Some _ -> `Optimal)
  in
  List.iter
    (fun (what, outcome) ->
      Alcotest.(check bool) what true (List.mem outcome outcomes))
    [ ("unsatisfiable", `Unsat); ("cut short", `Cut); ("optimal", `Optimal) ]

(* Packed [Network.build] against the boxed reference, clause by clause
   (literals, weight, hard flag, source), on FootballDB and the bundled
   data files, under the default and a non-default config. *)
let check_build_matches_reference name store instances =
  List.iter
    (fun config ->
      let packed = Network.build ~config store instances in
      let reference = Reference.build ~config store instances in
      Alcotest.(check int) (name ^ ": atoms") reference.Reference.num_atoms
        packed.Network.num_atoms;
      Alcotest.(check int) (name ^ ": clauses")
        (Array.length reference.Reference.clauses)
        (Network.num_clauses packed);
      Array.iteri
        (fun ci c ->
          if c <> reference.Reference.clauses.(ci) then
            Alcotest.failf "%s: clause %d differs: %a" name ci
              (Network.pp_clause packed) ci)
        (Reference.boxed packed).Reference.clauses)
    [
      Network.default_config;
      {
        Network.hidden_prior = 0.0;
        evidence_bonus = -0.3;
        evidence_hard = false;
      };
    ]

let test_build_matches_reference_footballdb () =
  List.iter
    (fun seed ->
      let d =
        Datagen.Footballdb.generate ~seed ~players:150 ~noise_ratio:0.5 ()
      in
      let store = Store.of_graph d.Datagen.Footballdb.graph in
      let rules =
        Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ()
      in
      List.iter
        (fun lazy_constraints ->
          let result = Grounder.Ground.run ~lazy_constraints store rules in
          check_build_matches_reference
            (Printf.sprintf "FootballDB-150 seed %d" seed)
            store result.Grounder.Ground.instances)
        [ true; false ])
    [ 1; 2; 3 ]

(* Self-joins: a rule deriving one of its own body facts grounds
   tautologies (-a v -b v +a), a constraint binding one fact twice
   grounds (-a v -a), and symmetric groundings repeat hard clauses. *)
let test_build_matches_reference_self_joins () =
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.9;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 0.6;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "C") (2010, 2012) 1.0;
      ]
  in
  let rules =
    parse_rules
      {|constraint c: coach(x, y)@t ^ coach(x, z)@t2 => before(t, t2) .
constraint d: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule keep 0.7: coach(x, y)@t ^ coach(x, z)@t2 => coach(x, y)@t .|}
  in
  let store = Store.of_graph graph in
  let result = Grounder.Ground.run store rules in
  check_build_matches_reference "self-joins" store
    result.Grounder.Ground.instances

let test_build_matches_reference_data () =
  List.iter
    (fun name ->
      let ns = Kg.Namespace.create () in
      let tq = Printf.sprintf "../data/%s.tq" name in
      let graph =
        match Kg.Nquads.parse_file ~namespace:ns tq with
        | Ok g -> g
        | Error e -> Alcotest.failf "%s: %a" tq Kg.Nquads.pp_error e
      in
      let rules =
        let path = Printf.sprintf "../data/%s.rules" name in
        match Rulelang.Parser.parse_file ~namespace:ns path with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %a" path Rulelang.Parser.pp_error e
      in
      let store = Store.of_graph graph in
      let result = Grounder.Ground.run ~lazy_constraints:true store rules in
      check_build_matches_reference tq store result.Grounder.Ground.instances)
    [ "ranieri"; "football" ]

(* The Ranieri coach clash in miniature: two uncertain coach facts and
   the hard constraint forbidding both. Small enough that MaxWalkSAT
   proves its optimum before walking. *)
let coach_conflict () =
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
      ]
  in
  let rules =
    parse_rules
      "constraint c: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
  in
  let store = Store.of_graph graph in
  let result = Grounder.Ground.run store rules in
  let network = Network.build store result.Grounder.Ground.instances in
  (network, Network.initial_assignment network store)

let test_stop_at_optimum () =
  let network, init = coach_conflict () in
  let x, s = Mln.Maxwalksat.solve ~init network in
  let rx, rs = Reference.solve ~init (Reference.boxed network) in
  Alcotest.(check (array bool)) "reference's assignment" rx x;
  Alcotest.(check int) "no restart" 0 s.Mln.Maxwalksat.restarts_used;
  Alcotest.(check bool)
    (Printf.sprintf "%d flips, under the stall budget" s.Mln.Maxwalksat.flips)
    true
    (s.Mln.Maxwalksat.flips < 20_000);
  Alcotest.(check bool) "the reference walks on" true
    (rs.Reference.flips > s.Mln.Maxwalksat.flips)

(* A deadline decides when the walk stops, never what it does: one that
   has not expired proves the same optimum and walks the same flips as
   none, and an expired one proves none and walks no flip. *)
let test_deadline_keeps_optimum () =
  let network, init = coach_conflict () in
  let solve ?deadline () =
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        let x, s = Mln.Maxwalksat.solve ~init ?deadline network in
        let known =
          List.assoc_opt "walksat.optimum_known"
            (Obs.Report.capture ()).Obs.Report.counters
        in
        (x, s, Option.value known ~default:0.))
  in
  let x, s, known = solve () in
  Alcotest.(check (float 0.)) "optimum proven" 1. known;
  let x', s', known' =
    solve ~deadline:(Prelude.Deadline.after ~ms:600_000.) ()
  in
  Alcotest.(check (float 0.)) "live deadline: optimum proven" 1. known';
  Alcotest.(check (array bool)) "live deadline: same assignment" x x';
  Alcotest.(check int) "live deadline: same flips" s.Mln.Maxwalksat.flips
    s'.Mln.Maxwalksat.flips;
  Alcotest.(check int) "live deadline: same restarts"
    s.Mln.Maxwalksat.restarts_used s'.Mln.Maxwalksat.restarts_used;
  Alcotest.(check bool) "live deadline: completed" true
    (s'.Mln.Maxwalksat.status = Prelude.Deadline.Completed);
  let _, s'', known'' = solve ~deadline:(Prelude.Deadline.after ~ms:0.) () in
  Alcotest.(check (float 0.)) "expired deadline: no optimum" 0. known'';
  Alcotest.(check int) "expired deadline: no flip" 0 s''.Mln.Maxwalksat.flips;
  Alcotest.(check bool) "expired deadline: not completed" true
    (s''.Mln.Maxwalksat.status <> Prelude.Deadline.Completed)

(* The walk's traced counters keep their names and agree with the stats
   it returns. Twenty atoms, each with a soft clause for it and a
   lighter one against it: no assignment costs nothing and the network
   is too large for an exact optimum, so no descent stops early and all
   three run, one after another. Faults configured by the environment
   are cleared for the solve, so that no descent crashes, and restored
   after it. *)
let test_traced_counters_match_stats () =
  let num_atoms = 20 in
  let network =
    Network.of_clauses ~num_atoms
      (List.concat
         (List.init num_atoms (fun i ->
              [
                ([ (i, true) ], Some 1.0, Printf.sprintf "for%d" i);
                ([ (i, false) ], Some 0.5, Printf.sprintf "against%d" i);
              ])))
  in
  Prelude.Deadline.Faults.clear ();
  Obs.reset ();
  Obs.set_enabled true;
  let _, s, counters =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ();
        Option.iter Prelude.Deadline.Faults.configure
          (Sys.getenv_opt "TECORE_FAULTS"))
      (fun () ->
        let x, s = Mln.Maxwalksat.solve ~seed:3 ~restarts:3 ~max_flips:200 network in
        (x, s, (Obs.Report.capture ()).Obs.Report.counters))
  in
  let counter name =
    match List.assoc_opt name counters with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "no %s counter" name
  in
  Alcotest.(check int) "walksat.portfolio_tasks: every descent" 3
    (counter "walksat.portfolio_tasks");
  Alcotest.(check int) "walksat.flips" s.Mln.Maxwalksat.flips
    (counter "walksat.flips");
  Alcotest.(check int) "walksat.restarts" s.Mln.Maxwalksat.restarts_used
    (counter "walksat.restarts");
  Alcotest.(check bool) "soft cost left" true (s.Mln.Maxwalksat.soft_cost > 0.);
  Alcotest.(check bool) "completed" true
    (s.Mln.Maxwalksat.status = Prelude.Deadline.Completed)

let test_negative_confidence_evidence () =
  (* Confidence < 0.5 evidence becomes a negated unit clause; MAP should
     drop the fact even without constraints. *)
  let graph =
    Kg.Graph.of_list [ Kg.Quad.v "a" "p" (Kg.Term.iri "b") (1, 2) 0.2 ]
  in
  let out = Mln.Map_inference.run graph [] in
  Alcotest.(check bool) "dropped" false out.Mln.Map_inference.assignment.(0)

let test_hard_evidence_immovable () =
  (* Certain facts survive even when a hard constraint prefers dropping
     one of two conflicting uncertain facts. *)
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 1.0;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 0.95;
      ]
  in
  let rules =
    parse_rules
      "constraint c: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
  in
  let out = Mln.Map_inference.run graph rules in
  Alcotest.(check bool) "certain fact kept" true out.Mln.Map_inference.assignment.(0);
  Alcotest.(check bool) "uncertain fact dropped" false
    out.Mln.Map_inference.assignment.(1);
  Alcotest.(check int) "resolved" 0
    out.Mln.Map_inference.stats.Mln.Map_inference.hard_violations

let () =
  Alcotest.run "mln"
    [
      ( "network",
        [
          Alcotest.test_case "shape" `Quick test_network_shape;
          Alcotest.test_case "satisfaction/score" `Quick
            test_clause_satisfaction_and_score;
          Alcotest.test_case "satisfied_if" `Quick test_satisfied_if;
          Alcotest.test_case "repair_hard" `Quick test_repair_hard;
          Alcotest.test_case "repeated literals collapse" `Quick
            test_repeated_literals_collapse;
          Alcotest.test_case "build = boxed reference (FootballDB)" `Quick
            test_build_matches_reference_footballdb;
          Alcotest.test_case "build = boxed reference (data files)" `Quick
            test_build_matches_reference_data;
          Alcotest.test_case "build = boxed reference (self-joins)" `Quick
            test_build_matches_reference_self_joins;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "walk on running example" `Quick
            test_walk_running_example;
          Alcotest.test_case "exact on running example" `Quick
            test_exact_running_example;
          Alcotest.test_case "ilp on running example" `Quick
            test_ilp_running_example;
          Alcotest.test_case "unsat hard detected" `Quick test_exact_unsat_hard;
          Alcotest.test_case "solvers agree on random nets" `Slow
            test_solvers_agree_on_random_networks;
          QCheck_alcotest.to_alcotest qcheck_packed_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_split_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_exact_matches_enumeration;
          QCheck_alcotest.to_alcotest qcheck_exact_matches_reference;
          Alcotest.test_case "exact cases cover every outcome" `Quick
            test_exact_cases_cover_outcomes;
          Alcotest.test_case "stop at the proven optimum" `Quick
            test_stop_at_optimum;
          Alcotest.test_case "a deadline keeps the optimum until it expires"
            `Quick test_deadline_keeps_optimum;
          Alcotest.test_case "traced counters match the stats" `Quick
            test_traced_counters_match_stats;
          Alcotest.test_case "zero-literal clause" `Quick
            test_zero_literal_fallback;
          Alcotest.test_case "flip loop allocation-free" `Quick
            test_flip_loop_allocation_free;
        ] );
      ( "cpi",
        [ Alcotest.test_case "agrees with direct" `Quick test_cpi_agrees_with_direct ] );
      ( "pipeline",
        [
          Alcotest.test_case "map_inference" `Quick test_map_inference_pipeline;
          Alcotest.test_case "low-confidence evidence" `Quick
            test_negative_confidence_evidence;
          Alcotest.test_case "hard evidence immovable" `Quick
            test_hard_evidence_immovable;
        ] );
    ]
