module Vec = Prelude.Vec
module Store = Grounder.Atom_store
module Instance = Grounder.Ground.Instance

type literal = { atom : int; positive : bool }

type clause = {
  literals : literal array;
  weight : float option;
  source : string;
}

type t = {
  num_atoms : int;
  clauses : clause array;
}

type config = {
  hidden_prior : float;
  evidence_bonus : float;
  evidence_hard : bool;
}

let default_config =
  { hidden_prior = 0.005; evidence_bonus = 0.1; evidence_hard = true }

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

let build ?(config = default_config) store instances =
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
              (if config.evidence_hard then None else Some Kg.Quad.max_weight)
              "evidence"
          else begin
            (* Confidence below 0.5 has a negative log-odds weight; keep
               all clause weights positive by asserting the negation. *)
            let w = logit confidence +. config.evidence_bonus in
            if w > 0.0 then
              push [ { atom = id; positive = true } ] (Some w) "evidence"
            else if w < 0.0 then
              push [ { atom = id; positive = false } ] (Some (-.w)) "evidence"
          end
      | Store.Hidden ->
          if config.hidden_prior > 0.0 then
            push
              [ { atom = id; positive = false } ]
              (Some config.hidden_prior) "prior")
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
    instances;
  { num_atoms = Store.size store; clauses = Vec.to_array clauses }

let clause_satisfied c x =
  Array.exists (fun l -> x.(l.atom) = l.positive) c.literals

let hard_violations t x =
  Array.fold_left
    (fun acc c ->
      if c.weight = None && not (clause_satisfied c x) then acc + 1 else acc)
    0 t.clauses

(* Greedy descent on the hard-violation count alone. Used by the
   anytime path to restore hard-soundness after a budget expiry cut the
   real search short: each applied flip strictly decreases the number
   of violated hard clauses, so the loop terminates after at most the
   initial violation count and never needs a time budget of its own. *)
let repair_hard t x =
  let occ = Array.make t.num_atoms [] in
  let rev_hard = ref [] in
  Array.iteri
    (fun c (clause : clause) ->
      if clause.weight = None then begin
        rev_hard := c :: !rev_hard;
        Array.iter
          (fun l -> occ.(l.atom) <- c :: occ.(l.atom))
          clause.literals
      end)
    t.clauses;
  let violated c = not (clause_satisfied t.clauses.(c) x) in
  let count_violated cs = List.length (List.filter violated cs) in
  let delta a =
    let before = count_violated occ.(a) in
    x.(a) <- not x.(a);
    let after = count_violated occ.(a) in
    x.(a) <- not x.(a);
    after - before
  in
  let hard = List.rev !rev_hard in
  let total = ref (count_violated hard) in
  let progress = ref true in
  while !total > 0 && !progress do
    progress := false;
    (* The first still-violated hard clause, lowest index first, keeps
       the repair deterministic. *)
    match List.find_opt violated hard with
    | None -> total := 0
    | Some c ->
        let best = ref None in
        Array.iter
          (fun (l : literal) ->
            let d = delta l.atom in
            match !best with
            | Some (_, bd) when bd <= d -> ()
            | _ -> best := Some (l.atom, d))
          t.clauses.(c).literals;
        (match !best with
        | Some (a, d) when d < 0 ->
            x.(a) <- not x.(a);
            total := !total + d;
            progress := true
        | _ -> ())
  done;
  !total

let score t x =
  Array.fold_left
    (fun acc c ->
      match c.weight with
      | Some w when clause_satisfied c x -> acc +. w
      | _ -> acc)
    0.0 t.clauses

let cost t x =
  Array.fold_left
    (fun acc c ->
      match c.weight with
      | Some w when not (clause_satisfied c x) -> acc +. w
      | _ -> acc)
    0.0 t.clauses

let initial_assignment t store =
  let x = Array.make t.num_atoms false in
  Store.iter
    (fun id _ origin ->
      match origin with
      | Store.Evidence _ -> x.(id) <- true
      | Store.Hidden -> ())
    store;
  x

let expanded_assignment t = Array.make t.num_atoms true

let pp_literal ppf l =
  Format.fprintf ppf "%s%d" (if l.positive then "+" else "-") l.atom

let pp_clause ppf c =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " v ")
       pp_literal)
    (Array.to_list c.literals);
  (match c.weight with
  | None -> Format.pp_print_string ppf " [hard]"
  | Some w -> Format.fprintf ppf " w=%g" w);
  Format.fprintf ppf " <%s>" c.source

let pp ppf t =
  let hard =
    Array.fold_left
      (fun acc c -> if c.weight = None then acc + 1 else acc)
      0 t.clauses
  in
  Format.fprintf ppf "@[<v>network: %d atoms, %d clauses (%d hard)" t.num_atoms
    (Array.length t.clauses) hard;
  Array.iteri
    (fun i c -> if i < 10 then Format.fprintf ppf "@ %a" pp_clause c)
    t.clauses;
  if Array.length t.clauses > 10 then Format.fprintf ppf "@ ...";
  Format.fprintf ppf "@]"
