module Vec = Prelude.Vec
module Ivec = Prelude.Ivec
module Store = Grounder.Atom_store

type t = {
  num_atoms : int;
  offsets : int array;
  lits : int array;
  weights : float array;
  hard : bool array;
  source : int array;
  sources : string array;
}

type config = {
  hidden_prior : float;
  evidence_bonus : float;
  evidence_hard : bool;
}

let default_config =
  { hidden_prior = 0.005; evidence_bonus = 0.1; evidence_hard = true }

let num_clauses t = Array.length t.weights

(* Literal codes: the atom in the high bits, the sign in bit 0. *)
let[@inline] code atom positive = (atom * 2) + Bool.to_int positive
let[@inline] literal_true x code = x.(code lsr 1) = (code land 1 = 1)

(* Source names interned in order of first use. *)
let interner () =
  let ids = Hashtbl.create 8 and names = Vec.create () in
  let intern name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
        let i = Vec.length names in
        Hashtbl.replace ids name i;
        Vec.push names name;
        i
  in
  (intern, fun () -> Vec.to_array names)

let of_clauses ~num_atoms clauses =
  let nc = List.length clauses in
  let offsets = Array.make (nc + 1) 0 in
  let weights = Array.make nc 0.0 in
  let hard = Array.make nc false in
  let source = Array.make nc 0 in
  let lits = Ivec.create () in
  let intern, sources = interner () in
  List.iteri
    (fun ci (literals, weight, name) ->
      List.iter (fun (a, positive) -> Ivec.push lits (code a positive))
        literals;
      offsets.(ci + 1) <- Ivec.length lits;
      (match weight with
      | None -> hard.(ci) <- true
      | Some w -> weights.(ci) <- w);
      source.(ci) <- intern name)
    clauses;
  {
    num_atoms;
    offsets;
    lits = Ivec.to_array lits;
    weights;
    hard;
    source;
    sources = sources ();
  }

let append a b =
  let shift = Array.length a.lits in
  let base = Array.length a.sources in
  {
    num_atoms = max a.num_atoms b.num_atoms;
    offsets =
      Array.append a.offsets
        (Array.init (num_clauses b) (fun ci -> b.offsets.(ci + 1) + shift));
    lits = Array.append a.lits b.lits;
    weights = Array.append a.weights b.weights;
    hard = Array.append a.hard b.hard;
    source = Array.append a.source (Array.map (fun s -> s + base) b.source);
    sources = Array.append a.sources b.sources;
  }

let sub ?local ~num_atoms t clauses =
  let nc = Array.length clauses in
  let offsets = Array.make (nc + 1) 0 in
  for i = 0 to nc - 1 do
    let ci = clauses.(i) in
    offsets.(i + 1) <- offsets.(i) + t.offsets.(ci + 1) - t.offsets.(ci)
  done;
  let lits = Array.make offsets.(nc) 0 in
  let weights = Array.make nc 0.0 in
  let hard = Array.make nc false in
  let source = Array.make nc 0 in
  for i = 0 to nc - 1 do
    let ci = clauses.(i) in
    let shift = t.offsets.(ci) - offsets.(i) in
    for j = offsets.(i) to offsets.(i + 1) - 1 do
      let c = t.lits.(shift + j) in
      lits.(j) <-
        (match local with
        | None -> c
        | Some local -> (local.(c lsr 1) * 2) + (c land 1))
    done;
    weights.(i) <- t.weights.(ci);
    hard.(i) <- t.hard.(ci);
    source.(i) <- t.source.(ci)
  done;
  { num_atoms; offsets; lits; weights; hard; source; sources = t.sources }

let logit confidence =
  let w = log (confidence /. (1.0 -. confidence)) in
  Float.min Kg.Quad.max_weight (Float.max (-.Kg.Quad.max_weight) w)

let build ?(config = default_config) store instances =
  let n = Store.size store in
  (* At most one clause per atom and one per instance. *)
  let cap = n + Array.length instances.Grounder.Ground.rule in
  let offsets = Array.make (cap + 1) 0 in
  let weights = Array.make cap 0.0 in
  let hard = Array.make cap false in
  let source = Array.make cap 0 in
  let lits = Ivec.create ~capacity:(2 * cap) () in
  let intern, sources = interner () in
  let num_clauses = ref 0 in
  (* Close the clause whose literals were just pushed onto [lits]. *)
  let close weight src =
    let ci = !num_clauses in
    (match weight with
    | None -> hard.(ci) <- true
    | Some w -> weights.(ci) <- w);
    source.(ci) <- src;
    offsets.(ci + 1) <- Ivec.length lits;
    num_clauses := ci + 1
  in
  let unit atom positive weight src =
    Ivec.push lits (code atom positive);
    close weight src
  in
  (* Unit clauses for evidence and hidden priors, by origin alone:
     decoding every atom would cost more than the whole build. *)
  for id = 0 to n - 1 do
    match Store.origin store id with
    | Store.Evidence { confidence; _ } ->
        if confidence >= 1.0 then
          unit id true
            (if config.evidence_hard then None else Some Kg.Quad.max_weight)
            (intern "evidence")
        else begin
          (* Confidence below 0.5 has a negative log-odds weight; keep
             all clause weights positive by asserting the negation. *)
          let w = logit confidence +. config.evidence_bonus in
          if w > 0.0 then unit id true (Some w) (intern "evidence")
          else if w < 0.0 then unit id false (Some (-.w)) (intern "evidence")
        end
    | Store.Hidden ->
        if config.hidden_prior > 0.0 then
          unit id false (Some config.hidden_prior) (intern "prior")
  done;
  (* Clauses from ground rule instances. Each (atom, sign) is kept once,
     first occurrence first: a constraint whose body atoms bind the same
     fact twice grounds e.g. (-a v -a), and solvers count a clause's
     true literals, so a repeated literal would be counted once per
     copy. Identical hard clauses are deduplicated (pure efficiency);
     soft duplicates are genuine distinct groundings and must keep their
     cumulative weight. *)
  let clause = Ivec.create ~capacity:8 () in
  let mem c =
    let rec go i =
      i < Ivec.length clause && (Ivec.get clause i = c || go (i + 1))
    in
    go 0
  in
  let add c = if not (mem c) then Ivec.push clause c in
  (* e.g. a reflexive self-join pairing a fact with itself:
     (-a v ... v +a) is always true. *)
  let tautology () =
    let rec go i =
      i < Ivec.length clause
      && (let c = Ivec.get clause i in
          (c land 1 = 1 && mem (c - 1)) || go (i + 1))
    in
    go 0
  in
  let seen_hard = Hashtbl.create 1024 in
  let { Grounder.Ground.rules; rule; head; offsets = starts; body } =
    instances
  in
  for i = 0 to Array.length rule - 1 do
    Ivec.clear clause;
    let h = head.(i) in
    if h <> Grounder.Ground.satisfied then begin
      for j = starts.(i) to starts.(i + 1) - 1 do
        add (code body.(j) false)
      done;
      if h >= 0 then add (code h true)
    end;
    let len = Ivec.length clause in
    if len > 0 && not (tautology ()) then begin
      let rule = rules.(rule.(i)) in
      let weight = rule.Logic.Rule.weight in
      let fresh =
        weight <> None
        ||
        let key = Array.sub (Ivec.raw clause) 0 len in
        Array.sort Int.compare key;
        (not (Hashtbl.mem seen_hard key))
        && (Hashtbl.replace seen_hard key ();
            true)
      in
      if fresh then begin
        Ivec.append lits (Ivec.raw clause) ~pos:0 ~len;
        close weight (intern rule.Logic.Rule.name)
      end
    end
  done;
  let nc = !num_clauses in
  {
    num_atoms = n;
    offsets = Array.sub offsets 0 (nc + 1);
    lits = Ivec.to_array lits;
    weights = Array.sub weights 0 nc;
    hard = Array.sub hard 0 nc;
    source = Array.sub source 0 nc;
    sources = sources ();
  }

let occurrences t =
  let nc = num_clauses t in
  let start = Array.make (t.num_atoms + 1) 0 in
  Array.iter
    (fun c ->
      let a = c lsr 1 in
      start.(a + 1) <- start.(a + 1) + 1)
    t.lits;
  for a = 0 to t.num_atoms - 1 do
    start.(a + 1) <- start.(a + 1) + start.(a)
  done;
  let occ = Array.make start.(t.num_atoms) 0 in
  let fill = Array.sub start 0 t.num_atoms in
  for ci = nc - 1 downto 0 do
    for j = t.offsets.(ci) to t.offsets.(ci + 1) - 1 do
      let a = t.lits.(j) lsr 1 in
      occ.(fill.(a)) <- ci;
      fill.(a) <- fill.(a) + 1
    done
  done;
  (start, occ)

let clause_satisfied t ci x =
  let stop = t.offsets.(ci + 1) in
  let rec go j = j < stop && (literal_true x t.lits.(j) || go (j + 1)) in
  go t.offsets.(ci)

let satisfied_if t ci x ~atom value =
  let stop = t.offsets.(ci + 1) in
  let rec go j =
    j < stop
    && (let c = t.lits.(j) in
        (if c lsr 1 = atom then value = (c land 1 = 1) else literal_true x c)
        || go (j + 1))
  in
  go t.offsets.(ci)

let hard_violations t x =
  let k = ref 0 in
  for ci = 0 to num_clauses t - 1 do
    if t.hard.(ci) && not (clause_satisfied t ci x) then incr k
  done;
  !k

(* Greedy descent on the hard-violation count alone. Used by the
   anytime path to restore hard-soundness after a budget expiry cut the
   real search short: each applied flip strictly decreases the number
   of violated hard clauses, so the loop terminates after at most the
   initial violation count and never needs a time budget of its own. *)
let repair_hard t x =
  let start, occ = occurrences t in
  let violated ci = t.hard.(ci) && not (clause_satisfied t ci x) in
  (* Violated hard occurrences of [a], once per literal. *)
  let count_violated a =
    let k = ref 0 in
    for o = start.(a) to start.(a + 1) - 1 do
      if violated occ.(o) then incr k
    done;
    !k
  in
  let delta a =
    let before = count_violated a in
    x.(a) <- not x.(a);
    let after = count_violated a in
    x.(a) <- not x.(a);
    after - before
  in
  let nc = num_clauses t in
  (* The first still-violated hard clause, lowest index first, keeps
     the repair deterministic. *)
  let rec first ci = if ci >= nc || violated ci then ci else first (ci + 1) in
  let total = ref (hard_violations t x) in
  let progress = ref true in
  while !total > 0 && !progress do
    progress := false;
    let c = first 0 in
    if c >= nc then total := 0
    else begin
      let best = ref None in
      for j = t.offsets.(c) to t.offsets.(c + 1) - 1 do
        let a = t.lits.(j) lsr 1 in
        let d = delta a in
        match !best with
        | Some (_, bd) when bd <= d -> ()
        | _ -> best := Some (a, d)
      done;
      match !best with
      | Some (a, d) when d < 0 ->
          x.(a) <- not x.(a);
          total := !total + d;
          progress := true
      | _ -> ()
    end
  done;
  !total

(* Soft weight summed in clause order over the soft clauses [x]
   satisfies. *)
let score t x =
  let acc = ref 0.0 in
  for ci = 0 to num_clauses t - 1 do
    if (not t.hard.(ci)) && clause_satisfied t ci x then
      acc := !acc +. t.weights.(ci)
  done;
  !acc

let initial_assignment t store =
  let n = Store.size store in
  Array.init t.num_atoms (fun id -> id < n && Store.is_evidence store id)

let expanded_assignment t = Array.make t.num_atoms true

let pp_clause t ppf ci =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " v ")
       (fun ppf c ->
         Format.fprintf ppf "%s%d"
           (if c land 1 = 1 then "+" else "-")
           (c lsr 1)))
    (List.init (t.offsets.(ci + 1) - t.offsets.(ci)) (fun j ->
         t.lits.(t.offsets.(ci) + j)));
  if t.hard.(ci) then Format.pp_print_string ppf " [hard]"
  else Format.fprintf ppf " w=%g" t.weights.(ci);
  Format.fprintf ppf " <%s>" t.sources.(t.source.(ci))

let pp ppf t =
  let nc = num_clauses t in
  let hard =
    Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 t.hard
  in
  Format.fprintf ppf "@[<v>network: %d atoms, %d clauses (%d hard)" t.num_atoms
    nc hard;
  for ci = 0 to min nc 10 - 1 do
    Format.fprintf ppf "@ %a" (pp_clause t) ci
  done;
  if nc > 10 then Format.fprintf ppf "@ ...";
  Format.fprintf ppf "@]"
