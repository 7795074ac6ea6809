module Deadline = Prelude.Deadline

type component = {
  atoms : int array;
  network : Network.t;
}

type solved = {
  values : bool array;
  status : Deadline.status;
  cpi : Cpi.stats option;
}

(* Canonical structural form of a component: literals as signed 1-based
   local indices plus the weight and source of every clause, and the
   initial assignment restricted to the component. Keys are compared
   structurally (never by hash alone), so a cache lookup can only
   succeed on a component whose sub-problem is byte-identical to the
   one that produced the entry — the property that makes reusing the
   cached solution sound for the differential oracle. *)
type key = {
  k_atoms : int;
  k_clauses : (int array * float option * string) array;
  k_init : bool array;
}

type cache = {
  table : (key, solved) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type cache_stats = { entries : int; hits : int; misses : int }

let create_cache () = { table = Hashtbl.create 256; hits = 0; misses = 0 }

let clear_cache c =
  Hashtbl.reset c.table;
  c.hits <- 0;
  c.misses <- 0

let cache_stats c =
  { entries = Hashtbl.length c.table; hits = c.hits; misses = c.misses }

(* Entries never expire (they stay valid for any future network that
   reproduces the component), so bound the table against pathological
   edit streams that keep minting new components. *)
let max_entries = 65_536

type stats = { components : int; cache_hits : int; cache_misses : int }

(* Stable counting sort of [0 .. n - 1] by [key] into [buckets]
   buckets: bucket [b] is [order.(start.(b)) .. order.(start.(b + 1) -
   1)], ascending. *)
let bucket_sort ~buckets n key =
  let start = Array.make (buckets + 1) 0 in
  for i = 0 to n - 1 do
    let b = key i in
    start.(b + 1) <- start.(b + 1) + 1
  done;
  for b = 0 to buckets - 1 do
    start.(b + 1) <- start.(b + 1) + start.(b)
  done;
  let fill = Array.sub start 0 buckets in
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let b = key i in
    order.(fill.(b)) <- i;
    fill.(b) <- fill.(b) + 1
  done;
  (start, order)

let split (network : Network.t) =
  let n = network.Network.num_atoms in
  let clauses = network.Network.clauses in
  if
    Array.exists
      (fun (c : Network.clause) -> Array.length c.Network.literals = 0)
      clauses
  then
    (* A zero-literal clause has no component to live in; solving such a
       network piecewise could silently drop it. Degenerate and (with
       the current builder) unreachable — fall back to one component. *)
    [ { atoms = Array.init n Fun.id; network } ]
  else begin
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
      (fun (c : Network.clause) ->
        let lits = c.Network.literals in
        let a0 = lits.(0).Network.atom in
        for j = 1 to Array.length lits - 1 do
          union a0 lits.(j).Network.atom
        done)
      clauses;
    (* Union by smallest root, so each component's root is its smallest
       atom: numbering roots in ascending atom order yields components in
       a canonical, job-count-independent order. *)
    let comp = Array.make n 0 in
    let components = ref 0 in
    for a = 0 to n - 1 do
      let r = find a in
      if r = a then begin
        comp.(a) <- !components;
        incr components
      end
      else comp.(a) <- comp.(r)
    done;
    let buckets = !components in
    (* Both sorts are stable: atoms stay ascending and clauses keep their
       relative order within a component. *)
    let atom_start, atoms = bucket_sort ~buckets n (fun a -> comp.(a)) in
    let local = Array.make n 0 in
    Array.iteri (fun j a -> local.(a) <- j - atom_start.(comp.(a))) atoms;
    let clause_start, order =
      bucket_sort ~buckets (Array.length clauses) (fun ci ->
          comp.(clauses.(ci).Network.literals.(0).Network.atom))
    in
    List.init buckets (fun b ->
        let atoms =
          Array.sub atoms atom_start.(b) (atom_start.(b + 1) - atom_start.(b))
        in
        let clauses =
          Array.init
            (clause_start.(b + 1) - clause_start.(b))
            (fun j ->
              let c = clauses.(order.(clause_start.(b) + j)) in
              {
                c with
                Network.literals =
                  Array.map
                    (fun (l : Network.literal) ->
                      { l with Network.atom = local.(l.Network.atom) })
                    c.Network.literals;
              })
        in
        { atoms; network = { Network.num_atoms = Array.length atoms; clauses } })
  end

let key_of component ~init =
  {
    k_atoms = component.network.Network.num_atoms;
    k_clauses =
      Array.map
        (fun (c : Network.clause) ->
          ( Array.map
              (fun (l : Network.literal) ->
                if l.Network.positive then l.Network.atom + 1
                else -(l.Network.atom + 1))
              c.Network.literals,
            c.Network.weight,
            c.Network.source ))
        component.network.Network.clauses;
    k_init = init;
  }

let merge_cpi acc = function
  | None -> acc
  | Some (s : Cpi.stats) -> (
      match acc with
      | None -> Some s
      | Some (t : Cpi.stats) ->
          Some
            {
              Cpi.iterations = t.Cpi.iterations + s.Cpi.iterations;
              active_clauses = t.Cpi.active_clauses + s.Cpi.active_clauses;
              total_clauses = t.Cpi.total_clauses + s.Cpi.total_clauses;
              status = Deadline.worst t.Cpi.status s.Cpi.status;
            })

let solve ?cache ~solve_component ~init (network : Network.t) =
  let components = split network in
  let out = Array.make network.Network.num_atoms false in
  let status = ref Deadline.Completed in
  let cpi = ref None in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun component ->
      let k = Array.length component.atoms in
      let local_init = Array.init k (fun i -> init.(component.atoms.(i))) in
      let run () =
        if Array.length component.network.Network.clauses = 0 then
          { values = Array.copy local_init; status = Deadline.Completed; cpi = None }
        else solve_component component.network ~init:local_init
      in
      let solved =
        match cache with
        | None ->
            incr misses;
            run ()
        | Some c -> (
            let key = key_of component ~init:local_init in
            match Hashtbl.find_opt c.table key with
            | Some s ->
                incr hits;
                c.hits <- c.hits + 1;
                s
            | None ->
                incr misses;
                c.misses <- c.misses + 1;
                let s = run () in
                (* Only fully-completed component solves are pure replays
                   of a deterministic function of the key; anything cut
                   short or degraded must be recomputed next time. *)
                if s.status = Deadline.Completed then begin
                  if Hashtbl.length c.table >= max_entries then
                    Hashtbl.reset c.table;
                  Hashtbl.add c.table key s
                end;
                s)
      in
      Array.iteri (fun i v -> out.(component.atoms.(i)) <- v) solved.values;
      status := Deadline.worst !status solved.status;
      cpi := merge_cpi !cpi solved.cpi)
    components;
  Obs.count ~n:(List.length components) "solve.components";
  Obs.count ~n:!hits "solve.cache_hits";
  Obs.count ~n:!misses "solve.cache_misses";
  ( out,
    !status,
    !cpi,
    { components = List.length components; cache_hits = !hits; cache_misses = !misses }
  )
