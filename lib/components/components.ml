module Deadline = Prelude.Deadline

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

(* Component number of every variable, and the component count. *)
let label ~num_vars:n ~num_factors ~arity ~var =
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
  for f = 0 to num_factors - 1 do
    for j = 1 to arity f - 1 do
      union (var f 0) (var f j)
    done
  done;
  (* Union by smallest root, so each component's root is its smallest
     variable: numbering roots in ascending order yields components in
     a canonical, job-count-independent order. *)
  let comp = Array.make n 0 in
  let components = ref 0 in
  for v = 0 to n - 1 do
    let r = find v in
    if r = v then begin
      comp.(v) <- !components;
      incr components
    end
    else comp.(v) <- comp.(r)
  done;
  (comp, !components)

let split ~num_vars:n ~num_factors ~arity ~var build =
  let rec degenerate f =
    f < num_factors && (arity f = 0 || degenerate (f + 1))
  in
  let comp, buckets =
    if degenerate 0 then (Array.make n 0, 1)
    else label ~num_vars:n ~num_factors ~arity ~var
  in
  (* Both sorts are stable: variables stay ascending and factors keep
     their relative order within a component. *)
  let var_start, vars = bucket_sort ~buckets n (fun v -> comp.(v)) in
  let local = Array.make n 0 in
  Array.iteri (fun j v -> local.(v) <- j - var_start.(comp.(v))) vars;
  let factor_start, factors =
    bucket_sort ~buckets num_factors (fun f ->
        if arity f = 0 then 0 else comp.(var f 0))
  in
  let slice start order b =
    Array.sub order start.(b) (start.(b + 1) - start.(b))
  in
  List.init buckets (fun b ->
      build ~vars:(slice var_start vars b)
        ~factors:(slice factor_start factors b)
        ~local)

module Hash = struct
  let seed = 0x9E3779B9

  (* SplitMix-style finaliser (62-bit-safe constants, as the atom
     store's code hash). *)
  let[@inline] int h x =
    let x = (h lxor x) * 0x3C79AC492BA7B653 in
    let x = x lxor (x lsr 29) in
    let x = x * 0x1C69B3F74AC4AE35 in
    x lxor (x lsr 32)

  let ints h (a : int array) =
    let h = ref (int h (Array.length a)) in
    for i = 0 to Array.length a - 1 do
      h := int !h a.(i)
    done;
    !h

  let floats h (a : float array) =
    let h = ref (int h (Array.length a)) in
    for i = 0 to Array.length a - 1 do
      h := int !h (Int64.to_int (Int64.bits_of_float a.(i)))
    done;
    !h

  let bools h (a : bool array) =
    let h = ref (int h (Array.length a)) in
    for i = 0 to Array.length a - 1 do
      h := int !h (Bool.to_int a.(i))
    done;
    !h

  let finish h = h land max_int
end

(* Keyed by the full-content hash; the keys sharing one are told apart
   structurally. *)
type ('key, 'solved) cache = {
  table : (int, 'key * 'solved) Hashtbl.t;
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

let max_entries = 65_536

let solve ?cache ~vars ~key ~hash ~solve_component ~status ~values ~merge ~acc
    ~init components =
  let out = Array.copy init in
  let worst = ref Deadline.Completed in
  let hits = ref 0 and misses = ref 0 in
  let acc =
    List.fold_left
      (fun acc component ->
        let ids = vars component in
        let init = Array.map (fun v -> init.(v)) ids in
        let s =
          match cache with
          | None ->
              incr misses;
              solve_component component ~init
          | Some c -> (
              let k = key component ~init in
              let h = hash k in
              match
                List.find_opt
                  (fun (k', _) -> k' = k)
                  (Hashtbl.find_all c.table h)
              with
              | Some (_, s) ->
                  incr hits;
                  c.hits <- c.hits + 1;
                  s
              | None ->
                  incr misses;
                  c.misses <- c.misses + 1;
                  let s = solve_component component ~init in
                  (* Only fully-completed component solves are pure
                     replays of a deterministic function of the key;
                     anything cut short or degraded must be recomputed
                     next time. *)
                  if status s = Deadline.Completed then begin
                    if Hashtbl.length c.table >= max_entries then
                      Hashtbl.reset c.table;
                    Hashtbl.add c.table h (k, s)
                  end;
                  s)
        in
        Array.iteri (fun i v -> out.(ids.(i)) <- v) (values s);
        worst := Deadline.worst !worst (status s);
        merge acc s)
      acc components
  in
  Obs.count ~n:(List.length components) "solve.components";
  Obs.count ~n:!hits "solve.cache_hits";
  Obs.count ~n:!misses "solve.cache_misses";
  (out, !worst, acc)
