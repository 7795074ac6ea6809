module Smap = Map.Make (String)

type t = {
  objects : Kg.Term.t Smap.t;
  times : Kg.Interval.t Smap.t;
}

let empty = { objects = Smap.empty; times = Smap.empty }

let bind s v c =
  match Smap.find_opt v s.objects with
  | Some c' -> if Kg.Term.equal c c' then Some s else None
  | None -> Some { s with objects = Smap.add v c s.objects }

let bind_time s v i =
  match Smap.find_opt v s.times with
  | Some i' -> if Kg.Interval.equal i i' then Some s else None
  | None -> Some { s with times = Smap.add v i s.times }

let find s v = Smap.find_opt v s.objects
let find_time s v = Smap.find_opt v s.times

let eval_term s = function
  | Lterm.Var v -> find s v
  | Lterm.Const c -> Some c

let rec eval_time s = function
  | Lterm.Tvar v -> find_time s v
  | Lterm.Tconst i -> Some i
  | Lterm.Tinter (a, b) -> (
      match (eval_time s a, eval_time s b) with
      | Some ia, Some ib -> Kg.Interval.intersect ia ib
      | _ -> None)
  | Lterm.Thull (a, b) -> (
      match (eval_time s a, eval_time s b) with
      | Some ia, Some ib -> Some (Kg.Interval.hull ia ib)
      | _ -> None)

let pp ppf s =
  Format.fprintf ppf "{";
  Smap.iter
    (fun v c -> Format.fprintf ppf "%s=%a " v Kg.Term.pp c)
    s.objects;
  Smap.iter
    (fun v i -> Format.fprintf ppf "%s=%a " v Kg.Interval.pp i)
    s.times;
  Format.fprintf ppf "}"
