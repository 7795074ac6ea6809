type t =
  | Var of string
  | Const of Kg.Term.t

type ttime =
  | Tvar of string
  | Tconst of Kg.Interval.t
  | Tinter of ttime * ttime
  | Thull of ttime * ttime

let var v = Var v
let const c = Const c

let vars = function Var v -> [ v ] | Const _ -> []

let rec tvars_acc acc = function
  | Tvar v -> if List.mem v acc then acc else v :: acc
  | Tconst _ -> acc
  | Tinter (a, b) | Thull (a, b) -> tvars_acc (tvars_acc acc a) b

let tvars t = List.rev (tvars_acc [] t)

let pp ppf = function
  | Var v -> Format.fprintf ppf "?%s" v
  | Const c -> Kg.Term.pp ppf c

let rec pp_time ppf = function
  | Tvar v -> Format.fprintf ppf "?%s" v
  | Tconst i -> Kg.Interval.pp ppf i
  | Tinter (a, b) -> Format.fprintf ppf "(%a n %a)" pp_time a pp_time b
  | Thull (a, b) -> Format.fprintf ppf "(%a u %a)" pp_time a pp_time b
