type arith =
  | Num of int
  | Start_of of Lterm.ttime
  | End_of of Lterm.ttime
  | Length_of of Lterm.ttime
  | Value_of of Lterm.t
  | Add of arith * arith
  | Sub of arith * arith

type cmp = Lt | Le | Gt | Ge | Eq_cmp | Ne_cmp

type t =
  | Allen of Kg.Allen.Set.t * Lterm.ttime * Lterm.ttime
  | Cmp of cmp * arith * arith
  | Eq of Lterm.t * Lterm.t
  | Neq of Lterm.t * Lterm.t

let allen_set s a b = Allen (s, a, b)

let rec arith_vars = function
  | Num _ | Start_of _ | End_of _ | Length_of _ -> []
  | Value_of t -> Lterm.vars t
  | Add (a, b) | Sub (a, b) -> arith_vars a @ arith_vars b

let rec arith_tvars = function
  | Num _ | Value_of _ -> []
  | Start_of tt | End_of tt | Length_of tt -> Lterm.tvars tt
  | Add (a, b) | Sub (a, b) -> arith_tvars a @ arith_tvars b

let dedup l =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.replace seen v ();
        true
      end)
    l

let vars = function
  | Allen _ -> []
  | Cmp (_, a, b) -> dedup (arith_vars a @ arith_vars b)
  | Eq (a, b) | Neq (a, b) -> dedup (Lterm.vars a @ Lterm.vars b)

let tvars = function
  | Allen (_, a, b) -> dedup (Lterm.tvars a @ Lterm.tvars b)
  | Cmp (_, a, b) -> dedup (arith_tvars a @ arith_tvars b)
  | Eq _ | Neq _ -> []

let rec eval_arith s = function
  | Num n -> Some n
  | Start_of tt -> Option.map Kg.Interval.lo (Subst.eval_time s tt)
  | End_of tt -> Option.map Kg.Interval.hi (Subst.eval_time s tt)
  | Length_of tt -> Option.map Kg.Interval.length (Subst.eval_time s tt)
  | Value_of term ->
      Option.bind (Subst.eval_term s term) Kg.Term.as_int
  | Add (a, b) -> (
      match (eval_arith s a, eval_arith s b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | Sub (a, b) -> (
      match (eval_arith s a, eval_arith s b) with
      | Some x, Some y -> Some (x - y)
      | _ -> None)

let eval_cmp op x y =
  match op with
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | Eq_cmp -> x = y
  | Ne_cmp -> x <> y

let eval s = function
  | Allen (set, a, b) -> (
      match (Subst.eval_time s a, Subst.eval_time s b) with
      | Some ia, Some ib -> Some (Kg.Allen.Set.holds set ia ib)
      | _ -> None)
  | Cmp (op, a, b) -> (
      match (eval_arith s a, eval_arith s b) with
      | Some x, Some y -> Some (eval_cmp op x y)
      | _ -> None)
  | Eq (a, b) -> (
      match (Subst.eval_term s a, Subst.eval_term s b) with
      | Some x, Some y -> Some (Kg.Term.equal x y)
      | _ -> None)
  | Neq (a, b) -> (
      match (Subst.eval_term s a, Subst.eval_term s b) with
      | Some x, Some y -> Some (not (Kg.Term.equal x y))
      | _ -> None)

let cmp_name = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq_cmp -> "=="
  | Ne_cmp -> "!="

let rec pp_arith ppf = function
  | Num n -> Format.pp_print_int ppf n
  | Start_of tt -> Format.fprintf ppf "start(%a)" Lterm.pp_time tt
  | End_of tt -> Format.fprintf ppf "end(%a)" Lterm.pp_time tt
  | Length_of tt -> Format.fprintf ppf "length(%a)" Lterm.pp_time tt
  | Value_of t -> Format.fprintf ppf "value(%a)" Lterm.pp t
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_arith a pp_arith b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_arith a pp_arith b

let pp ppf = function
  | Allen (set, a, b) ->
      if Kg.Allen.Set.cardinal set = 1 then
        Format.fprintf ppf "%a(%a, %a)" Kg.Allen.pp
          (List.hd (Kg.Allen.Set.to_list set))
          Lterm.pp_time a Lterm.pp_time b
      else if Kg.Allen.Set.equal set Kg.Allen.Set.disjoint then
        Format.fprintf ppf "disjoint(%a, %a)" Lterm.pp_time a Lterm.pp_time b
      else if Kg.Allen.Set.equal set Kg.Allen.Set.intersects then
        Format.fprintf ppf "intersects(%a, %a)" Lterm.pp_time a Lterm.pp_time
          b
      else
        Format.fprintf ppf "%a(%a, %a)" Kg.Allen.Set.pp set Lterm.pp_time a
          Lterm.pp_time b
  | Cmp (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_arith a (cmp_name op) pp_arith b
  | Eq (a, b) -> Format.fprintf ppf "%a == %a" Lterm.pp a Lterm.pp b
  | Neq (a, b) -> Format.fprintf ppf "%a != %a" Lterm.pp a Lterm.pp b
