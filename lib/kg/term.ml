type t =
  | Iri of string
  | Str of string
  | Int of int
  | Flt of float

let iri s = Iri s
let str s = Str s
let int n = Int n
let float f = Flt f

let equal a b =
  match (a, b) with
  | Iri x, Iri y | Str x, Str y -> String.equal x y
  | Int x, Int y -> Int.equal x y
  | Flt x, Flt y -> Float.equal x y
  | (Iri _ | Str _ | Int _ | Flt _), _ -> false

let tag = function Iri _ -> 0 | Str _ -> 1 | Int _ -> 2 | Flt _ -> 3

let compare a b =
  match (a, b) with
  | Iri x, Iri y | Str x, Str y -> String.compare x y
  | Int x, Int y -> Int.compare x y
  | Flt x, Flt y -> Float.compare x y
  | _ -> Int.compare (tag a) (tag b)

let hash = function
  | Iri s -> Hashtbl.hash (0, s)
  | Str s -> Hashtbl.hash (1, s)
  | Int n -> Hashtbl.hash (2, n)
  | Flt f -> Hashtbl.hash (3, f)

let is_literal = function Iri _ -> false | Str _ | Int _ | Flt _ -> true

let as_int = function
  | Int n -> Some n
  | Str s | Iri s -> int_of_string_opt s
  | Flt f -> if Float.is_integer f then Some (int_of_float f) else None

(* A float prints as the shortest literal that reads back to the same
   bits, never as an integer ("2." rather than "2"), so [of_string]
   gives back a [Flt]. *)
let to_string = function
  | Iri s -> s
  | Str s -> Printf.sprintf "%S" s
  | Int n -> string_of_int n
  | Flt f ->
      let s = Prelude.Floatlit.to_lexeme f in
      if int_of_string_opt s <> None then s ^ "." else s

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  let s = String.trim s in
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
    Str (Scanf.unescaped (String.sub s 1 (n - 2)))
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Flt f
        | None -> Iri s)
