type t = { lo : int; hi : int }

exception Invalid of string

let make lo hi =
  if lo > hi then
    raise (Invalid (Printf.sprintf "interval [%d,%d] has lo > hi" lo hi));
  { lo; hi }

let point t = { lo = t; hi = t }

let lo i = i.lo
let hi i = i.hi

let length i = i.hi - i.lo + 1

let equal a b = a.lo = b.lo && a.hi = b.hi

let compare a b =
  match Int.compare a.lo b.lo with 0 -> Int.compare a.hi b.hi | c -> c

let overlaps a b = a.lo <= b.hi && b.lo <= a.hi

let intersect a b =
  if overlaps a b then Some { lo = max a.lo b.lo; hi = min a.hi b.hi }
  else None

let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let pp ppf i =
  if i.lo = i.hi then Format.fprintf ppf "[%d]" i.lo
  else Format.fprintf ppf "[%d,%d]" i.lo i.hi

let to_string i = Format.asprintf "%a" pp i

let of_string s =
  let s = String.trim s in
  let fail () = Error (Printf.sprintf "cannot parse interval %S" s) in
  let parse_int x = int_of_string_opt (String.trim x) in
  let n = String.length s in
  if n = 0 then fail ()
  else if s.[0] = '[' && s.[n - 1] = ']' then
    let body = String.sub s 1 (n - 2) in
    match String.index_opt body ',' with
    | None -> (
        match parse_int body with
        | Some t -> Ok (point t)
        | None -> fail ())
    | Some k -> (
        let a = String.sub body 0 k in
        let b = String.sub body (k + 1) (String.length body - k - 1) in
        match (parse_int a, parse_int b) with
        | Some lo, Some hi when lo <= hi -> Ok (make lo hi)
        | Some _, Some _ -> Error (Printf.sprintf "interval %S has lo > hi" s)
        | _ -> fail ())
  else
    match parse_int s with Some t -> Ok (point t) | None -> fail ()
