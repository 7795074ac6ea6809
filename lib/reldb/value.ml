type t =
  | Term of Kg.Term.t
  | Int of int
  | Interval of Kg.Interval.t
  | Null

let term t = Term t
let interval i = Interval i

(* Injective encoding into a single int: two tag bits, payload above.
   Term/Interval payloads are intern-table ids (dense, small); Int
   payloads are the machine int itself, so the encoding is injective
   for |n| < 2^60 — far beyond the atom ids and interval endpoints the
   grounder stores. Code equality coincides with value equality, which
   is what lets the columnar tables hash and compare plain ints. *)
type code = int

let of_int n = (n lsl 2) lor 1
let of_term_id id = (id lsl 2) lor 2
let of_interval_id id = (id lsl 2) lor 3
let payload c = c asr 2

let code = function
  | Null -> 0
  | Int n -> of_int n
  | Term t -> of_term_id (Kg.Symbol.term_id t)
  | Interval i -> of_interval_id (Kg.Symbol.interval_id i)

let code_opt = function
  | Null -> Some 0
  | Int n -> Some (of_int n)
  | Term t -> Option.map of_term_id (Kg.Symbol.find_term t)
  | Interval i -> Option.map of_interval_id (Kg.Symbol.find_interval i)

let decode_term c =
  if c land 3 = 2 then Some (Kg.Symbol.term (payload c)) else None


let decode_interval c =
  if c land 3 = 3 then Some (Kg.Symbol.interval (payload c)) else None
