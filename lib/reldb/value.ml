type t =
  | Term of Kg.Term.t
  | Int of int
  | Interval of Kg.Interval.t
  | Null

let term t = Term t
let int n = Int n
let interval i = Interval i

(* Injective encoding into a single int: two tag bits, payload above.
   Term/Interval payloads are intern-table ids (dense, small); Int
   payloads are the machine int itself, so the encoding is injective
   for |n| < 2^60 — far beyond the atom ids and interval endpoints the
   grounder stores. Code equality coincides with value equality, which
   is what lets the columnar tables hash and compare plain ints. *)
type code = int

let code = function
  | Null -> 0
  | Int n -> (n lsl 2) lor 1
  | Term t -> (Kg.Symbol.term_id t lsl 2) lor 2
  | Interval i -> (Kg.Symbol.interval_id i lsl 2) lor 3

let code_opt = function
  | Null -> Some 0
  | Int n -> Some ((n lsl 2) lor 1)
  | Term t ->
      Option.map (fun id -> (id lsl 2) lor 2) (Kg.Symbol.find_term t)
  | Interval i ->
      Option.map (fun id -> (id lsl 2) lor 3) (Kg.Symbol.find_interval i)

let decode_term c =
  if c land 3 = 2 then Some (Kg.Symbol.term (c asr 2)) else None

let decode_int c = if c land 3 = 1 then Some (c asr 2) else None

let decode_interval c =
  if c land 3 = 3 then Some (Kg.Symbol.interval (c asr 2)) else None
