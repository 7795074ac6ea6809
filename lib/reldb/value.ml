(* Injective encoding into a single int: two tag bits, payload above.
   Term/Interval payloads are symbol codes (dense, small); Int payloads
   are the machine int itself, so the encoding is injective for
   |n| < 2^60 — far beyond the atom ids and interval endpoints the
   grounder stores. *)
type code = int

let null = 0
let of_int n = (n lsl 2) lor 1
let of_term_id id = (id lsl 2) lor 2
let of_interval_id id = (id lsl 2) lor 3
let payload c = c asr 2

let find_term symbols t = Option.map of_term_id (Kg.Graph.find_term symbols t)

let find_interval symbols i =
  Option.map of_interval_id (Kg.Graph.find_interval symbols i)

let decode_term symbols c =
  if c land 3 = 2 then Some (Kg.Graph.term symbols (payload c)) else None

let decode_interval symbols c =
  if c land 3 = 3 then Some (Kg.Graph.interval symbols (payload c)) else None
