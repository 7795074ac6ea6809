(* The splitmix64 state, unboxed in an 8-byte buffer: a mutable [int64]
   record field would box a fresh Int64 on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] int64 t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix state

let subseed seed i =
  if i < 0 then invalid_arg "Prng.subseed: negative index";
  (* Jump the splitmix state by (i+1) gammas and mix, so child seeds are
     decorrelated from each other and from the parent stream; keep 62
     bits so the result is a non-negative native int. *)
  let z =
    mix Int64.(add (of_int seed) (mul golden_gamma (of_int (i + 1))))
  in
  Int64.to_int (Int64.shift_right_logical z 2)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's native int without wrapping. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let[@inline] float t bound =
  (* 53 random bits scaled to [0, 1) then to [0, bound). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.compare (Int64.logand (int64 t) 1L) 0L <> 0

let bernoulli t p = float t 1.0 < p

let range t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))
