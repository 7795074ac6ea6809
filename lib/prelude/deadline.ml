(* Wall-clock budgets. The clock is
   [Unix.gettimeofday] (the same clock as {!Timing}); budgets are short
   enough that wall-vs-monotonic drift is irrelevant here, and the poll
   stays a single clock read. *)

type t = {
  limit : float; (* absolute ms; infinity = never *)
  budget : float; (* the ms the deadline was created with *)
}

let none = { limit = infinity; budget = infinity }
let after ~ms = { limit = Timing.now_ms () +. ms; budget = ms }

let of_timeout_ms = function None -> none | Some ms -> after ~ms

let is_finite t = t.limit < infinity

let expired t = t.limit < infinity && Timing.now_ms () >= t.limit

let remaining_ms t =
  if t.limit = infinity then infinity else t.limit -. Timing.now_ms ()

let budget_ms t = t.budget

let slice t ~frac =
  if not (is_finite t) then t
  else
    let left = Float.max 0.0 (remaining_ms t) in
    let ms = left *. frac in
    { limit = Timing.now_ms () +. ms; budget = ms }

let env_timeout_ms () =
  match Sys.getenv_opt "TECORE_TIMEOUT_MS" with
  | None -> None
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some ms when Float.is_finite ms -> Some ms
      | Some _ | None -> None)

exception Expired

type status = Completed | Timed_out | Degraded

let worst a b =
  match (a, b) with
  | Degraded, _ | _, Degraded -> Degraded
  | Timed_out, _ | _, Timed_out -> Timed_out
  | Completed, Completed -> Completed

let status_name = function
  | Completed -> "completed"
  | Timed_out -> "timed_out"
  | Degraded -> "degraded"

let pp_status ppf s = Format.pp_print_string ppf (status_name s)

module Faults = struct
  exception Injected of string

  (* The active set is an immutable list behind an atomic so worker
     domains can poll concurrently with a reconfiguration from tests. *)
  let spec : (string * int) list Atomic.t = Atomic.make []

  let parse text =
    String.split_on_char ',' text
    |> List.filter_map (fun entry ->
           match String.trim entry with
           | "" -> None
           | entry -> (
               match String.index_opt entry ':' with
               | None -> Some (entry, 1)
               | Some i ->
                   let name = String.sub entry 0 i in
                   let arg =
                     String.sub entry (i + 1) (String.length entry - i - 1)
                   in
                   Some
                     ( name,
                       Option.value (int_of_string_opt arg) ~default:1 )))

  let configure text = Atomic.set spec (parse text)
  let clear () = Atomic.set spec []

  let () =
    match Sys.getenv_opt "TECORE_FAULTS" with
    | Some text -> configure text
    | None -> ()

  let lookup name = List.assoc_opt name (Atomic.get spec)
  let active name = lookup name <> None
  let arg name = Option.value (lookup name) ~default:0

  let trip_at name ~index =
    match lookup name with Some a -> index = a | None -> false

  let inject name ~index = if trip_at name ~index then raise (Injected name)

  let delay name =
    match lookup name with
    | Some ms when ms > 0 -> Unix.sleepf (float_of_int ms /. 1000.0)
    | Some _ | None -> ()
end
