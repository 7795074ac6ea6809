(* Host speed. On a shared host, memory-bound work such as a resolve runs
   up to twice as slow for seconds to minutes at a time, while other
   tenants load the memory system; arithmetic alone barely slows. Timed
   as they are, runs of such work spread far wider than any useful bound.
   So a run also times a fixed calibration task of the same kind between
   its measurements, and reports its end-to-end timings at the host speed
   where that task takes [reference_ms]. The task is written here, not in
   the program, so that no change to the program moves it. It runs on the
   measuring thread, right before the work it calibrates: timed in a
   separate process, which the system may place on another processor, it
   tracked the resolve times less than half as closely. *)

let reference_ms = 100.

(* Hashing, sorting and allocation over [n] items: about 100 ms for the
   full size of 150 000. *)
let full = 150_000

let task n =
  let h = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) (float_of_int i)
  done;
  let a = Array.init n (fun i -> float_of_int ((i * 48271) mod 100_003)) in
  Array.sort Float.compare a;
  let l =
    List.sort (fun (_, x) (_, y) -> compare y x) (List.init (2 * n / 3) (fun i -> (i, i * 3)))
  in
  Hashtbl.length h + int_of_float a.(0) + fst (List.hd l)

(* [n] is the task's size, and [samples] are the run's samples, newest
   first, in ms scaled to the full size. *)
type t = { n : int; mutable samples : float list }

(* The first runs of the task grow the heap, so they do not count. The
   self-test's toy runs use a task 50 times smaller. *)
let create ~quick =
  let c = { n = (if quick then full / 50 else full); samples = [] } in
  for _ = 1 to 3 do ignore (Sys.opaque_identity (task c.n)) done;
  c

let sample c =
  let _, ms = Common.time (fun () -> ignore (Sys.opaque_identity (task c.n))) in
  c.samples <- (ms *. float_of_int full /. float_of_int c.n) :: c.samples

(* [ms] at the reference speed, by the sample taken just before it. *)
let at_reference c ms = ms *. reference_ms /. List.hd c.samples

(* [f ()] after a sample, with its time in ms as measured and at the
   reference speed. *)
let time c f =
  sample c;
  let r, ms = Common.time f in
  (r, ms, at_reference c ms)

(* The factor that brings a time taken before the first sample, such as
   a set-up, to the reference speed: by the run's median sample. *)
let scale c = reference_ms /. Stats.median c.samples
