(* A pool is a concurrency bound plus counters; the worker domains
   behind it are a single process-wide crew, spawned lazily on first
   parallel use, grown to the largest bound ever requested and joined at
   exit. Batches from different pools serialise on the crew, so pools
   stay cheap to create, impossible to leak, and bounded by the OCaml
   domain limit no matter how many are made.

   Determinism contract: tasks receive their input index, results land
   at that index, and nothing a task can observe depends on which domain
   ran it. *)

type stats = {
  calls : int;
  tasks : int;
  busy_ms : float;
  wall_ms : float;
}

type t = {
  jobs : int;
  active : bool Atomic.t;
  lock : Mutex.t; (* guards the counters below *)
  mutable calls : int;
  mutable tasks : int;
  mutable busy_ms : float;
  mutable wall_ms : float;
}

exception Nested_use

let recommended_jobs () = Domain.recommended_domain_count ()

let create ~jobs =
  if jobs < 0 then invalid_arg "Pool.create: jobs < 0";
  let jobs = if jobs = 0 then recommended_jobs () else jobs in
  {
    jobs;
    active = Atomic.make false;
    lock = Mutex.create ();
    calls = 0;
    tasks = 0;
    busy_ms = 0.0;
    wall_ms = 0.0;
  }

let sequential = create ~jobs:1

let jobs t = t.jobs

let parse_jobs = function
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some 0 -> Some (recommended_jobs ())
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let default_jobs () =
  Option.value (parse_jobs (Sys.getenv_opt "TECORE_JOBS")) ~default:1

let stats t =
  Mutex.lock t.lock;
  let s =
    { calls = t.calls; tasks = t.tasks; busy_ms = t.busy_ms; wall_ms = t.wall_ms }
  in
  Mutex.unlock t.lock;
  s

let record t ~n ~busy ~wall =
  Mutex.lock t.lock;
  t.calls <- t.calls + 1;
  t.tasks <- t.tasks + n;
  t.busy_ms <- t.busy_ms +. busy;
  t.wall_ms <- t.wall_ms +. wall;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* The process-wide worker crew.                                       *)

type batch = {
  f : int -> unit;
  n : int;
  owner : t; (* the submitting pool; [owner.jobs] bounds the concurrency *)
}

type crew = {
  m : Mutex.t;
  cond : Condition.t; (* broadcast on every state change *)
  mutable batch : batch option;
  mutable next : int; (* next task index to deal *)
  mutable running : int; (* tasks currently executing *)
  mutable busy : float; (* summed task time of the current batch *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable domains : unit Domain.t list;
  mutable size : int; (* List.length domains *)
  mutable generation : int; (* workers of an older generation exit *)
}

let crew =
  {
    m = Mutex.create ();
    cond = Condition.create ();
    batch = None;
    next = 0;
    running = 0;
    busy = 0.0;
    failure = None;
    domains = [];
    size = 0;
    generation = 0;
  }

(* Leave headroom under the runtime's maximum domain count. *)
let max_workers = 126

(* The pool whose crew task the current domain is executing, if any. A
   nested parallel operation from inside a task would wait on itself
   (same pool raises {!Nested_use}; any other pool falls back to a
   sequential loop). *)
let in_task : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Wrapper applied around every crew task. The observability layer
   installs one at load time to open a per-task span on the executing
   domain; identity by default. The sequential paths in [run_tasks]
   bypass the crew and therefore the hook, so [jobs = 1] runs never pay
   for (or show) it. *)
let task_hook : ((unit -> unit) -> unit) ref = ref (fun f -> f ())

let set_task_hook = function
  | Some h -> task_hook := h
  | None -> task_hook := fun f -> f ()

(* Deal and execute tasks of the current batch until no index is
   available (all dealt, bound reached, or a task failed). Called and
   returns with [crew.m] held. *)
let rec deal () =
  match crew.batch with
  | Some b
    when crew.next < b.n && crew.running < b.owner.jobs && crew.failure = None
    ->
      let i = crew.next in
      crew.next <- crew.next + 1;
      crew.running <- crew.running + 1;
      Mutex.unlock crew.m;
      let t0 = Timing.now_ms () in
      let outcome =
        Domain.DLS.set in_task (Some b.owner);
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set in_task None)
          (fun () ->
            try
              !task_hook (fun () -> b.f i);
              None
            with e -> Some (e, Printexc.get_raw_backtrace ()))
      in
      let elapsed = Timing.now_ms () -. t0 in
      Mutex.lock crew.m;
      crew.busy <- crew.busy +. elapsed;
      crew.running <- crew.running - 1;
      (match outcome with
      | Some _ when crew.failure = None ->
          crew.failure <- outcome;
          crew.next <- b.n (* stop dealing the remaining tasks *)
      | _ -> ());
      Condition.broadcast crew.cond;
      deal ()
  | _ -> ()

let worker generation () =
  Mutex.lock crew.m;
  let rec loop () =
    if crew.generation = generation then begin
      deal ();
      if crew.generation = generation then begin
        Condition.wait crew.cond crew.m;
        loop ()
      end
    end
  in
  loop ();
  Mutex.unlock crew.m

(* Grow the crew to [wanted] workers; with [crew.m] held. *)
let ensure_workers wanted =
  let wanted = min wanted max_workers in
  while crew.size < wanted do
    crew.domains <- Domain.spawn (worker crew.generation) :: crew.domains;
    crew.size <- crew.size + 1
  done

(* A worker of the old generation finishes dealing the batch in hand,
   if any, then exits. From inside a task this would join the domain
   running it, so there it does nothing. *)
let release () =
  match Domain.DLS.get in_task with
  | Some _ -> ()
  | None ->
      Mutex.lock crew.m;
      let domains = crew.domains in
      crew.domains <- [];
      crew.size <- 0;
      crew.generation <- crew.generation + 1;
      Condition.broadcast crew.cond;
      Mutex.unlock crew.m;
      List.iter Domain.join domains

let () = at_exit release

(* Run one batch on the crew: publish it, participate in the dealing,
   then wait for stragglers. Returns the batch's summed task time. *)
let run_batch owner n f =
  Mutex.lock crew.m;
  while crew.batch <> None do
    Condition.wait crew.cond crew.m
  done;
  crew.batch <- Some { f; n; owner };
  crew.next <- 0;
  crew.running <- 0;
  crew.busy <- 0.0;
  crew.failure <- None;
  ensure_workers (min owner.jobs n - 1);
  Condition.broadcast crew.cond;
  let rec coordinate () =
    deal ();
    match crew.batch with
    | Some b when crew.next < b.n || crew.running > 0 ->
        Condition.wait crew.cond crew.m;
        coordinate ()
    | _ -> ()
  in
  coordinate ();
  let busy = crew.busy in
  let failure = crew.failure in
  crew.batch <- None;
  crew.failure <- None;
  Condition.broadcast crew.cond;
  Mutex.unlock crew.m;
  (busy, failure)

(* ------------------------------------------------------------------ *)

(* Run [f 0 .. f (n-1)], at most [t.jobs] concurrently. The first task
   exception aborts the dealing of further tasks and is re-raised (with
   its backtrace) after every running task has drained. Only a batch
   dealt to the crew is recorded: work run inline on the caller — a
   one-job pool, a single task, a task of another pool's batch — is a
   plain loop that leaves the stats alone. *)
let run_tasks t n f =
  let sequentially () =
    for i = 0 to n - 1 do
      f i
    done
  in
  if t.jobs = 1 || n <= 1 then sequentially ()
  else
    match Domain.DLS.get in_task with
    | Some owner when owner == t -> raise Nested_use
    | Some _ ->
        (* Inside a crew task of another pool: submitting a batch would
           wait on the batch this task belongs to. Degrade to the
           sequential loop — results are identical by contract. The
           target's [active] flag is left alone: tasks of the running
           batch may degrade into the same pool at once. *)
        sequentially ()
    | None ->
        if not (Atomic.compare_and_set t.active false true) then
          raise Nested_use;
        Fun.protect ~finally:(fun () -> Atomic.set t.active false)
        @@ fun () ->
        let start = Timing.now_ms () in
        let busy, failure = run_batch t n f in
        record t ~n ~busy ~wall:(Timing.now_ms () -. start);
        Option.iter
          (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
          failure

let map_array t f xs =
  let n = Array.length xs in
  let out = Array.make n None in
  run_tasks t n (fun i -> out.(i) <- Some (f xs.(i)));
  Array.map (function Some v -> v | None -> assert false) out

(* Containment and deadline-awareness live in the task wrapper, not in
   the crew: a task that raises stores its own [Error] and returns
   normally, so one crashed task can neither abort the batch nor wedge
   the crew, and a task dealt after expiry skips itself without running.
   The crew's abort-on-failure path stays reserved for the plain
   combinators above. *)
let map_results ?(deadline = Deadline.none) t f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let out = Array.make n (Error Deadline.Expired) in
  run_tasks t n (fun i ->
      if not (Deadline.expired deadline) then
        out.(i) <- (try Ok (f xs.(i)) with e -> Error e));
  Array.to_list out
