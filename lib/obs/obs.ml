(* Span-based tracing and metrics. One implicit stack of open frames
   per domain; closing a frame folds it into its parent as a completed
   node. The domain that last called [reset] owns the main stack; every
   other domain that opens a span gets a lazily-created "workers/<i>"
   lane, merged into the report as a top-level subtree. All entry
   points are single-flag no-ops while disabled, so the pipeline keeps
   its instrumentation in release builds. *)

module Histogram = struct
  (* Exact sample storage below [cap]; past it the stored samples
     degrade to a uniform reservoir (Vitter's algorithm R, driven by a
     per-histogram splitmix64 state so replays are deterministic),
     while [count], [total], [minimum] and [maximum] stay exact for the
     whole stream. Memory is O(cap) however long the process runs —
     the bound a long-lived server's per-phase histograms rely on. *)
  type t = {
    cap : int;
    mutable data : float array;
    mutable len : int;
    mutable seen : int;
    mutable sum : float;
    mutable lo : float;
    mutable hi : float;
    rng : Prelude.Prng.t;
  }

  let default_cap = 4096
  let reservoir_seed = 0x0b5e55ed

  let create ?(cap = default_cap) () =
    let cap = max 1 cap in
    {
      cap;
      data = Array.make (min cap 16) 0.0;
      len = 0;
      seen = 0;
      sum = 0.0;
      lo = Float.nan;
      hi = Float.nan;
      rng = Prelude.Prng.create reservoir_seed;
    }

  let add h x =
    h.seen <- h.seen + 1;
    h.sum <- h.sum +. x;
    if h.seen = 1 then begin
      h.lo <- x;
      h.hi <- x
    end
    else begin
      if x < h.lo then h.lo <- x;
      if x > h.hi then h.hi <- x
    end;
    if h.len < h.cap then begin
      if h.len = Array.length h.data then begin
        let bigger = Array.make (min h.cap (2 * Array.length h.data)) 0.0 in
        Array.blit h.data 0 bigger 0 h.len;
        h.data <- bigger
      end;
      h.data.(h.len) <- x;
      h.len <- h.len + 1
    end
    else begin
      (* Algorithm R: every sample of the stream ends up stored with
         probability cap/seen. *)
      let j = Prelude.Prng.int h.rng h.seen in
      if j < h.cap then h.data.(j) <- x
    end

  let count h = h.seen
  let total h = h.sum
  let mean h = if h.seen = 0 then Float.nan else h.sum /. float_of_int h.seen
  let minimum h = h.lo
  let maximum h = h.hi
  let stored h = h.len

  let quantile h q =
    if h.len = 0 then Float.nan
    else begin
      let sorted = Array.sub h.data 0 h.len in
      Array.sort Float.compare sorted;
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = int_of_float (Float.ceil (q *. float_of_int h.len)) in
      sorted.(max 0 (min (h.len - 1) (rank - 1)))
    end

  let merge a b =
    (* PRNG-free and never aliasing either input: when both stored
       sample sets fit under the larger cap they are kept whole,
       otherwise the concatenation is decimated at a fixed stride — so
       merging the same pair twice gives identical histograms. *)
    let cap = max a.cap b.cap in
    let n = a.len + b.len in
    let all = Array.make (max 1 n) 0.0 in
    Array.blit a.data 0 all 0 a.len;
    Array.blit b.data 0 all a.len b.len;
    let data, len =
      if n <= cap then (all, n)
      else begin
        let out = Array.make cap 0.0 in
        for i = 0 to cap - 1 do
          out.(i) <- all.(i * n / cap)
        done;
        (out, cap)
      end
    in
    let lo, hi =
      if a.seen = 0 then (b.lo, b.hi)
      else if b.seen = 0 then (a.lo, a.hi)
      else (Float.min a.lo b.lo, Float.max a.hi b.hi)
    in
    {
      cap;
      data;
      len;
      seen = a.seen + b.seen;
      sum = a.sum +. b.sum;
      lo;
      hi;
      rng = Prelude.Prng.create reservoir_seed;
    }

  let to_list h = Array.to_list (Array.sub h.data 0 h.len)
end

module Series = struct
  (* Bounded (x, y) timeline. Downsampling is by decimation, not random
     reservoir: when the buffer fills, every other kept point is
     dropped and the keep-stride doubles, so the retained points are
     always a subsequence of the input — monotone inputs stay monotone.
     The most recent sample is tracked separately so the curve always
     ends at the final value. Memory is O(cap) regardless of length. *)
  type t = {
    cap : int;
    mutable xs : float array;
    mutable ys : float array;
    mutable len : int;
    mutable stride : int; (* keep every stride-th offered sample *)
    mutable pending : int; (* offers since the last kept sample *)
    mutable total : int; (* samples offered overall *)
    mutable last : (float * float) option;
  }

  let default_cap = 512

  let create ?(cap = default_cap) () =
    let cap = max 8 cap in
    {
      cap;
      xs = Array.make cap 0.0;
      ys = Array.make cap 0.0;
      len = 0;
      stride = 1;
      pending = 0;
      total = 0;
      last = None;
    }

  let add s ~x ~y =
    s.total <- s.total + 1;
    s.last <- Some (x, y);
    s.pending <- s.pending + 1;
    if s.pending >= s.stride then begin
      s.pending <- 0;
      if s.len = s.cap then begin
        let j = ref 0 in
        let i = ref 0 in
        while !i < s.len do
          s.xs.(!j) <- s.xs.(!i);
          s.ys.(!j) <- s.ys.(!i);
          incr j;
          i := !i + 2
        done;
        s.len <- !j;
        s.stride <- s.stride * 2
      end;
      s.xs.(s.len) <- x;
      s.ys.(s.len) <- y;
      s.len <- s.len + 1
    end

  let count s = s.total

  let points s =
    let kept = List.init s.len (fun i -> (s.xs.(i), s.ys.(i))) in
    match s.last with
    | Some (x, y)
      when s.len = 0 || s.xs.(s.len - 1) <> x || s.ys.(s.len - 1) <> y ->
        kept @ [ (x, y) ]
    | _ -> kept

  let merge a b =
    let pts =
      List.stable_sort
        (fun (x1, _) (x2, _) -> Float.compare x1 x2)
        (points a @ points b)
    in
    let s = create ~cap:(max a.cap b.cap) () in
    List.iter (fun (x, y) -> add s ~x ~y) pts;
    s.total <- a.total + b.total;
    s
end

module Events = struct
  type level = Debug | Info | Warn | Error

  type value = Int of int | Float of float | Str of string | Bool of bool

  type event = {
    t_ms : float; (* milliseconds since the last reset *)
    level : level;
    name : string;
    fields : (string * value) list;
  }

  let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let value_to_string = function
    | Int i -> string_of_int i
    | Float f -> Printf.sprintf "%g" f
    | Str s -> s
    | Bool b -> string_of_bool b
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let number f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else begin
      (* Shortest of %.12g/%.15g/%.16g/%.17g that parses back to the
         same float: keeps the previous %.12g output for almost every
         value while making print/parse an exact round trip. *)
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s
      else
        let s = Printf.sprintf "%.15g" f in
        if float_of_string s = f then s
        else
          let s = Printf.sprintf "%.16g" f in
          if float_of_string s = f then s else Printf.sprintf "%.17g" f
    end

  let rec add_value buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number f)
    | Str s -> add_escaped buf s
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            add_value buf v)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped buf k;
            Buffer.add_char buf ':';
            add_value buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    add_value buf t;
    Buffer.contents buf

  exception Bad of int * string

  let parse text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Bad (!pos, msg)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let m = String.length word in
      if !pos + m <= n && String.sub text !pos m = word then begin
        pos := !pos + m;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let add_utf8 buf code =
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string";
        let c = text.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape");
          let e = text.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub text !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code -> add_utf8 buf code
              | None -> fail "bad \\u escape")
          | _ -> fail "unknown escape");
          loop ()
        end
        else begin
          Buffer.add_char buf c;
          loop ()
        end
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let numeric c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numeric text.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some f when Float.is_finite f -> Num f
      | Some _ ->
          (* e.g. "1e999": syntactically a JSON number but not a finite
             float. Report at the number's first byte. *)
          pos := start;
          fail "non-finite number"
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (items [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
          end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad (at, msg) ->
        Error (Printf.sprintf "json error at offset %d: %s" at msg)

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Collection state.                                                   *)

type metrics = {
  m_counters : (string, float ref) Hashtbl.t;
  m_gauges : (string, float ref) Hashtbl.t;
  m_hists : (string, Histogram.t) Hashtbl.t;
  m_series : (string, Series.t) Hashtbl.t;
}

let fresh_metrics () =
  {
    m_counters = Hashtbl.create 8;
    m_gauges = Hashtbl.create 4;
    m_hists = Hashtbl.create 4;
    m_series = Hashtbl.create 4;
  }

type node = {
  name : string;
  calls : int;
  total_ms : float;
  counters : (string * float) list;
  gauges : (string * float) list;
  hists : (string * Histogram.t) list;
  series : (string * Series.t) list;
  children : node list;
  slices : (float * float) list;
      (* per call: (start offset from the last reset, duration), ms *)
}

type frame = {
  fname : string;
  start_ms : float;
  fmetrics : metrics;
  mutable fchildren : node list; (* reversed *)
}

let fresh_frame name =
  {
    fname = name;
    start_ms = Prelude.Timing.now_ms ();
    fmetrics = fresh_metrics ();
    fchildren = [];
  }

let is_enabled = ref false

let trace_hook : (depth:int -> string -> float -> unit) option ref = ref None

(* The bottom of the stack is the permanent root frame, owned by the
   domain that last called [reset]. *)
let stack = ref [ fresh_frame "root" ]
let main_domain = ref (Domain.self () :> int)

(* Spans opened by any other domain (crew workers, mostly, via the
   Pool task hook) collect into per-domain lanes instead, reported as
   "workers/<i>" top-level subtrees. Lane indices are assigned in
   first-span order, so which worker gets which index is
   scheduling-dependent — reports are equivalent only modulo that. *)
type worker = {
  w_index : int;
  w_root : frame;
  mutable w_stack : frame list; (* open frames, innermost first *)
}

let workers : (int, worker) Hashtbl.t = Hashtbl.create 8
let next_worker = ref 0

(* Structured event log: a bounded ring so unbounded Debug chatter
   cannot grow the process; overflow drops the oldest events. *)
let event_capacity = 4096
let event_ring = Array.make event_capacity (None : Events.event option)
let event_head = ref 0 (* next write position *)
let event_stored = ref 0
let event_dropped = ref 0
let event_hook : (Events.event -> unit) option ref = ref None

(* Tasks running on a Prelude.Pool emit from worker domains
   while the coordinator blocks in the join, so every mutation of the
   stacks, the event ring and the per-frame registries is serialised
   here. The disabled path stays a single unsynchronised flag test. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled () = !is_enabled
let set_enabled b = locked (fun () -> is_enabled := b)
let set_trace h = locked (fun () -> trace_hook := h)
let set_event_hook h = locked (fun () -> event_hook := h)

let reset () =
  locked (fun () ->
      stack := [ fresh_frame "root" ];
      main_domain := (Domain.self () :> int);
      Hashtbl.reset workers;
      next_worker := 0;
      Array.fill event_ring 0 event_capacity None;
      event_head := 0;
      event_stored := 0;
      event_dropped := 0)

(* Call with the lock held. *)
let root_frame () =
  let rec last = function
    | [ fr ] -> fr
    | _ :: rest -> last rest
    | [] -> assert false
  in
  last !stack

(* Innermost frame for the calling domain; with the lock held. A domain
   that is neither the owner of the main stack nor inside one of its
   own spans attaches to the coordinator's innermost span, preserving
   the pre-lane behaviour for bare metric emissions from workers. *)
let current () =
  let did = (Domain.self () :> int) in
  if did = !main_domain then List.hd !stack
  else
    match Hashtbl.find_opt workers did with
    | Some { w_stack = fr :: _; _ } -> fr
    | _ -> List.hd !stack

let sorted_assoc tbl extract =
  Hashtbl.fold (fun k v acc -> (k, extract v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let metrics_counters m = sorted_assoc m.m_counters (fun r -> !r)
let metrics_gauges m = sorted_assoc m.m_gauges (fun r -> !r)
let metrics_hists m = sorted_assoc m.m_hists (fun h -> h)
let metrics_series m = sorted_assoc m.m_series (fun s -> s)

let node_of_frame ~epoch fr elapsed =
  {
    name = fr.fname;
    calls = 1;
    total_ms = elapsed;
    counters = metrics_counters fr.fmetrics;
    gauges = metrics_gauges fr.fmetrics;
    hists = metrics_hists fr.fmetrics;
    series = metrics_series fr.fmetrics;
    children = List.rev fr.fchildren;
    slices = [ (fr.start_ms -. epoch, elapsed) ];
  }

let span name f =
  if not !is_enabled then f ()
  else begin
    let fr = fresh_frame name in
    let did = (Domain.self () :> int) in
    locked (fun () ->
        if did = !main_domain then stack := fr :: !stack
        else begin
          let w =
            match Hashtbl.find_opt workers did with
            | Some w -> w
            | None ->
                let w =
                  {
                    w_index = !next_worker;
                    w_root =
                      fresh_frame (Printf.sprintf "workers/%d" !next_worker);
                    w_stack = [];
                  }
                in
                incr next_worker;
                Hashtbl.add workers did w;
                w
          in
          w.w_stack <- fr :: w.w_stack
        end);
    let close () =
      let elapsed = Prelude.Timing.now_ms () -. fr.start_ms in
      locked (fun () ->
          let finish parent depth =
            parent.fchildren <-
              node_of_frame ~epoch:(root_frame ()).start_ms fr elapsed
              :: parent.fchildren;
            match !trace_hook with
            | Some hook when !is_enabled -> hook ~depth name elapsed
            | _ -> ()
          in
          if did = !main_domain then
            match !stack with
            | top :: parent :: rest when top == fr ->
                stack := parent :: rest;
                finish parent (List.length rest)
            | _ ->
                (* A reset happened under us (or collection was toggled
                   while the span was open): the frame is an orphan;
                   drop it. *)
                ()
          else
            match Hashtbl.find_opt workers did with
            | Some w -> (
                match w.w_stack with
                | top :: rest when top == fr ->
                    w.w_stack <- rest;
                    let parent =
                      match rest with p :: _ -> p | [] -> w.w_root
                    in
                    finish parent (List.length rest)
                | _ -> ())
            | None -> ())
    in
    Fun.protect ~finally:close f
  end

let add name v =
  if !is_enabled then
    locked (fun () ->
        let m = (current ()).fmetrics in
        match Hashtbl.find_opt m.m_counters name with
        | Some r -> r := !r +. v
        | None -> Hashtbl.add m.m_counters name (ref v))

let count ?(n = 1) name = add name (float_of_int n)

let gauge name v =
  if !is_enabled then
    locked (fun () ->
        let m = (current ()).fmetrics in
        match Hashtbl.find_opt m.m_gauges name with
        | Some r -> r := v
        | None -> Hashtbl.add m.m_gauges name (ref v))

let record name v =
  if !is_enabled then
    locked (fun () ->
        let m = (current ()).fmetrics in
        match Hashtbl.find_opt m.m_hists name with
        | Some h -> Histogram.add h v
        | None ->
            let h = Histogram.create () in
            Histogram.add h v;
            Hashtbl.add m.m_hists name h)

let sample name ~t_ms ~v =
  if !is_enabled then
    locked (fun () ->
        let m = (current ()).fmetrics in
        let x = t_ms -. (root_frame ()).start_ms in
        match Hashtbl.find_opt m.m_series name with
        | Some s -> Series.add s ~x ~y:v
        | None ->
            let s = Series.create () in
            Series.add s ~x ~y:v;
            Hashtbl.add m.m_series name s)

(* Events in ring order, oldest first; with the lock held. *)
let events_locked () =
  let cap = event_capacity in
  let start = ((!event_head - !event_stored) mod cap + cap) mod cap in
  List.init !event_stored (fun i ->
      match event_ring.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let event ?(level = Events.Info) name fields =
  if !is_enabled then
    locked (fun () ->
        let t_ms = Prelude.Timing.now_ms () -. (root_frame ()).start_ms in
        let e = { Events.t_ms; level; name; fields } in
        if !event_stored = event_capacity then incr event_dropped
        else incr event_stored;
        event_ring.(!event_head) <- Some e;
        event_head := (!event_head + 1) mod event_capacity;
        match !event_hook with Some h -> h e | None -> ())

(* ------------------------------------------------------------------ *)
(* Reports.                                                            *)

module Report = struct
  type nonrec node = node = {
    name : string;
    calls : int;
    total_ms : float;
    counters : (string * float) list;
    gauges : (string * float) list;
    hists : (string * Histogram.t) list;
    series : (string * Series.t) list;
    children : node list;
    slices : (float * float) list;
  }

  type t = {
    wall_ms : float;
    counters : (string * float) list;
    gauges : (string * float) list;
    hists : (string * Histogram.t) list;
    series : (string * Series.t) list;
    spans : node list;
    events : Events.event list;
    events_dropped : int;
  }

  (* Union of sorted assoc lists. *)
  let merge_assoc combine xs ys =
    let rec go xs ys =
      match (xs, ys) with
      | [], rest | rest, [] -> rest
      | (kx, vx) :: xs', (ky, vy) :: ys' ->
          let c = String.compare kx ky in
          if c < 0 then (kx, vx) :: go xs' ys
          else if c > 0 then (ky, vy) :: go xs ys'
          else (kx, combine vx vy) :: go xs' ys'
    in
    go xs ys

  let combine_nodes a b =
    {
      name = a.name;
      calls = a.calls + b.calls;
      total_ms = a.total_ms +. b.total_ms;
      counters = merge_assoc ( +. ) a.counters b.counters;
      gauges = merge_assoc (fun _ later -> later) a.gauges b.gauges;
      hists = merge_assoc Histogram.merge a.hists b.hists;
      series = merge_assoc Series.merge a.series b.series;
      children = a.children @ b.children;
      slices = a.slices @ b.slices;
    }

  (* Merge same-named siblings, preserving first-appearance order. *)
  let rec merge_siblings nodes =
    let order = ref [] in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun nd ->
        match Hashtbl.find_opt tbl nd.name with
        | None ->
            Hashtbl.add tbl nd.name nd;
            order := nd.name :: !order
        | Some prev -> Hashtbl.replace tbl nd.name (combine_nodes prev nd))
      nodes;
    List.rev_map
      (fun name ->
        let nd = Hashtbl.find tbl name in
        { nd with children = merge_siblings nd.children })
      !order

  let capture () =
    locked @@ fun () ->
    let now = Prelude.Timing.now_ms () in
    let root = root_frame () in
    let epoch = root.start_ms in
    let worker_nodes =
      Hashtbl.fold (fun _ w acc -> w :: acc) workers []
      |> List.sort (fun a b -> compare a.w_index b.w_index)
      |> List.map (fun w ->
             node_of_frame ~epoch w.w_root (now -. w.w_root.start_ms))
    in
    {
      wall_ms = now -. epoch;
      counters = metrics_counters root.fmetrics;
      gauges = metrics_gauges root.fmetrics;
      hists = metrics_hists root.fmetrics;
      series = metrics_series root.fmetrics;
      spans = merge_siblings (List.rev root.fchildren @ worker_nodes);
      events = events_locked ();
      events_dropped = !event_dropped;
    }

  let self_ms nd =
    nd.total_ms
    -. List.fold_left (fun acc c -> acc +. c.total_ms) 0.0 nd.children

  let find t path =
    let rec go nodes = function
      | [] -> None
      | [ name ] -> List.find_opt (fun nd -> nd.name = name) nodes
      | name :: rest -> (
          match List.find_opt (fun nd -> nd.name = name) nodes with
          | Some nd -> go nd.children rest
          | None -> None)
    in
    go t.spans path

  (* -------------------------------------------------------------- *)

  let pp_value ppf v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Format.fprintf ppf "%.0f" v
    else Format.fprintf ppf "%g" v

  let pp_metrics ~indent ppf (counters, gauges, hists, series) =
    let pad = String.make indent ' ' in
    List.iter
      (fun (k, v) -> Format.fprintf ppf "%s. %s = %a@," pad k pp_value v)
      counters;
    List.iter
      (fun (k, v) -> Format.fprintf ppf "%s. %s ~ %a@," pad k pp_value v)
      gauges;
    List.iter
      (fun (k, h) ->
        Format.fprintf ppf "%s. %s : n=%d mean=%a p50=%a p95=%a max=%a@," pad
          k (Histogram.count h) pp_value (Histogram.mean h) pp_value
          (Histogram.quantile h 0.5) pp_value (Histogram.quantile h 0.95)
          pp_value (Histogram.maximum h))
      hists;
    List.iter
      (fun (k, s) ->
        match Series.points s with
        | [] -> ()
        | pts ->
            let x0, y0 = List.hd pts in
            let xn, yn = List.nth pts (List.length pts - 1) in
            Format.fprintf ppf
              "%s. %s -> %d pts (of %d) over [%.1f..%.1f] ms, %a -> %a@," pad
              k (List.length pts) (Series.count s) x0 xn pp_value y0 pp_value
              yn)
      series

  let rec pp_node ~depth ppf nd =
    let indent = 2 * depth in
    let label = String.make indent ' ' ^ nd.name in
    let width = 40 in
    let label =
      if String.length label >= width then label
      else label ^ String.make (width - String.length label) ' '
    in
    Format.fprintf ppf "%s%10.3f ms" label nd.total_ms;
    if nd.calls > 1 then Format.fprintf ppf "  (%d calls)" nd.calls;
    if nd.children <> [] then
      Format.fprintf ppf "  (self %.3f ms)" (self_ms nd);
    Format.fprintf ppf "@,";
    pp_metrics ~indent:(indent + 2) ppf
      (nd.counters, nd.gauges, nd.hists, nd.series);
    List.iter (pp_node ~depth:(depth + 1) ppf) nd.children

  let pp ppf t =
    Format.fprintf ppf "@[<v>-- observability report (wall %.3f ms) --@,"
      t.wall_ms;
    List.iter (pp_node ~depth:0 ppf) t.spans;
    pp_metrics ~indent:0 ppf (t.counters, t.gauges, t.hists, t.series);
    (if t.events <> [] || t.events_dropped > 0 then
       let per lv =
         List.length (List.filter (fun e -> e.Events.level = lv) t.events)
       in
       Format.fprintf ppf
         "events: %d (debug %d, info %d, warn %d, error %d)%s@,"
         (List.length t.events) (per Events.Debug) (per Events.Info)
         (per Events.Warn) (per Events.Error)
         (if t.events_dropped > 0 then
            Printf.sprintf "  [%d dropped]" t.events_dropped
          else ""));
    Format.fprintf ppf "@]"

  (* -------------------------------------------------------------- *)

  let json_metrics (counters, gauges, hists, series) =
    let assoc kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs) in
    let hist h =
      Json.Obj
        [
          ("count", Json.Num (float_of_int (Histogram.count h)));
          ("total", Json.Num (Histogram.total h));
          ("mean", Json.Num (Histogram.mean h));
          ("min", Json.Num (Histogram.minimum h));
          ("max", Json.Num (Histogram.maximum h));
          ("p50", Json.Num (Histogram.quantile h 0.5));
          ("p90", Json.Num (Histogram.quantile h 0.9));
          ("p95", Json.Num (Histogram.quantile h 0.95));
          ("p99", Json.Num (Histogram.quantile h 0.99));
        ]
    in
    let series_obj s =
      Json.Obj
        [
          ("count", Json.Num (float_of_int (Series.count s)));
          ( "points",
            Json.Arr
              (List.map
                 (fun (x, y) -> Json.Arr [ Json.Num x; Json.Num y ])
                 (Series.points s)) );
        ]
    in
    (match counters with [] -> [] | kvs -> [ ("counters", assoc kvs) ])
    @ (match gauges with [] -> [] | kvs -> [ ("gauges", assoc kvs) ])
    @ (match hists with
      | [] -> []
      | kvs ->
          [ ("histograms", Json.Obj (List.map (fun (k, h) -> (k, hist h)) kvs)) ])
    @
    match series with
    | [] -> []
    | kvs ->
        [ ("series", Json.Obj (List.map (fun (k, s) -> (k, series_obj s)) kvs)) ]

  let json_field = function
    | Events.Int i -> Json.Num (float_of_int i)
    | Events.Float f -> Json.Num f
    | Events.Str s -> Json.Str s
    | Events.Bool b -> Json.Bool b

  let json_event (e : Events.event) =
    Json.Obj
      ([
         ("t_ms", Json.Num e.t_ms);
         ("level", Json.Str (Events.level_name e.level));
         ("name", Json.Str e.name);
       ]
      @
      match e.fields with
      | [] -> []
      | fs ->
          [ ("fields", Json.Obj (List.map (fun (k, v) -> (k, json_field v)) fs)) ])

  let rec json_node nd =
    Json.Obj
      ([
         ("name", Json.Str nd.name);
         ("calls", Json.Num (float_of_int nd.calls));
         ("total_ms", Json.Num nd.total_ms);
         ("self_ms", Json.Num (self_ms nd));
       ]
      @ json_metrics (nd.counters, nd.gauges, nd.hists, nd.series)
      @
      match nd.children with
      | [] -> []
      | children -> [ ("spans", Json.Arr (List.map json_node children)) ])

  let to_json t =
    Json.Obj
      ([ ("wall_ms", Json.Num t.wall_ms) ]
      @ json_metrics (t.counters, t.gauges, t.hists, t.series)
      @ [ ("spans", Json.Arr (List.map json_node t.spans)) ]
      @ (match t.events with
        | [] -> []
        | evs -> [ ("events", Json.Arr (List.map json_event evs)) ])
      @
      if t.events_dropped > 0 then
        [ ("events_dropped", Json.Num (float_of_int t.events_dropped)) ]
      else [])
end

(* ------------------------------------------------------------------ *)
(* Exports.                                                            *)

module Export = struct
  (* "workers/<i>" top-level spans map to trace lane (tid) i + 1; the
     coordinator's spans go to lane 0. *)
  let worker_lane name =
    let prefix = "workers/" in
    let pl = String.length prefix in
    if String.length name > pl && String.sub name 0 pl = prefix then
      int_of_string_opt (String.sub name pl (String.length name - pl))
    else None

  let chrome_trace (r : Report.t) =
    let out = ref [] in
    let emit ~tid ~cat (nd : Report.node) =
      List.iter
        (fun (start, dur) ->
          out :=
            Json.Obj
              [
                ("name", Json.Str nd.name);
                ("cat", Json.Str cat);
                ("ph", Json.Str "X");
                ("ts", Json.Num (Float.max 0.0 start *. 1000.0));
                ("dur", Json.Num (Float.max 0.0 dur *. 1000.0));
                ("pid", Json.Num 1.0);
                ("tid", Json.Num (float_of_int tid));
              ]
            :: !out)
        nd.slices
    in
    let rec walk ~tid ~path nd =
      emit ~tid ~cat:(if path = "" then "tecore" else path) nd;
      let path = if path = "" then nd.name else path ^ "/" ^ nd.name in
      List.iter (walk ~tid ~path) nd.children
    in
    List.iter
      (fun nd ->
        let tid =
          match worker_lane nd.Report.name with Some k -> k + 1 | None -> 0
        in
        walk ~tid ~path:"" nd)
      r.Report.spans;
    Json.Obj
      [
        ("traceEvents", Json.Arr (List.rev !out));
        ("displayTimeUnit", Json.Str "ms");
      ]

  let validate_trace ?(min_lanes = 1) json =
    match Json.member "traceEvents" json with
    | Some (Json.Arr []) -> Error "trace: empty traceEvents"
    | Some (Json.Arr events) ->
        let lanes = Hashtbl.create 8 in
        let str k ev =
          match Json.member k ev with Some (Json.Str s) -> Some s | _ -> None
        in
        let num k ev =
          match Json.member k ev with Some (Json.Num f) -> Some f | _ -> None
        in
        let rec check i = function
          | [] ->
              if Hashtbl.length lanes < min_lanes then
                Error
                  (Printf.sprintf "trace: %d lane(s), expected >= %d"
                     (Hashtbl.length lanes) min_lanes)
              else Ok ()
          | ev :: rest -> (
              match
                ( str "ph" ev,
                  str "name" ev,
                  num "ts" ev,
                  num "dur" ev,
                  num "pid" ev,
                  num "tid" ev )
              with
              | Some "X", Some _, Some ts, Some dur, Some _, Some tid ->
                  if ts < 0.0 || dur < 0.0 then
                    Error (Printf.sprintf "trace: event %d: negative ts/dur" i)
                  else begin
                    Hashtbl.replace lanes tid ();
                    check (i + 1) rest
                  end
              | _ ->
                  Error
                    (Printf.sprintf
                       "trace: event %d: missing or ill-typed \
                        ph/name/ts/dur/pid/tid"
                       i))
        in
        check 0 events
    | _ -> Error "trace: missing traceEvents array"

  (* ---------------------------------------------------------------- *)

  let metric_value f =
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else Json.number f

  let label_value s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let labels kvs =
    match kvs with
    | [] -> ""
    | kvs ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (label_value v))
               kvs)
        ^ "}"

  let path_label path = if path = "" then [] else [ ("path", path) ]

  type family = {
    name : string;
    kind : string;
    rows : (string * (string * string) list * float) list;
  }

  let summary_rows ~quantiles base h =
    List.map
      (fun q ->
        ("", base @ [ ("quantile", Json.number q) ], Histogram.quantile h q))
      quantiles
    @ [
        ("_sum", base, Histogram.total h);
        ("_count", base, float_of_int (Histogram.count h));
      ]

  let add_family buf { name; kind; rows } =
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
      List.iter
        (fun (suffix, kvs, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s%s %s\n" name suffix (labels kvs)
               (metric_value v)))
        rows
    end

  let open_metrics ?(families = []) (r : Report.t) =
    (* Span paths depth-first. They are unique after sibling merging, so
       label sets never repeat within a family. *)
    let spans = ref [] in
    let rec walk path (nd : Report.node) =
      let path = if path = "" then nd.name else path ^ "/" ^ nd.name in
      spans := (path, nd) :: !spans;
      List.iter (walk path) nd.children
    in
    List.iter (walk "") r.spans;
    let spans = List.rev !spans in
    let root =
      {
        Report.name = "";
        calls = 0;
        total_ms = 0.0;
        counters = r.counters;
        gauges = r.gauges;
        hists = r.hists;
        series = r.series;
        children = [];
        slices = [];
      }
    in
    (* Rows for one kind of named metric, over the root-level metrics
       (no path label) and then every span's. *)
    let named select row =
      List.concat_map
        (fun (path, nd) ->
          List.concat_map
            (fun (k, x) -> row (path_label path @ [ ("name", k) ]) x)
            (select nd))
        (("", root) :: spans)
    in
    let per_span suffix value =
      List.map (fun (path, nd) -> (suffix, path_label path, value nd)) spans
    in
    let family name kind rows = { name; kind; rows } in
    let count n = float_of_int n in
    let buf = Buffer.create 1024 in
    List.iter (add_family buf)
      ([
         family "tecore_wall_ms" "gauge" [ ("", [], r.wall_ms) ];
         family "tecore_span_ms" "counter"
           (per_span "_total" (fun nd -> nd.Report.total_ms));
         family "tecore_span_calls" "counter"
           (per_span "_total" (fun nd -> count nd.Report.calls));
         family "tecore_counter" "counter"
           (named
              (fun nd -> nd.Report.counters)
              (fun l v -> [ ("_total", l, v) ]));
         family "tecore_gauge" "gauge"
           (named (fun nd -> nd.Report.gauges) (fun l v -> [ ("", l, v) ]));
         family "tecore_histogram" "summary"
           (named
              (fun nd -> nd.Report.hists)
              (summary_rows ~quantiles:[ 0.5; 0.9; 0.95; 0.99 ]));
         family "tecore_series_points" "gauge"
           (named
              (fun nd -> nd.Report.series)
              (fun l s -> [ ("", l, count (Series.count s)) ]));
         family "tecore_series_last" "gauge"
           (named
              (fun nd -> nd.Report.series)
              (fun l s ->
                match List.rev (Series.points s) with
                | (_, y) :: _ -> [ ("", l, y) ]
                | [] -> []));
         family "tecore_events" "counter"
           (if r.events = [] then []
            else
              List.map
                (fun lv ->
                  ( "_total",
                    [ ("level", Events.level_name lv) ],
                    count
                      (List.length
                         (List.filter (fun e -> e.Events.level = lv) r.events))
                  ))
                [ Events.Debug; Events.Info; Events.Warn; Events.Error ]);
         (* Always emitted, so scrapers can alert on ring overflow even
            when the ring itself is empty (e.g. right after a capacity
            resize). *)
         family "tecore_events_dropped" "counter"
           [ ("_total", [], count r.events_dropped) ];
       ]
      @ families);
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

  let validate_metrics text =
    let lines = String.split_on_char '\n' text in
    let rec strip_last = function
      | [ "" ] -> []
      | x :: rest -> x :: strip_last rest
      | [] -> []
    in
    let lines = strip_last lines in
    let is_name_char c =
      (c >= 'a' && c <= 'z')
      || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9')
      || c = '_' || c = ':'
    in
    let metric_ok l =
      let n = String.length l in
      let i = ref 0 in
      while !i < n && is_name_char l.[!i] do
        incr i
      done;
      if !i = 0 then false
      else begin
        let ok = ref true in
        (if !i < n && l.[!i] = '{' then begin
           incr i;
           let in_str = ref false and esc = ref false and closed = ref false in
           while !i < n && not !closed do
             let c = l.[!i] in
             (if !esc then esc := false
              else if !in_str then
                if c = '\\' then esc := true
                else if c = '"' then in_str := false
                else ()
              else if c = '"' then in_str := true
              else if c = '}' then closed := true);
             incr i
           done;
           if not !closed then ok := false
         end);
        !ok && !i < n
        && l.[!i] = ' '
        &&
        let v = String.sub l (!i + 1) (n - !i - 1) in
        match v with
        | "+Inf" | "-Inf" | "NaN" -> true
        | _ -> float_of_string_opt v <> None
      end
    in
    let known_types =
      [ "counter"; "gauge"; "summary"; "histogram"; "info"; "stateset";
        "unknown" ]
    in
    let rec go lineno saw_eof = function
      | [] -> if saw_eof then Ok () else Error "metrics: missing # EOF"
      | l :: rest ->
          if saw_eof then
            Error (Printf.sprintf "metrics: line %d: content after # EOF" lineno)
          else if l = "# EOF" then go (lineno + 1) true rest
          else if l = "" then
            Error (Printf.sprintf "metrics: line %d: blank line" lineno)
          else if l.[0] = '#' then (
            match String.split_on_char ' ' l with
            | [ "#"; "TYPE"; name; typ ]
              when name <> "" && List.mem typ known_types ->
                go (lineno + 1) false rest
            | "#" :: "HELP" :: name :: _ when name <> "" ->
                go (lineno + 1) false rest
            | [ "#"; "UNIT"; name; _ ] when name <> "" ->
                go (lineno + 1) false rest
            | _ ->
                Error
                  (Printf.sprintf "metrics: line %d: malformed metadata line"
                     lineno))
          else if metric_ok l then go (lineno + 1) false rest
          else
            Error (Printf.sprintf "metrics: line %d: malformed metric line" lineno)
    in
    go 1 false lines
end

(* Profile crew tasks as per-domain spans: the hook runs on whichever
   domain executes the task, so tasks picked up by a worker land in its
   "workers/<i>" lane while tasks the coordinator deals to itself nest
   under its open span. Disabled observability tail-calls the task. *)
let () = Prelude.Pool.set_task_hook (Some (fun f -> span "task" f))
