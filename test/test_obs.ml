(* Unit tests for the observability library: span nesting, metric
   accumulation across merged spans, histogram quantiles, and the JSON
   round-trip used by the CLI and the benchmark exporter. *)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_trace None;
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Spans.                                                             *)

let test_span_nesting () =
  with_obs (fun () ->
      Obs.span "outer" (fun () ->
          Obs.span "inner" (fun () -> ());
          Obs.span "inner2" (fun () -> ()));
      let r = Obs.Report.capture () in
      Alcotest.(check int) "one top-level span" 1 (List.length r.Obs.Report.spans);
      let outer = List.hd r.Obs.Report.spans in
      Alcotest.(check string) "outer name" "outer" outer.Obs.Report.name;
      Alcotest.(check (list string))
        "children in order" [ "inner"; "inner2" ]
        (List.map
           (fun (n : Obs.Report.node) -> n.Obs.Report.name)
           outer.Obs.Report.children);
      match Obs.Report.find r [ "outer"; "inner" ] with
      | Some n -> Alcotest.(check int) "inner calls" 1 n.Obs.Report.calls
      | None -> Alcotest.fail "find outer/inner")

let test_span_merging () =
  with_obs (fun () ->
      for _ = 1 to 3 do
        Obs.span "stage" (fun () -> Obs.count "work")
      done;
      let r = Obs.Report.capture () in
      Alcotest.(check int) "merged to one node" 1 (List.length r.Obs.Report.spans);
      let n = List.hd r.Obs.Report.spans in
      Alcotest.(check int) "three calls" 3 n.Obs.Report.calls;
      Alcotest.(check (float 1e-9))
        "counters accumulate" 3.0
        (List.assoc "work" n.Obs.Report.counters))

let test_span_exception_balance () =
  with_obs (fun () ->
      (try
         Obs.span "outer" (fun () ->
             Obs.span "boom" (fun () -> failwith "x"))
       with Failure _ -> ());
      (* The stack must be balanced: a fresh span lands at top level. *)
      Obs.span "after" (fun () -> ());
      let r = Obs.Report.capture () in
      Alcotest.(check (list string))
        "both top level" [ "outer"; "after" ]
        (List.map
           (fun (n : Obs.Report.node) -> n.Obs.Report.name)
           r.Obs.Report.spans);
      match Obs.Report.find r [ "outer"; "boom" ] with
      | Some n -> Alcotest.(check int) "raising span closed" 1 n.Obs.Report.calls
      | None -> Alcotest.fail "raising span lost")

let test_disabled_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  Obs.span "ghost" (fun () -> Obs.count "ghost.count");
  Obs.event "ghost.event" [ ("k", Obs.Events.Int 1) ];
  Obs.sample "ghost.series" ~t_ms:1.0 ~v:2.0;
  Obs.set_enabled true;
  let r = Obs.Report.capture () in
  Obs.set_enabled false;
  Alcotest.(check int) "no spans recorded" 0 (List.length r.Obs.Report.spans);
  Alcotest.(check int)
    "no counters recorded" 0
    (List.length r.Obs.Report.counters);
  Alcotest.(check int) "no events recorded" 0 (List.length r.Obs.Report.events);
  Alcotest.(check int) "no series recorded" 0 (List.length r.Obs.Report.series)

let test_root_metrics () =
  with_obs (fun () ->
      Obs.count ~n:5 "loose";
      Obs.gauge "level" 0.75;
      let r = Obs.Report.capture () in
      Alcotest.(check (float 1e-9))
        "root counter" 5.0
        (List.assoc "loose" r.Obs.Report.counters);
      Alcotest.(check (float 1e-9))
        "root gauge" 0.75
        (List.assoc "level" r.Obs.Report.gauges))

let test_trace_hook () =
  with_obs (fun () ->
      let events = ref [] in
      Obs.set_trace
        (Some (fun ~depth name _ms -> events := (depth, name) :: !events));
      Obs.span "a" (fun () -> Obs.span "b" (fun () -> ()));
      Obs.set_trace None;
      (* Children close before parents; depth counts from 0 at top level. *)
      Alcotest.(check (list (pair int string)))
        "close order and depths"
        [ (1, "b"); (0, "a") ]
        (List.rev !events))

(* ------------------------------------------------------------------ *)
(* Histograms.                                                        *)

let test_histogram_quantiles () =
  let h = Obs.Histogram.create () in
  for i = 100 downto 1 do
    Obs.Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "total" 5050.0 (Obs.Histogram.total h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Obs.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Obs.Histogram.minimum h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Obs.Histogram.maximum h);
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Obs.Histogram.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Obs.Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p90" 90.0 (Obs.Histogram.quantile h 0.9);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Obs.Histogram.quantile h 0.99);
  Alcotest.(check (float 1e-9)) "p100 = max" 100.0 (Obs.Histogram.quantile h 1.0)

let test_histogram_merge () =
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  List.iter (Obs.Histogram.add a) [ 1.0; 2.0 ];
  List.iter (Obs.Histogram.add b) [ 3.0; 4.0 ];
  let m = Obs.Histogram.merge a b in
  Alcotest.(check int) "merged count" 4 (Obs.Histogram.count m);
  Alcotest.(check (float 1e-9)) "merged total" 10.0 (Obs.Histogram.total m);
  (* Merge must not alias the inputs. *)
  Obs.Histogram.add m 99.0;
  Alcotest.(check int) "input a untouched" 2 (Obs.Histogram.count a)

let test_histogram_reservoir_cap () =
  let h = Obs.Histogram.create ~cap:64 () in
  for i = 1 to 10_000 do
    Obs.Histogram.add h (float_of_int i)
  done;
  (* Stream statistics stay exact past the cap; only the quantile
     sample is bounded. *)
  Alcotest.(check int) "count is stream-exact" 10_000 (Obs.Histogram.count h);
  Alcotest.(check int) "stored bounded by cap" 64 (Obs.Histogram.stored h);
  Alcotest.(check (float 1e-3))
    "total is stream-exact" 50_005_000.0 (Obs.Histogram.total h);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (Obs.Histogram.minimum h);
  Alcotest.(check (float 1e-9)) "max exact" 10_000.0 (Obs.Histogram.maximum h);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        "retained samples come from the stream" true
        (Float.is_integer v && v >= 1.0 && v <= 10_000.0))
    (Obs.Histogram.to_list h);
  (* The reservoir is seeded deterministically, so this is a stable
     (loose) check that the median estimate sits in the bulk of the
     uniform stream rather than at an extreme. *)
  let p50 = Obs.Histogram.quantile h 0.5 in
  Alcotest.(check bool)
    "median estimate in the bulk" true
    (p50 >= 1_000.0 && p50 <= 9_000.0)

let prop_histogram_merge_stable =
  QCheck.Test.make
    ~name:"histogram merge: exact stream stats, deterministic, unaliased"
    ~count:100
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (xs, ys) ->
      let cap = 32 in
      let fill vals =
        let h = Obs.Histogram.create ~cap () in
        List.iter (fun v -> Obs.Histogram.add h (float_of_int v)) vals;
        h
      in
      let a = fill xs and b = fill ys in
      let m1 = Obs.Histogram.merge a b in
      let m2 = Obs.Histogram.merge a b in
      let all = xs @ ys in
      (* Small-integer sums are exactly representable, so the stream
         fields must combine exactly, not approximately. *)
      let ok_stream =
        Obs.Histogram.count m1 = List.length all
        && Obs.Histogram.total m1
           = List.fold_left (fun acc v -> acc +. float_of_int v) 0.0 all
        &&
        match all with
        | [] -> Obs.Histogram.stored m1 = 0
        | _ ->
            Obs.Histogram.minimum m1
            = float_of_int (List.fold_left min max_int all)
            && Obs.Histogram.maximum m1
               = float_of_int (List.fold_left max min_int all)
      in
      let qs = [ 0.0; 0.25; 0.5; 0.75; 0.95; 1.0 ] in
      let same q1 q2 = q1 = q2 || (Float.is_nan q1 && Float.is_nan q2) in
      (* Merging the same pair twice yields identical histograms. *)
      let deterministic =
        Obs.Histogram.to_list m1 = Obs.Histogram.to_list m2
        && List.for_all
             (fun q ->
               same (Obs.Histogram.quantile m1 q) (Obs.Histogram.quantile m2 q))
             qs
      in
      (* While everything fits the capacity, a merge is exactly the
         histogram of the concatenated stream. *)
      let exact_below_cap =
        List.length all > cap
        || (let c = fill all in
            List.for_all
              (fun q ->
                same (Obs.Histogram.quantile m1 q) (Obs.Histogram.quantile c q))
              qs)
      in
      Obs.Histogram.add m1 1234.0;
      let unaliased =
        Obs.Histogram.count a = List.length xs
        && Obs.Histogram.count b = List.length ys
      in
      ok_stream && deterministic && exact_below_cap && unaliased)

(* ------------------------------------------------------------------ *)
(* JSON round-trip.                                                   *)

let test_json_roundtrip_report () =
  let report =
    with_obs (fun () ->
        Obs.span "ground" (fun () -> Obs.count ~n:42 "atoms");
        Obs.span "solve" (fun () ->
            Obs.record "flips" 10.0;
            Obs.record "flips" 30.0;
            Obs.gauge "cost" 1.5);
        Obs.Report.capture ())
  in
  let text = Obs.Json.to_string (Obs.Report.to_json report) in
  match Obs.Json.parse text with
  | Error e -> Alcotest.fail ("report JSON does not parse: " ^ e)
  | Ok json ->
      (* Printing the parsed tree must reproduce the exact encoding: the
         printer/parser pair is the data contract for the report that
         [resolve --json --stats] embeds. *)
      Alcotest.(check string) "print . parse = id" text (Obs.Json.to_string json);
      let spans =
        match Obs.Json.member "spans" json with
        | Some (Obs.Json.Arr spans) -> spans
        | _ -> Alcotest.fail "no spans array"
      in
      Alcotest.(check int) "two spans" 2 (List.length spans);
      let solve = List.nth spans 1 in
      (match Obs.Json.member "name" solve with
      | Some (Obs.Json.Str s) -> Alcotest.(check string) "name" "solve" s
      | _ -> Alcotest.fail "span without name");
      (match Obs.Json.member "histograms" solve with
      | Some (Obs.Json.Obj [ ("flips", flips) ]) -> (
          match Obs.Json.member "mean" flips with
          | Some (Obs.Json.Num m) ->
              Alcotest.(check (float 1e-9)) "hist mean survives" 20.0 m
          | _ -> Alcotest.fail "histogram without mean")
      | _ -> Alcotest.fail "solve without histograms")

let test_json_parse_errors () =
  List.iter
    (fun input ->
      match Obs.Json.parse input with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" input
      | Error e ->
          let contains_offset =
            let needle = "offset" in
            let n = String.length needle and m = String.length e in
            let rec at i = i + n <= m && (String.sub e i n = needle || at (i + 1)) in
            at 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "error for %S mentions offset" input)
            true contains_offset)
    [ "{"; "[1,"; "\"unterminated"; "{\"a\":}"; "truefalse"; "{} x" ]

let test_json_escapes () =
  let escape s = Obs.Json.to_string (Obs.Json.Str s) in
  Alcotest.(check string) "quotes" "\"a\\\"b\"" (escape "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (escape "a\\b");
  Alcotest.(check string) "newline" "\"a\\nb\"" (escape "a\nb");
  Alcotest.(check string) "control" "\"a\\u0001b\"" (escape "a\001b");
  let s = "line\nbreak \"quoted\" \\ tab\t" in
  let text = escape s in
  match Obs.Json.parse text with
  | Ok (Obs.Json.Str back) -> Alcotest.(check string) "string survives" s back
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Find across merged spans and the self_ms invariant.                *)

let test_find_merged () =
  with_obs (fun () ->
      Obs.span "stage" (fun () ->
          Obs.span "child" (fun () -> Obs.count "c"));
      Obs.span "stage" (fun () ->
          Obs.span "child" (fun () -> Obs.count "c"));
      let r = Obs.Report.capture () in
      match Obs.Report.find r [ "stage"; "child" ] with
      | None -> Alcotest.fail "find stage/child across merged parents"
      | Some n ->
          Alcotest.(check int) "merged calls" 2 n.Obs.Report.calls;
          Alcotest.(check (float 1e-9))
            "merged counter" 2.0
            (List.assoc "c" n.Obs.Report.counters))

let prop_self_ms_nonneg =
  QCheck.Test.make ~name:"self_ms >= 0 on random span trees" ~count:50
    QCheck.(small_list (int_bound 3))
    (fun script ->
      let r =
        with_obs (fun () ->
            (* Interpret the script as a nesting recipe: 0 closes a
               leaf immediately, anything else opens a span around the
               rest of the script. *)
            let rec go = function
              | [] -> ()
              | 0 :: rest ->
                  Obs.span "leaf" (fun () -> ());
                  go rest
              | d :: rest ->
                  Obs.span (Printf.sprintf "n%d" d) (fun () -> go rest)
            in
            go script;
            Obs.Report.capture ())
      in
      let rec ok (n : Obs.Report.node) =
        let children = n.Obs.Report.children in
        let self_ms =
          List.fold_left
            (fun acc (c : Obs.Report.node) -> acc -. c.Obs.Report.total_ms)
            n.Obs.Report.total_ms children
        in
        self_ms >= -1e-6 && List.for_all ok children
      in
      List.for_all ok r.Obs.Report.spans)

(* ------------------------------------------------------------------ *)
(* Events: levels, ring-buffer overflow.                              *)

let test_events_basic () =
  with_obs (fun () ->
      Obs.event "plain" [];
      Obs.event ~level:Obs.Events.Warn "warned"
        [ ("n", Obs.Events.Int 3); ("who", Obs.Events.Str "me") ];
      let r = Obs.Report.capture () in
      Alcotest.(check int) "two events" 2 (List.length r.Obs.Report.events);
      let e1 = List.nth r.Obs.Report.events 1 in
      Alcotest.(check string) "name" "warned" e1.Obs.Events.name;
      Alcotest.(check bool)
        "level" true
        (e1.Obs.Events.level = Obs.Events.Warn);
      Alcotest.(check int) "fields" 2 (List.length e1.Obs.Events.fields);
      Alcotest.(check bool)
        "timestamps oldest-first" true
        ((List.hd r.Obs.Report.events).Obs.Events.t_ms <= e1.Obs.Events.t_ms);
      Alcotest.(check int) "nothing dropped" 0 r.Obs.Report.events_dropped)

(* The ring keeps the newest 4096 events. *)
let test_event_level_and_value_names () =
  let open Obs.Events in
  Alcotest.(check (list string)) "level names"
    [ "debug"; "info"; "warn"; "error" ]
    (List.map level_name [ Debug; Info; Warn; Error ]);
  Alcotest.(check (list int)) "severities ascend" [ 0; 1; 2; 3 ]
    (List.map severity [ Debug; Info; Warn; Error ]);
  Alcotest.(check (list string)) "values"
    [ "3"; "2.5"; "who"; "true" ]
    (List.map value_to_string [ Int 3; Float 2.5; Str "who"; Bool true ])

(* A summary family's rows: one per quantile, labelled after the given
   labels, then [_sum] and [_count]. *)
let test_summary_rows () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.add h) [ 1.0; 2.0; 3.0; 4.0 ];
  let rows =
    Obs.Export.summary_rows ~quantiles:[ 0.5; 0.95 ] [ ("phase", "solve") ] h
  in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "suffixes and labels"
    [
      ("", [ ("phase", "solve"); ("quantile", "0.5") ]);
      ("", [ ("phase", "solve"); ("quantile", "0.95") ]);
      ("_sum", [ ("phase", "solve") ]);
      ("_count", [ ("phase", "solve") ]);
    ]
    (List.map (fun (suffix, labels, _) -> (suffix, labels)) rows);
  Alcotest.(check (list (float 1e-12)))
    "values"
    [
      Obs.Histogram.quantile h 0.5; Obs.Histogram.quantile h 0.95; 10.0; 4.0;
    ]
    (List.map (fun (_, _, v) -> v) rows)

let test_events_ring_overflow () =
  with_obs (fun () ->
      for i = 0 to 4096 + 11 do
        Obs.event (Printf.sprintf "e%d" i) []
      done;
      let r = Obs.Report.capture () in
      Alcotest.(check int)
        "newest 4096 kept" 4096
        (List.length r.Obs.Report.events);
      Alcotest.(check (list string))
        "oldest dropped, order preserved"
        (List.init 4096 (fun i -> Printf.sprintf "e%d" (12 + i)))
        (List.map
           (fun (e : Obs.Events.event) -> e.Obs.Events.name)
           r.Obs.Report.events);
      Alcotest.(check int) "drop counter" 12 r.Obs.Report.events_dropped)

let test_event_hook () =
  with_obs (fun () ->
      let seen = ref [] in
      Obs.set_event_hook
        (Some (fun e -> seen := e.Obs.Events.name :: !seen));
      Fun.protect
        ~finally:(fun () -> Obs.set_event_hook None)
        (fun () ->
          Obs.event "a" [];
          Obs.event "b" []);
      Alcotest.(check (list string)) "hook saw both" [ "a"; "b" ]
        (List.rev !seen))

(* ------------------------------------------------------------------ *)
(* Series: bounded memory, downsampling keeps a monotone subsequence. *)

let test_series_downsample () =
  let s = Obs.Series.create ~cap:8 () in
  for i = 0 to 999 do
    Obs.Series.add s ~x:(float_of_int i) ~y:(float_of_int (1000 - i))
  done;
  Alcotest.(check int) "count = points offered" 1000 (Obs.Series.count s);
  let pts = Obs.Series.points s in
  Alcotest.(check bool)
    "kept points bounded" true
    (List.length pts <= 9 (* cap + the tracked last point *));
  Alcotest.(check bool) "non-empty" true (pts <> []);
  (* Downsampling drops points but never reorders: x stays strictly
     increasing, and the y of this monotone input stays decreasing. *)
  let rec monotone = function
    | (x1, y1) :: ((x2, y2) :: _ as rest) ->
        x1 < x2 && y1 > y2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "subsequence keeps monotonicity" true (monotone pts);
  (* The most recent sample always survives. *)
  Alcotest.(check (float 1e-9)) "last x kept" 999.0 (fst (List.hd (List.rev pts)));
  Alcotest.(check (float 1e-9)) "last y kept" 1.0 (snd (List.hd (List.rev pts)))

let test_series_merge () =
  let a = Obs.Series.create ~cap:16 () and b = Obs.Series.create ~cap:16 () in
  List.iter (fun x -> Obs.Series.add a ~x ~y:(x *. 10.0)) [ 1.0; 3.0; 5.0 ];
  List.iter (fun x -> Obs.Series.add b ~x ~y:(x *. 10.0)) [ 2.0; 4.0 ];
  let m = Obs.Series.merge a b in
  Alcotest.(check int) "merged count" 5 (Obs.Series.count m);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "merged sorted by x"
    [ (1.0, 10.0); (2.0, 20.0); (3.0, 30.0); (4.0, 40.0); (5.0, 50.0) ]
    (Obs.Series.points m)

let test_sample_in_report () =
  with_obs (fun () ->
      Obs.span "solve" (fun () ->
          Obs.sample "cost" ~t_ms:(Prelude.Timing.now_ms ()) ~v:5.0;
          Obs.sample "cost" ~t_ms:(Prelude.Timing.now_ms ()) ~v:3.0);
      let r = Obs.Report.capture () in
      match Obs.Report.find r [ "solve" ] with
      | None -> Alcotest.fail "solve span"
      | Some n -> (
          match List.assoc_opt "cost" n.Obs.Report.series with
          | None -> Alcotest.fail "cost series missing"
          | Some s ->
              Alcotest.(check int) "two samples" 2 (Obs.Series.count s);
              List.iter
                (fun (x, _) ->
                  Alcotest.(check bool)
                    "timestamps are reset-relative and non-negative" true
                    (x >= 0.0))
                (Obs.Series.points s)))

(* ------------------------------------------------------------------ *)
(* JSON hardening: shortest-round-trip floats, non-finite rejection,  *)
(* and a generative round-trip property.                              *)

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      let text = Obs.Json.to_string (Obs.Json.Num f) in
      match Obs.Json.parse text with
      | Ok (Obs.Json.Num back) ->
          Alcotest.(check bool)
            (Printf.sprintf "%h survives as %s" f text)
            true (back = f)
      | Ok _ -> Alcotest.failf "%s parsed to a non-number" text
      | Error e -> Alcotest.failf "%s: %s" text e)
    [
      1e-7; 6.02e23; 0.1 +. 0.2; 1.7976931348623157e308; 5e-324; -0.375;
      3.141592653589793; 1e22; 123456789.123456789;
    ]

let test_json_nonfinite_rejected () =
  List.iter
    (fun input ->
      match Obs.Json.parse input with
      | Ok _ -> Alcotest.failf "accepted non-finite number %S" input
      | Error e ->
          let mentions_offset =
            let needle = "offset" in
            let n = String.length needle and m = String.length e in
            let rec at i =
              i + n <= m && (String.sub e i n = needle || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "error for %S carries an offset" input)
            true mentions_offset)
    [ "1e999"; "-1e999"; "[1, 1e999]"; "{\"v\": -1e999}" ]

let json_gen =
  let open QCheck.Gen in
  let finite =
    map (fun f -> if Float.is_finite f then f else 0.0) float
  in
  let key = string_size ~gen:(char_range 'a' 'z') (1 -- 5) in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun f -> Obs.Json.Num f) finite;
        map (fun i -> Obs.Json.Num (float_of_int i)) small_signed_int;
        map (fun s -> Obs.Json.Str s) (string_size ~gen:printable (0 -- 10));
      ]
  in
  let rec value n =
    if n <= 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map (fun xs -> Obs.Json.Arr xs)
              (list_size (0 -- 4) (value (n / 2))) );
          ( 1,
            map (fun kvs -> Obs.Json.Obj kvs)
              (list_size (0 -- 4) (pair key (value (n / 2)))) );
        ]
  in
  value 8

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse . to_string = id" ~count:200
    (QCheck.make json_gen)
    (fun v ->
      match Obs.Json.parse (Obs.Json.to_string v) with
      | Ok back -> back = v
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Solver convergence series: every solver leaves a non-empty series  *)
(* with non-decreasing timestamps; MAP solvers' best cost never rises. *)

let rec node_series (n : Obs.Report.node) =
  n.Obs.Report.series
  @ List.concat_map node_series n.Obs.Report.children

let all_series (r : Obs.Report.t) =
  r.Obs.Report.series @ List.concat_map node_series r.Obs.Report.spans

let convergence_points r name =
  match
    List.filter_map
      (fun (n, s) -> if n = name then Some s else None)
      (all_series r)
  with
  | [] -> Alcotest.failf "series %s missing from report" name
  | first :: rest ->
      Obs.Series.points (List.fold_left Obs.Series.merge first rest)

let check_timeline ?(map_cost = false) name pts =
  Alcotest.(check bool) (name ^ " non-empty") true (pts <> []);
  let rec go = function
    | (x1, y1) :: ((x2, y2) :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s time monotone (%.3f <= %.3f)" name x1 x2)
          true (x1 <= x2);
        if map_cost then
          Alcotest.(check bool)
            (Printf.sprintf "%s cost non-increasing (%.3f >= %.3f)" name y1 y2)
            true (y1 >= y2);
        go rest
    | _ -> ()
  in
  go pts

(* Three atoms; soft unit clauses pulling 0 and 1 up, a soft mutual
   exclusion, and a hard unit on atom 2 so the samplers have a hard
   part to respect. *)
let tiny_network () =
  let clause lits weight = (lits, weight, "tiny") in
  Mln.Network.of_clauses ~num_atoms:3
    [
      clause [ (0, true) ] (Some 1.0);
      clause [ (1, true) ] (Some 0.6);
      clause [ (0, false); (1, false) ] (Some 0.8);
      clause [ (2, true) ] None;
    ]

let test_walksat_convergence () =
  with_obs (fun () ->
      let network = tiny_network () in
      ignore
        (Mln.Maxwalksat.solve ~seed:3 ~init:(Array.make 3 false) network);
      let r = Obs.Report.capture () in
      check_timeline ~map_cost:true "walksat.convergence"
        (convergence_points r "walksat.convergence"))

let test_milp_convergence () =
  with_obs (fun () ->
      let network = tiny_network () in
      (match
         Mln.Ilp_encoding.solve ~deadline:Prelude.Deadline.none network
       with
      | Some _ -> ()
      | None -> Alcotest.fail "tiny network should be feasible");
      let r = Obs.Report.capture () in
      check_timeline ~map_cost:true "milp.convergence"
        (convergence_points r "milp.convergence"))

let test_gibbs_convergence () =
  with_obs (fun () ->
      ignore
        (Mln.Gibbs.run ~seed:3 ~burn_in:10 ~samples:80 (tiny_network ()));
      let r = Obs.Report.capture () in
      let pts = convergence_points r "gibbs.convergence" in
      check_timeline "gibbs.convergence" pts;
      (* Cumulative recorded sweeps only grow. *)
      let rec nondecreasing = function
        | (_, y1) :: ((_, y2) :: _ as rest) ->
            y1 <= y2 && nondecreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "cumulative samples" true (nondecreasing pts))

let test_mcsat_convergence () =
  with_obs (fun () ->
      ignore
        (Mln.Mcsat.run ~seed:3 ~burn_in:4 ~samples:24 ~sample_flips:500
           (tiny_network ()));
      let r = Obs.Report.capture () in
      check_timeline "mcsat.convergence"
        (convergence_points r "mcsat.convergence"))

let test_admm_convergence () =
  with_obs (fun () ->
      (* minimize max(0, 1 - x): ADMM walks x toward 1. *)
      let model =
        {
          Psl.Hlmrf.num_vars = 1;
          num_potentials = 1;
          kind = [| Psl.Hlmrf.Hinge |];
          weight = [| 1.0 |];
          const = [| 1.0 |];
          offsets = [| 0; 1 |];
          var = [| 0 |];
          coef = [| -1.0 |];
        }
      in
      ignore (Psl.Admm.solve ~max_iters:200 model);
      let r = Obs.Report.capture () in
      check_timeline ~map_cost:true "admm.convergence"
        (convergence_points r "admm.convergence"))

(* ------------------------------------------------------------------ *)
(* Worker profiling: parallel runs account the same work, worker      *)
(* lanes only exist when the crew actually ran tasks.                 *)

let counter_total r name =
  let rec node_sum (n : Obs.Report.node) =
    Option.value (List.assoc_opt name n.Obs.Report.counters) ~default:0.0
    +. List.fold_left (fun acc c -> acc +. node_sum c) 0.0 n.Obs.Report.children
  in
  Option.value (List.assoc_opt name r.Obs.Report.counters) ~default:0.0
  +. List.fold_left (fun acc n -> acc +. node_sum n) 0.0 r.Obs.Report.spans

let span_calls r name =
  let rec node_sum (n : Obs.Report.node) =
    (if n.Obs.Report.name = name then n.Obs.Report.calls else 0)
    + List.fold_left (fun acc c -> acc + node_sum c) 0 n.Obs.Report.children
  in
  List.fold_left (fun acc n -> acc + node_sum n) 0 r.Obs.Report.spans

let test_jobs_report_equivalence () =
  let run jobs =
    with_obs (fun () ->
        let pool = Prelude.Pool.create ~jobs in
        Obs.span "work" (fun () ->
            ignore
              (Prelude.Pool.map_array pool
                 (fun i ->
                   Obs.count "item";
                   i * i)
                 (Array.init 12 Fun.id)));
        Obs.Report.capture ())
  in
  let r1 = run 1 and r4 = run 4 in
  (* The same work is accounted at every job count, wherever the tasks
     ran (coordinator span at jobs=1, task spans in worker lanes at
     jobs=4). *)
  Alcotest.(check (float 1e-9)) "items at jobs=1" 12.0 (counter_total r1 "item");
  Alcotest.(check (float 1e-9)) "items at jobs=4" 12.0 (counter_total r4 "item");
  (* Sequential pools bypass the crew: no task spans, no worker lanes. *)
  Alcotest.(check int) "no task spans at jobs=1" 0 (span_calls r1 "task");
  Alcotest.(check bool)
    "no worker lanes at jobs=1" true
    (List.for_all
       (fun (n : Obs.Report.node) ->
         not
           (String.length n.Obs.Report.name >= 8
           && String.sub n.Obs.Report.name 0 8 = "workers/"))
       r1.Obs.Report.spans);
  (* The crew path wraps every dealt task in a span (the coordinator
     deals too, so lanes are scheduling-dependent — only the total is
     stable). *)
  Alcotest.(check int) "12 task spans at jobs=4" 12 (span_calls r4 "task")

(* ------------------------------------------------------------------ *)
(* Exports: the trace and metrics renderings of a captured report pass *)
(* their own validators.                                              *)

let test_export_validates () =
  with_obs (fun () ->
      Obs.span "resolve" (fun () ->
          Obs.span "ground" (fun () -> Obs.count ~n:7 "atoms");
          Obs.span "solve" (fun () ->
              Obs.record "flips" 5.0;
              Obs.gauge "cost" 1.5;
              Obs.sample "cost" ~t_ms:(Prelude.Timing.now_ms ()) ~v:1.5));
      Obs.event ~level:Obs.Events.Warn "something" [ ("n", Obs.Events.Int 1) ];
      let r = Obs.Report.capture () in
      (match Obs.Export.validate_trace (Obs.Export.chrome_trace r) with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("chrome trace invalid: " ^ e));
      (match Obs.Export.validate_metrics (Obs.Export.open_metrics r) with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("open metrics invalid: " ^ e));
      (* The JSON report with events and series still round-trips. *)
      let text = Obs.Json.to_string (Obs.Report.to_json r) in
      match Obs.Json.parse text with
      | Error e -> Alcotest.fail ("report JSON: " ^ e)
      | Ok json ->
          Alcotest.(check string)
            "print . parse = id" text
            (Obs.Json.to_string json))

(* The exposition bytes of a hand-built report, pinned exactly: nested
   spans, root and span metrics, label escaping, non-finite values,
   every event level and a non-zero drop count. *)
let test_open_metrics_pinned () =
  let hist xs =
    let h = Obs.Histogram.create () in
    List.iter (Obs.Histogram.add h) xs;
    h
  in
  let series pts =
    let s = Obs.Series.create () in
    List.iter (fun (x, y) -> Obs.Series.add s ~x ~y) pts;
    s
  in
  let node ?(counters = []) ?(gauges = []) ?(hists = []) ?(series = [])
      ?(children = []) name calls total_ms =
    {
      Obs.Report.name;
      calls;
      total_ms;
      counters;
      gauges;
      hists;
      series;
      children;
      slices = [];
    }
  in
  let event level name =
    { Obs.Events.t_ms = 1.0; level; name; fields = [] }
  in
  let r =
    {
      Obs.Report.wall_ms = 1234.5;
      counters = [ ("requests", 3.0); ("odd \"name\"\\\n", 0.25) ];
      gauges = [ ("depth", Float.nan) ];
      hists = [ ("latency", hist [ 1.0; 2.0; 3.0; 4.0 ]) ];
      series = [];
      spans =
        [
          node "resolve" 2 40.0
            ~children:
              [
                node "ground" 2 12.5 ~counters:[ ("atoms", 7.0) ];
                node "solve" 1 20.0
                  ~gauges:[ ("cost", 1.5); ("bound", Float.infinity) ]
                  ~hists:[ ("flips", hist [ 5.0; 9.0 ]) ]
                  ~series:[ ("cost", series [ (0.0, 4.0); (1.0, 2.5) ]) ];
              ];
          node "workers/0" 1 3.0 ~counters:[ ("tasks", 12.0) ];
        ];
      events =
        [
          event Obs.Events.Info "a";
          event Obs.Events.Warn "b";
          event Obs.Events.Info "c";
          event Obs.Events.Error "d";
        ];
      events_dropped = 2;
    }
  in
  Alcotest.(check string)
    "exposition bytes"
    (String.concat "\n"
       [
         "# TYPE tecore_wall_ms gauge";
         "tecore_wall_ms 1234.5";
         "# TYPE tecore_span_ms counter";
         "tecore_span_ms_total{path=\"resolve\"} 40";
         "tecore_span_ms_total{path=\"resolve/ground\"} 12.5";
         "tecore_span_ms_total{path=\"resolve/solve\"} 20";
         "tecore_span_ms_total{path=\"workers/0\"} 3";
         "# TYPE tecore_span_calls counter";
         "tecore_span_calls_total{path=\"resolve\"} 2";
         "tecore_span_calls_total{path=\"resolve/ground\"} 2";
         "tecore_span_calls_total{path=\"resolve/solve\"} 1";
         "tecore_span_calls_total{path=\"workers/0\"} 1";
         "# TYPE tecore_counter counter";
         "tecore_counter_total{name=\"requests\"} 3";
         "tecore_counter_total{name=\"odd \\\"name\\\"\\\\\\n\"} 0.25";
         "tecore_counter_total{path=\"resolve/ground\",name=\"atoms\"} 7";
         "tecore_counter_total{path=\"workers/0\",name=\"tasks\"} 12";
         "# TYPE tecore_gauge gauge";
         "tecore_gauge{name=\"depth\"} NaN";
         "tecore_gauge{path=\"resolve/solve\",name=\"cost\"} 1.5";
         "tecore_gauge{path=\"resolve/solve\",name=\"bound\"} +Inf";
         "# TYPE tecore_histogram summary";
         "tecore_histogram{name=\"latency\",quantile=\"0.5\"} 2";
         "tecore_histogram{name=\"latency\",quantile=\"0.9\"} 4";
         "tecore_histogram{name=\"latency\",quantile=\"0.95\"} 4";
         "tecore_histogram{name=\"latency\",quantile=\"0.99\"} 4";
         "tecore_histogram_sum{name=\"latency\"} 10";
         "tecore_histogram_count{name=\"latency\"} 4";
         "tecore_histogram{path=\"resolve/solve\",name=\"flips\",quantile=\"0.5\"} 5";
         "tecore_histogram{path=\"resolve/solve\",name=\"flips\",quantile=\"0.9\"} 9";
         "tecore_histogram{path=\"resolve/solve\",name=\"flips\",quantile=\"0.95\"} 9";
         "tecore_histogram{path=\"resolve/solve\",name=\"flips\",quantile=\"0.99\"} 9";
         "tecore_histogram_sum{path=\"resolve/solve\",name=\"flips\"} 14";
         "tecore_histogram_count{path=\"resolve/solve\",name=\"flips\"} 2";
         "# TYPE tecore_series_points gauge";
         "tecore_series_points{path=\"resolve/solve\",name=\"cost\"} 2";
         "# TYPE tecore_series_last gauge";
         "tecore_series_last{path=\"resolve/solve\",name=\"cost\"} 2.5";
         "# TYPE tecore_events counter";
         "tecore_events_total{level=\"debug\"} 0";
         "tecore_events_total{level=\"info\"} 2";
         "tecore_events_total{level=\"warn\"} 1";
         "tecore_events_total{level=\"error\"} 1";
         "# TYPE tecore_events_dropped counter";
         "tecore_events_dropped_total 2";
         "# EOF";
         "";
       ])
    (Obs.Export.open_metrics r)

let test_trace_validator_rejects () =
  List.iter
    (fun (what, json) ->
      match Obs.Export.validate_trace json with
      | Ok () -> Alcotest.failf "validator accepted %s" what
      | Error _ -> ())
    [
      ("a non-object", Obs.Json.Num 1.0);
      ("missing traceEvents", Obs.Json.Obj []);
      ("empty traceEvents", Obs.Json.Obj [ ("traceEvents", Obs.Json.Arr []) ]);
      ( "an incomplete event",
        Obs.Json.Obj
          [
            ( "traceEvents",
              Obs.Json.Arr
                [ Obs.Json.Obj [ ("name", Obs.Json.Str "x") ] ] );
          ] );
    ]

let test_metrics_validator_rejects () =
  List.iter
    (fun (what, text) ->
      match Obs.Export.validate_metrics text with
      | Ok () -> Alcotest.failf "validator accepted %s" what
      | Error _ -> ())
    [
      ("an empty exposition", "");
      ("a missing EOF", "# TYPE a gauge\na 1\n");
      ("an unknown type", "# TYPE a banana\na 1\n# EOF\n");
      ("a bare word sample", "# TYPE a gauge\na one\n# EOF\n");
      ("unbalanced labels", "# TYPE a gauge\na{x=\"1\" 2\n# EOF\n");
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "same-name merging" `Quick test_span_merging;
          Alcotest.test_case "exception balance" `Quick
            test_span_exception_balance;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "root metrics" `Quick test_root_metrics;
          Alcotest.test_case "trace hook" `Quick test_trace_hook;
          Alcotest.test_case "find across merged spans" `Quick
            test_find_merged;
          QCheck_alcotest.to_alcotest prop_self_ms_nonneg;
        ] );
      ( "events",
        [
          Alcotest.test_case "levels and fields" `Quick test_events_basic;
          Alcotest.test_case "ring overflow keeps newest" `Quick
            test_events_ring_overflow;
          Alcotest.test_case "event hook streams" `Quick test_event_hook;
          Alcotest.test_case "level and value names" `Quick
            test_event_level_and_value_names;
        ] );
      ( "series",
        [
          Alcotest.test_case "downsampling stays monotone" `Quick
            test_series_downsample;
          Alcotest.test_case "merge" `Quick test_series_merge;
          Alcotest.test_case "sample lands in the span" `Quick
            test_sample_in_report;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "maxwalksat" `Quick test_walksat_convergence;
          Alcotest.test_case "milp" `Quick test_milp_convergence;
          Alcotest.test_case "gibbs" `Quick test_gibbs_convergence;
          Alcotest.test_case "mcsat" `Quick test_mcsat_convergence;
          Alcotest.test_case "admm" `Quick test_admm_convergence;
        ] );
      ( "workers",
        [
          Alcotest.test_case "jobs=1 and jobs=4 account the same work"
            `Quick test_jobs_report_equivalence;
        ] );
      ( "export",
        [
          Alcotest.test_case "trace and metrics validate" `Quick
            test_export_validates;
          Alcotest.test_case "open metrics bytes pinned" `Quick
            test_open_metrics_pinned;
          Alcotest.test_case "trace validator rejects" `Quick
            test_trace_validator_rejects;
          Alcotest.test_case "metrics validator rejects" `Quick
            test_metrics_validator_rejects;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "quantiles 1..100" `Quick test_histogram_quantiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "reservoir past the cap" `Quick
            test_histogram_reservoir_cap;
          Alcotest.test_case "summary rows" `Quick test_summary_rows;
          QCheck_alcotest.to_alcotest prop_histogram_merge_stable;
        ] );
      ( "json",
        [
          Alcotest.test_case "report round-trip" `Quick
            test_json_roundtrip_report;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "string escapes" `Quick test_json_escapes;
          Alcotest.test_case "float round-trip" `Quick
            test_json_float_roundtrip;
          Alcotest.test_case "non-finite rejected" `Quick
            test_json_nonfinite_rejected;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
    ]
