module J = Obs.Json

let int n = J.Num (float_of_int n)

(* Floats keep the six significant digits of the [%g] rendering these
   payloads have always had: the serve-mixed benchmark pins a digest of
   the removed facts as [result] serves them. Non-finite values render
   as [null]. *)
let num f = J.Num (float_of_string (Printf.sprintf "%g" f))

let term ns = function
  | Kg.Term.Iri name -> (
      match ns with
      | Some ns -> J.Str (Kg.Namespace.shrink ns name)
      | None -> J.Str name)
  | Kg.Term.Str s -> J.Str s
  | Kg.Term.Int n -> int n
  | Kg.Term.Flt f -> num f

let interval i =
  [ ("from", int (Kg.Interval.lo i)); ("to", int (Kg.Interval.hi i)) ]

let quad ns (q : Kg.Quad.t) =
  J.Obj
    ([
       ("subject", term ns q.subject);
       ("predicate", term ns q.predicate);
       ("object", term ns q.object_);
     ]
    @ interval q.time
    @ [ ("confidence", num q.confidence) ])

let of_quad ?namespace q = J.to_string (quad namespace q)

let derived ns r (d : Conflict.derived_fact) =
  let atom = Conflict.derived_atom r d in
  J.Obj
    ([
       ("predicate", J.Str atom.Logic.Atom.Ground.predicate);
       ("args", J.Arr (List.map (term ns) atom.Logic.Atom.Ground.args));
       ("confidence", num d.confidence);
     ]
    @ match atom.Logic.Atom.Ground.time with Some i -> interval i | None -> [])

let of_resolution ?namespace (r : Conflict.resolution) =
  let quads qs = J.Arr (List.map (quad namespace) qs) in
  J.Obj
    [
      ("kept", int r.kept);
      ("removed", quads (List.map snd r.removed));
      ("derived", J.Arr (List.map (derived namespace r) r.derived));
      ("conflicting_ids", J.Arr (List.map int r.conflicting));
      ("consistent", quads (Kg.Graph.to_list r.consistent));
    ]

let of_result ?namespace ?deadline ?obs (result : Engine.result) =
  let stats = result.stats in
  (* The "deadline" object is emitted only for budget-limited runs so
     unbudgeted invocations produce byte-identical payloads to earlier
     releases. *)
  let deadline_fields =
    match deadline with
    | Some d when Prelude.Deadline.is_finite d ->
        [
          ( "deadline",
            J.Obj
              [
                ( "status",
                  J.Str (Prelude.Deadline.status_name stats.Engine.status) );
                ( "expired",
                  J.Bool (stats.Engine.status <> Prelude.Deadline.Completed) );
                ("budget_ms", num (Prelude.Deadline.budget_ms d));
                ("slack_ms", num (Prelude.Deadline.remaining_ms d));
              ] );
        ]
    | Some _ | None -> []
  in
  J.to_string
    (J.Obj
       ([
          ( "engine",
            J.Str
              (match stats.Engine.engine_used with
              | Translator.Mln_engine -> "mln"
              | Translator.Psl_engine -> "psl") );
          ( "stats",
            J.Obj
              [
                ("atoms", int stats.Engine.atoms);
                ("ground_ms", num stats.Engine.ground_ms);
                ("solve_ms", num stats.Engine.solve_ms);
                ("total_ms", num stats.Engine.total_ms);
                ("hard_violations", int stats.Engine.hard_violations);
              ] );
          ("resolution", of_resolution ?namespace result.resolution);
        ]
       @ deadline_fields
       @
       match obs with
       | None -> []
       | Some report -> [ ("obs", Obs.Report.to_json report) ]))
