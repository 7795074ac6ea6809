let str s = Obs.Json.to_string (Obs.Json.Str s)

let obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields)
  ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

let float_value f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let term ns t =
  match t with
  | Kg.Term.Iri name -> (
      match ns with
      | Some ns -> str (Kg.Namespace.shrink ns name)
      | None -> str name)
  | Kg.Term.Str s -> str s
  | Kg.Term.Int n -> string_of_int n
  | Kg.Term.Flt f -> float_value f

let of_quad ?namespace (q : Kg.Quad.t) =
  obj
    [
      ("subject", term namespace q.subject);
      ("predicate", term namespace q.predicate);
      ("object", term namespace q.object_);
      ("from", string_of_int (Kg.Interval.lo q.time));
      ("to", string_of_int (Kg.Interval.hi q.time));
      ("confidence", float_value q.confidence);
    ]

let of_derived ?namespace (d : Conflict.derived_fact) =
  let atom = d.atom in
  obj
    (("predicate", str atom.Logic.Atom.Ground.predicate)
     :: ("args", arr (List.map (term namespace) atom.Logic.Atom.Ground.args))
     :: ("confidence", float_value d.confidence)
     ::
     (match atom.Logic.Atom.Ground.time with
     | Some i ->
         [
           ("from", string_of_int (Kg.Interval.lo i));
           ("to", string_of_int (Kg.Interval.hi i));
         ]
     | None -> []))

let of_resolution ?namespace (r : Conflict.resolution) =
  obj
    [
      ("kept", string_of_int r.kept);
      ( "removed",
        arr (List.map (fun (_, q) -> of_quad ?namespace q) r.removed) );
      ("derived", arr (List.map (of_derived ?namespace) r.derived));
      ("conflicting_ids", arr (List.map string_of_int r.conflicting));
      ( "consistent",
        arr
          (List.map (of_quad ?namespace) (Kg.Graph.to_list r.consistent)) );
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
            obj
              [
                ( "status",
                  str (Prelude.Deadline.status_name stats.Engine.status) );
                ( "expired",
                  if stats.Engine.status = Prelude.Deadline.Completed then
                    "false"
                  else "true" );
                ("budget_ms", float_value (Prelude.Deadline.budget_ms d));
                ( "slack_ms",
                  float_value (Prelude.Deadline.remaining_ms d) );
              ] );
        ]
    | Some _ | None -> []
  in
  obj
    ([
       ( "engine",
         str
           (match stats.Engine.engine_used with
           | Translator.Mln_engine -> "mln"
           | Translator.Psl_engine -> "psl") );
       ( "stats",
         obj
           [
             ("atoms", string_of_int stats.Engine.atoms);
             ("ground_ms", float_value stats.Engine.ground_ms);
             ("solve_ms", float_value stats.Engine.solve_ms);
             ("total_ms", float_value stats.Engine.total_ms);
             ("hard_violations", string_of_int stats.Engine.hard_violations);
           ] );
       ("resolution", of_resolution ?namespace result.resolution);
     ]
    @ deadline_fields
    @
    match obs with
    | None -> []
    | Some report -> [ ("obs", Obs.Json.to_string (Obs.Report.to_json report)) ])
