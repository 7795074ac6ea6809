type t = {
  ns : Kg.Namespace.t;
  mutable kg : Kg.Graph.t option;
  mutable rule_set : Logic.Rule.t list;
  mutable result : Engine.result option;
  state : Engine.state;
  mutable delta_facts : Logic.Atom.Ground.t list;
  mutable rules_changed : bool;
}

type error =
  | Io_error of string
  | Parse_error of string
  | Rejected of Translator.report
  | Ground_timeout of Translator.report
  | No_graph
  | Absent_fact of string

let error_message = function
  | Io_error msg | Parse_error msg -> msg
  | Rejected report | Ground_timeout report ->
      Format.asprintf "%a" Translator.pp_report report
  | No_graph -> "no knowledge graph selected"
  | Absent_fact s -> Printf.sprintf "fact not in graph: %s" s

let create () =
  {
    ns = Kg.Namespace.create ();
    kg = None;
    rule_set = [];
    result = None;
    state = Engine.create_state ();
    delta_facts = [];
    rules_changed = false;
  }

let namespace t = t.ns

let load_graph t g =
  t.kg <- Some g;
  t.result <- None;
  (* A wholesale graph swap is not a delta; start the incremental state
     from scratch. *)
  Engine.invalidate t.state;
  t.delta_facts <- [];
  t.rules_changed <- false

let contains ~needle haystack =
  let nn = String.length needle and nh = String.length haystack in
  nn = 0
  ||
  let rec at i =
    i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1))
  in
  at 0

let load t path =
  match Obs.span "parse" (fun () -> Kg.Nquads.parse_file ~namespace:t.ns path) with
  | Ok g ->
      load_graph t g;
      Ok ()
  | Error e ->
      (* Compiler-style location: path:line[:column]: message. *)
      let loc =
        match e.Kg.Nquads.column with
        | Some c -> Printf.sprintf "%s:%d:%d" path e.Kg.Nquads.line c
        | None -> Printf.sprintf "%s:%d" path e.Kg.Nquads.line
      in
      Error (Parse_error (Printf.sprintf "%s: %s" loc e.Kg.Nquads.message))
  | exception Sys_error msg ->
      (* Most [Sys_error] messages already lead with the path; qualify
         the ones (e.g. from exotic failure modes) that do not, so the
         user always learns which file failed. *)
      let msg = if contains ~needle:path msg then msg else path ^ ": " ^ msg in
      Error (Io_error msg)

let load_string t text =
  match Obs.span "parse" (fun () -> Kg.Nquads.parse_string ~namespace:t.ns text) with
  | Ok g ->
      load_graph t g;
      Ok ()
  | Error e -> Error (Format.asprintf "%a" Kg.Nquads.pp_error e)

let graph t = t.kg

(* {1 Fact edits — the session's delta feed} *)

let push_delta t (q : Kg.Quad.t) =
  t.delta_facts <- Logic.Atom.Ground.of_quad q :: t.delta_facts

let assert_fact t (q : Kg.Quad.t) =
  match t.kg with
  | None -> Error No_graph
  | Some g ->
      let id = Kg.Graph.add g q in
      push_delta t q;
      t.result <- None;
      Ok id

let retract t (q : Kg.Quad.t) =
  match t.kg with
  | None -> Error No_graph
  | Some g -> (
      let live =
        List.filter
          (fun (_, q') -> Kg.Quad.same_statement q q')
          (Kg.Graph.by_predicate g q.Kg.Quad.predicate)
      in
      (* Duplicates are legal in a UTKG; retract the oldest matching
         fact, deterministically. *)
      match List.sort (fun (a, _) (b, _) -> compare a b) live with
      | [] -> Error (Absent_fact (Kg.Quad.to_string q))
      | (id, _) :: _ ->
          Kg.Graph.remove g id;
          push_delta t q;
          t.result <- None;
          Ok id)

let add_rules t src =
  match
    Obs.span "parse-rules" (fun () ->
        Rulelang.Parser.parse_string ~namespace:t.ns src)
  with
  | Ok rules ->
      t.rule_set <- t.rule_set @ rules;
      t.result <- None;
      t.rules_changed <- true;
      Ok rules
  | Error e -> Error (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let remove_rule t name =
  let before = List.length t.rule_set in
  t.rule_set <-
    List.filter (fun (r : Logic.Rule.t) -> r.name <> name) t.rule_set;
  if List.length t.rule_set < before then begin
    t.result <- None;
    (* A removed rule's ground clauses must never be selectable again:
       flag the rule delta so the next resolve drops every cache. *)
    t.rules_changed <- true;
    true
  end
  else false

let rules t = t.rule_set

let complete_predicate t prefix =
  match t.kg with
  | None -> []
  | Some g ->
      (* Match against both the CURIE and the full IRI rendering. *)
      let lower = String.lowercase_ascii prefix in
      let starts_with name =
        let name = String.lowercase_ascii name in
        String.length lower <= String.length name
        && String.sub name 0 (String.length lower) = lower
      in
      List.filter_map
        (fun (p, _) ->
          let full = Kg.Term.to_string p in
          let short = Kg.Namespace.shrink t.ns full in
          if starts_with short || starts_with full then Some short else None)
        (Kg.Graph.predicates g)

(* {1 State dump — the snapshot body of the server's durability layer} *)

let dump_state t =
  let prefixes =
    List.map
      (fun (p, iri) -> Printf.sprintf "@prefix %s: <%s> ." p iri)
      (Kg.Namespace.bindings t.ns)
  in
  let opened = match t.kg with Some _ -> [ "open" ] | None -> [] in
  let rules =
    (* Shrink IRIs to prefixed names so each printed rule re-parses
       (the @prefix lines above re-establish the bindings first). *)
    List.map
      (Rulelang.Printer.rule_to_string ~shrink:(Kg.Namespace.shrink t.ns))
      t.rule_set
  in
  let facts =
    match t.kg with
    | None -> []
    | Some g ->
        (* Insertion order: replay re-adds facts oldest-first, so the
           "retract the oldest matching fact" tie-break keeps behaving
           identically after a snapshot round-trip. *)
        List.map
          (fun q -> "assert " ^ Kg.Nquads.fact_line t.ns q)
          (Kg.Graph.to_list g)
  in
  prefixes @ opened @ rules @ facts

let analyse t =
  match t.kg with
  | None -> Error "no knowledge graph selected"
  | Some g -> Ok (Translator.analyse g t.rule_set)

let resolve ?engine ?jobs ?threshold ?deadline ?on_timeout ?(mode = `Fresh) t =
  match t.kg with
  | None -> Error No_graph
  | Some g -> (
      let delta =
        {
          Engine.facts = List.rev t.delta_facts;
          rules_changed = t.rules_changed;
        }
      in
      match
        Engine.resolve ?engine ?jobs ?threshold ?deadline ?on_timeout ~mode
          ~state:t.state ~delta g t.rule_set
      with
      | result ->
          t.result <- Some result;
          t.delta_facts <- [];
          t.rules_changed <- false;
          Ok result
      | exception Engine.Rejected report -> Error (Rejected report)
      | exception Engine.Ground_timed_out report ->
          Error (Ground_timeout report))

let cache_outcome t = Engine.last_outcome t.state

let pending_edits t = List.length t.delta_facts

let rules_dirty t = t.rules_changed

let engine_state t = t.state

let run ?engine ?jobs ?threshold t =
  Result.map_error error_message (resolve ?engine ?jobs ?threshold t)

let last_result t = t.result

let consistent_statements t =
  match t.result with
  | None -> []
  | Some r -> Kg.Graph.to_list r.Engine.resolution.Conflict.consistent

let conflicting_statements t =
  match t.result with
  | None -> []
  | Some r -> List.map snd r.Engine.resolution.Conflict.removed

let statistics t =
  match t.result with
  | None -> "no run yet"
  | Some r -> Format.asprintf "%a" Engine.pp_result r
