(* Differential oracle for [Conflict.interpret] and
   [Conflict.apply_threshold], which read the MAP state by store codes:
   a boxed reference — each true hidden atom decoded with
   [Atom_store.atom], turned into a quad with [to_quad] and added with
   [Graph.add], supports summed in a [Hashtbl] — must give the same
   resolution on real groundings, confidences compared bit for bit. *)

module Store = Grounder.Atom_store
module Ground = Grounder.Ground
module Conflict = Tecore.Conflict
module Engine = Tecore.Engine

(* The interpretation as it was before it worked on codes, kept
   verbatim apart from returning the atom id with each derived fact. *)
module Reference = struct
  type derived = {
    id : Store.id;
    atom : Logic.Atom.Ground.t;
    confidence : float;
    as_quad : Kg.Quad.t option;
  }

  type resolution = {
    consistent : Kg.Graph.t;
    removed : (Kg.Graph.id * Kg.Quad.t) list;
    derived : derived list;
    conflicting : Kg.Graph.id list;
    kept : int;
  }

  let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

  let conflicting_facts store (instances : Ground.instances) =
    let ids = Hashtbl.create 256 in
    Array.iteri
      (fun i h ->
        if
          h = Ground.violated
          && Logic.Rule.is_hard instances.rules.(instances.rule.(i))
        then
          for j = instances.offsets.(i) to instances.offsets.(i + 1) - 1 do
            List.iter
              (fun fact -> Hashtbl.replace ids fact ())
              (Store.evidence_facts store instances.body.(j))
          done)
      instances.head;
    Hashtbl.fold (fun id () acc -> id :: acc) ids [] |> List.sort Int.compare

  let derived_confidences (instances : Ground.instances) assignment =
    let support = Hashtbl.create 64 in
    let rec true_from j stop =
      j = stop || (assignment.(instances.body.(j)) && true_from (j + 1) stop)
    in
    Array.iteri
      (fun i h ->
        if
          h >= 0 && assignment.(h)
          && true_from instances.offsets.(i) instances.offsets.(i + 1)
        then begin
          let w =
            match instances.rules.(instances.rule.(i)).Logic.Rule.weight with
            | Some w -> w
            | None -> Kg.Quad.max_weight
          in
          Hashtbl.replace support h
            (w +. Option.value (Hashtbl.find_opt support h) ~default:0.0)
        end)
      instances.head;
    fun atom_id ->
      sigmoid (Option.value (Hashtbl.find_opt support atom_id) ~default:0.0)

  let interpret ~graph ~store ~instances ~assignment =
    let consistent = Kg.Graph.copy graph in
    let removed = ref [] in
    let derived = ref [] in
    let kept = ref 0 in
    let confidence_of = derived_confidences instances assignment in
    for id = 0 to Store.size store - 1 do
      if Store.is_evidence store id then begin
        let facts = Store.evidence_facts store id in
        if assignment.(id) then kept := !kept + List.length facts
        else
          List.iter
            (fun fact ->
              Kg.Graph.remove consistent fact;
              removed := (fact, Kg.Graph.find graph fact) :: !removed)
            facts
      end
      else if assignment.(id) then begin
        let atom = Store.atom store id in
        let confidence = confidence_of id in
        let as_quad = Logic.Atom.Ground.to_quad ~confidence atom in
        Option.iter (fun q -> ignore (Kg.Graph.add consistent q)) as_quad;
        derived := { id; atom; confidence; as_quad } :: !derived
      end
    done;
    {
      consistent;
      removed = List.rev !removed;
      derived = List.rev !derived;
      conflicting = conflicting_facts store instances;
      kept = !kept;
    }

  (* A scan of the whole copy per dropped derived fact. *)
  let apply_threshold threshold r =
    let keep, drop =
      List.partition (fun d -> d.confidence >= threshold) r.derived
    in
    let consistent = Kg.Graph.copy r.consistent in
    List.iter
      (fun d ->
        Option.iter
          (fun q ->
            Kg.Graph.iter
              (fun id q' ->
                if Kg.Quad.same_statement q q' then
                  Kg.Graph.remove consistent id)
              consistent)
          d.as_quad)
      drop;
    { r with consistent; derived = keep }
end

let bits f = Printf.sprintf "%h" f

let quad_bits (q : Kg.Quad.t) = (Kg.Quad.to_string q, bits q.confidence)

let facts g =
  let acc = ref [] in
  Kg.Graph.iter (fun id q -> acc := (id, quad_bits q) :: !acc) g;
  List.rev !acc

let check_same what (want : Reference.resolution) (got : Conflict.resolution)
    =
  let label s = what ^ ": " ^ s in
  Alcotest.(check (list (pair int (pair string string))))
    (label "removed ids and quads")
    (List.map (fun (id, q) -> (id, quad_bits q)) want.removed)
    (List.map (fun (id, q) -> (id, quad_bits q)) got.removed);
  Alcotest.(check int) (label "kept") want.kept got.kept;
  Alcotest.(check (list int)) (label "conflicting") want.conflicting
    got.conflicting;
  Alcotest.(check (list (pair int (pair string string))))
    (label "consistent facts by id and statement")
    (facts want.consistent) (facts got.consistent);
  Alcotest.(check (list int)) (label "derived ids")
    (List.map (fun (d : Reference.derived) -> d.id) want.derived)
    (List.map (fun (d : Conflict.derived_fact) -> d.id) got.derived);
  Alcotest.(check (list string)) (label "derived confidences")
    (List.map (fun (d : Reference.derived) -> bits d.confidence) want.derived)
    (List.map (fun (d : Conflict.derived_fact) -> bits d.confidence)
       got.derived);
  Alcotest.(check bool) (label "derived atoms") true
    (List.map (fun (d : Reference.derived) -> d.atom) want.derived
    = List.map (Conflict.derived_atom got) got.derived);
  Alcotest.(check (list (option (pair string string))))
    (label "derived quads")
    (List.map
       (fun (d : Reference.derived) -> Option.map quad_bits d.as_quad)
       want.derived)
    (List.map
       (fun d -> Option.map quad_bits (Conflict.derived_quad got d))
       got.derived)

let engines =
  [
    ("mln", Engine.Mln Mln.Map_inference.default_options);
    ("psl", Engine.Psl Psl.Npsl.default_options);
  ]

(* Each engine's resolution, with and without a threshold, against the
   reference run over the same grounding and MAP state. Thresholds at
   the median derived confidence and just above it keep some derived
   facts and drop others even where all confidences are equal. *)
let check_dataset name graph rules =
  List.iter
    (fun (engine_name, engine) ->
      let what = Printf.sprintf "%s (%s)" name engine_name in
      let result = Engine.resolve ~engine graph rules in
      let raw = result.Engine.raw in
      let want =
        Reference.interpret ~graph ~store:raw.Engine.store
          ~instances:raw.Engine.instances ~assignment:raw.Engine.assignment
      in
      let got = result.Engine.resolution in
      check_same what want got;
      let median =
        match
          List.sort Float.compare
            (List.map (fun (d : Reference.derived) -> d.confidence) want.derived)
        with
        | [] -> 0.5
        | cs -> List.nth cs (List.length cs / 2)
      in
      List.iter
        (fun threshold ->
          let want = Reference.apply_threshold threshold want in
          check_same
            (Printf.sprintf "%s at threshold %h" what threshold)
            want
            (Engine.resolve ~engine ~threshold graph rules).Engine.resolution;
          check_same
            (Printf.sprintf "%s, threshold %h applied afterwards" what
               threshold)
            want
            (Conflict.apply_threshold threshold got))
        [ median; Float.succ median ])
    engines

let test_footballdb () =
  List.iter
    (fun seed ->
      let d =
        Datagen.Footballdb.generate ~seed ~players:150 ~noise_ratio:0.5 ()
      in
      check_dataset
        (Printf.sprintf "FootballDB-150 seed %d" seed)
        d.Datagen.Footballdb.graph
        (Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ()))
    [ 1; 2; 3 ]

let test_wikidata () =
  let d =
    Datagen.Wikidata.generate ~seed:1 ~total_facts:2_000 ~conflict_rate:0.01 ()
  in
  check_dataset "Wikidata-2000" d.Datagen.Wikidata.graph
    (Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules ())

let test_data_files () =
  List.iter
    (fun (tq, rules) ->
      let ns = Kg.Namespace.create () in
      let graph =
        match Kg.Nquads.parse_file ~namespace:ns tq with
        | Ok g -> g
        | Error e -> Alcotest.failf "%s: %a" tq Kg.Nquads.pp_error e
      in
      let rules =
        match Rulelang.Parser.parse_file ~namespace:ns rules with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %a" rules Rulelang.Parser.pp_error e
      in
      check_dataset tq graph rules)
    [
      ("../data/ranieri.tq", "../data/ranieri.rules");
      ("../data/football.tq", "../data/football.rules");
    ]

let () =
  Alcotest.run "interpret"
    [
      ( "oracle",
        [
          Alcotest.test_case "FootballDB-150, seeds 1-3" `Quick test_footballdb;
          Alcotest.test_case "quick Wikidata" `Quick test_wikidata;
          Alcotest.test_case "data/*.tq" `Quick test_data_files;
        ] );
    ]
