(* The paper's running example in full: the Claudio Ranieri UTKG of
   Figure 1, the inference rules f1-f3 of Figure 4 and the constraints
   c1-c3 of Figure 6, resolved with both engines. The expected outcome is
   Figure 7: fact (5) — coach of Napoli [2001,2003] — is removed because
   it clashes with the Chelsea stint under c2 and carries less weight,
   and the rules derive worksFor / livesIn / TeenPlayer facts.

   Run with: dune exec examples/football_debugging.exe *)

let utkg =
  {|
@prefix ex: <http://example.org/> .
# (1)-(5): Figure 1, plus club locations and a youth-career player to
# exercise rules f2 and f3.
ex:CR ex:coach ex:Chelsea [2000,2004] 0.9 .
ex:CR ex:coach ex:Leicester [2015,2017] 0.7 .
ex:CR ex:playsFor ex:Palermo [1984,1986] 0.5 .
ex:CR ex:birthDate 1951 [1951,2017] .
ex:CR ex:coach ex:Napoli [2001,2003] 0.6 .
ex:Palermo ex:locatedIn ex:Sicily [1900,2017] 1.0 .
ex:Kid ex:playsFor ex:Ajax [2010,2012] 0.8 .
ex:Kid ex:birthDate 1994 [1994,2017] 0.95 .
|}

let program =
  {|
# Figure 4: temporal inference rules.
rule f1 2.5: ex:playsFor(x, y)@t => ex:worksFor(x, y)@t .
rule f2 1.6: ex:worksFor(x, y)@t ^ ex:locatedIn(y, z)@t2 ^ intersects(t, t2)
             => ex:livesIn(x, z)@(t * t2) .
rule f3 2.9: ex:playsFor(x, y)@t ^ ex:birthDate(x, z)@t2 ^ t - t2 < 20
             => ex:TeenPlayer(x) .

# Figure 6: temporal constraints.
constraint c1: ex:birthDate(x, y)@t ^ ex:deathDate(x, z)@t2 => before(t, t2) .
constraint c2: ex:coach(x, y)@t ^ ex:coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
constraint c3: ex:bornIn(x, y)@t ^ ex:bornIn(x, z)@t2 ^ intersects(t, t2) => y = z .
|}

let show_resolution (result : Tecore.Engine.result) =
  Format.printf "%a@.@." Tecore.Engine.pp_result result;
  Format.printf "-- G_inferred (Figure 7 + derived facts) --@.";
  Format.printf "%a@." Kg.Graph.pp result.resolution.Tecore.Conflict.consistent;
  let resolution = result.resolution in
  List.iter
    (fun (d : Tecore.Conflict.derived_fact) ->
      match Tecore.Conflict.derived_quad resolution d with
      | None ->
          Format.printf "derived (non-quad): %a  %.3f@." Logic.Atom.Ground.pp
            (Tecore.Conflict.derived_atom resolution d)
            d.confidence
      | Some _ -> ())
    resolution.Tecore.Conflict.derived;
  List.iter
    (fun (_, q) -> Format.printf "removed: %a@." Kg.Quad.pp q)
    result.resolution.Tecore.Conflict.removed;
  Format.printf "@."

let show_explanations session (result : Tecore.Engine.result) =
  match Tecore.Session.graph session with
  | None -> ()
  | Some graph ->
      let removals, derivations = Tecore.Explain.of_result graph result in
      Format.printf "-- why --@.";
      List.iter
        (fun r -> Format.printf "%a@." Tecore.Explain.pp_removal r)
        removals;
      List.iter
        (fun d -> Format.printf "%a@." Tecore.Explain.pp_derivation d)
        derivations;
      Format.printf "@."

let () =
  let session = Tecore.Session.create () in
  (match Tecore.Session.load_string session utkg with
  | Ok () -> ()
  | Error e -> failwith e);
  (match Tecore.Session.add_rules session program with
  | Ok _ -> ()
  | Error e -> failwith e);
  (* The translator's verification pass first (Figure 3's guidance). *)
  (match Tecore.Session.analyse session with
  | Ok report -> Format.printf "%a@.@." Tecore.Translator.pp_report report
  | Error e -> failwith e);
  Format.printf "==== MLN engine (nRockIt path) ====@.";
  (match
     Tecore.Session.run
       ~engine:(Tecore.Engine.Mln Mln.Map_inference.default_options) session
   with
  | Ok result ->
      show_resolution result;
      show_explanations session result
  | Error e -> failwith e);
  Format.printf "==== nPSL engine ====@.";
  (match
     Tecore.Session.run ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
       session
   with
  | Ok result -> show_resolution result
  | Error e -> failwith e);
  (* Threshold feature: drop derived facts below 0.9 confidence. *)
  Format.printf "==== with a 0.9 threshold on derived facts ====@.";
  match Tecore.Session.run ~threshold:0.9 session with
  | Ok result -> show_resolution result
  | Error e -> failwith e
