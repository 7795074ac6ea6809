(* History independence: a resolve's answer depends on its graph and
   rules alone, never on what the process loaded or resolved before.

   FootballDB-3000 at 50 % noise is resolved three ways, with MLN and
   with nPSL, each way in a forked child that starts with nothing
   loaded:
   - fresh;
   - after loading and resolving a reversed copy of the same graph;
   - after loading and resolving a Wikidata graph.
   The graph is large enough that the grounder partitions its joins by
   a hash of the join-key codes, so an answer that leaned on how terms
   happen to be numbered would show here. All three ways must give the
   same objective, bit for bit, and the same removed facts.

   The serve variant loads the Wikidata graph into one session of an
   in-process daemon and the FootballDB graph into a second, and
   compares the second session's resolution with what a fresh
   [tecore resolve] process prints for the same files. This executable
   starts no domain and no thread before it forks. *)

module Engine = Tecore.Engine

let () = Prelude.Deadline.Faults.clear ()

let tmp_dir =
  let d = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tecore-history-%d" (Unix.getpid ()))
  in
  Unix.mkdir d 0o700;
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Unix.rmdir d);
  d

let fb_rules () = Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ()
let wd_rules () = Datagen.Wikidata.constraints () @ Datagen.Wikidata.rules ()

let save name graph =
  let path = Filename.concat tmp_dir name in
  Kg.Nquads.save_file path graph;
  path

let fb_file =
  lazy
    (save "fb.tq"
       (Datagen.Footballdb.generate ~seed:1 ~players:3000 ~noise_ratio:0.5 ())
         .Datagen.Footballdb.graph)

let wd_file =
  lazy
    (save "wd.tq"
       (Datagen.Wikidata.generate ~seed:1 ~total_facts:20_000
          ~conflict_rate:0.01 ())
         .Datagen.Wikidata.graph)

let load path =
  match Kg.Nquads.parse_file path with
  | Ok g -> g
  | Error e -> Alcotest.failf "%s: %a" path Kg.Nquads.pp_error e

let resolve engine graph rules = Engine.resolve ~engine ~jobs:1 graph rules

(* The answer as text: the objective in hex, then the removed fact ids. *)
let answer (r : Engine.result) =
  let ids =
    List.sort compare (List.map fst r.Engine.resolution.Tecore.Conflict.removed)
  in
  Printf.sprintf "objective %h, %d removed: %s" r.Engine.stats.Engine.objective
    (List.length ids)
    (String.concat "," (List.map string_of_int ids))

let in_child f =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let s = try f () with e -> "uncaught: " ^ Printexc.to_string e in
      let oc = Unix.out_channel_of_descr w in
      output_string oc s;
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let s = In_channel.input_all ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      s

let test_three_ways engine () =
  let fb = Lazy.force fb_file and wd = Lazy.force wd_file in
  let resolve_fb () = answer (resolve engine (load fb) (fb_rules ())) in
  let fresh = in_child resolve_fb in
  let after_reversed =
    in_child (fun () ->
        let reversed =
          Kg.Graph.of_list (List.rev (Kg.Graph.to_list (load fb)))
        in
        ignore (resolve engine reversed (fb_rules ()));
        resolve_fb ())
  in
  let after_wikidata =
    in_child (fun () ->
        ignore (resolve engine (load wd) (wd_rules ()));
        resolve_fb ())
  in
  Alcotest.(check bool) "something is removed" true
    (not (String.ends_with ~suffix:"0 removed: " fresh));
  Alcotest.(check string) "after a reversed copy" fresh after_reversed;
  Alcotest.(check string) "after a Wikidata graph" fresh after_wikidata

(* ------------------------------------------------------------------ *)
(* Two daemon sessions against a fresh CLI                             *)
(* ------------------------------------------------------------------ *)

let rule_lines rules =
  List.map
    (fun r ->
      String.map
        (fun ch -> if ch = '\n' then ' ' else ch)
        (Rulelang.Printer.rule_to_string r))
    rules

let request fd ic line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0;
  let resp = input_line ic in
  if not (String.starts_with ~prefix:"ok " resp) then
    Alcotest.failf "%S: %s" line resp;
  match Obs.Json.parse (String.sub resp 3 (String.length resp - 3)) with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable %S: %s" resp e

let field name = function
  | Obs.Json.Obj fs -> (
      match List.assoc_opt name fs with
      | Some j -> j
      | None -> Alcotest.failf "no field %S" name)
  | j -> Alcotest.failf "expected an object, got %s" (Obs.Json.to_string j)

(* What a resolution says about the input: the removed facts and the
   count of kept ones. *)
let verdict resolution =
  Obs.Json.to_string (field "removed" resolution)
  ^ " kept " ^ Obs.Json.to_string (field "kept" resolution)

let session server name ~file ~rules =
  let fd = Serve.connect server in
  let ic = Unix.in_channel_of_descr fd in
  List.iter
    (fun line -> ignore (request fd ic line))
    ((("hello " ^ name) :: ("load " ^ file) :: rule_lines rules)
    @ [ "resolve" ]);
  let resolution = field "resolution" (request fd ic "result") in
  close_in_noerr ic;
  verdict resolution

let cli_verdict ~file ~rules =
  let rules_file = Filename.concat tmp_dir "fb.rules" in
  Out_channel.with_open_text rules_file (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (List.map Rulelang.Printer.rule_to_string rules));
  let out = Filename.concat tmp_dir "cli.json" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let cli =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "tecore_cli.exe"))
  in
  (* The daemon runs without injected faults and with one job; so does
     the CLI, whatever the environment says. *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"TECORE_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env cli
      [| cli; "resolve"; "-d"; file; "-r"; rules_file; "-e"; "mln"; "--json" |]
      env Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "tecore resolve failed");
  match Obs.Json.parse (In_channel.with_open_text out In_channel.input_all) with
  | Ok j -> verdict (field "resolution" j)
  | Error e -> Alcotest.failf "unparseable CLI output: %s" e

let test_serve_matches_cli () =
  let fb = Lazy.force fb_file and wd = Lazy.force wd_file in
  let engine = Engine.Mln Mln.Map_inference.default_options in
  let config = { Serve.default_config with Serve.engine; jobs = Some 1 } in
  let server = Serve.start ~config (`Tcp 0) in
  let wd_verdict, fb_verdict =
    Fun.protect
      ~finally:(fun () -> Serve.stop server)
      (fun () ->
        let w = session server "wd" ~file:wd ~rules:(wd_rules ()) in
        (w, session server "fb" ~file:fb ~rules:(fb_rules ())))
  in
  Alcotest.(check bool) "the Wikidata session removed facts" true
    (not (String.starts_with ~prefix:"[]" wd_verdict));
  Alcotest.(check string) "second session = fresh CLI"
    (cli_verdict ~file:fb ~rules:(fb_rules ()))
    fb_verdict

let () =
  Alcotest.run "history"
    [
      ( "three ways",
        [
          Alcotest.test_case "MLN" `Slow
            (test_three_ways (Engine.Mln Mln.Map_inference.default_options));
          Alcotest.test_case "nPSL" `Slow
            (test_three_ways (Engine.Psl Psl.Npsl.default_options));
        ] );
      ( "serve",
        [ Alcotest.test_case "two sessions = fresh CLI" `Slow test_serve_matches_cli ] );
    ]
