(* The committed BENCH_*.json baselines that `bench <experiment>
   --check` gates: reading one back, writing a fresh one, and comparing
   a fresh measurement against it under one tolerance rule. *)

module Json = Obs.Json

type tolerance = { factor : float; floor : float }

(* Wall-clock cells: machines and CI load differ far more than a
   regression does, so the factor is generous, and the floor keeps
   cells under 5 ms from tripping on timer and scheduler noise. *)
let timing = { factor = 25.0; floor = 5.0 }

(* Memory peaks are near machine-independent, so the factor is tight
   and there is no floor. *)
let memory = { factor = 2.0; floor = 0.0 }

(* The one rule for every cell: the larger value may exceed neither
   the floor nor [factor] times the smaller one. *)
let within tol a b =
  Float.max a b <= Float.max tol.floor (tol.factor *. Float.min a b)

let num field json =
  match Json.member field json with
  | Some (Json.Num v) when Float.is_finite v -> v
  | _ -> failwith (Printf.sprintf "missing or non-finite %S" field)

let str field json =
  match Json.member field json with
  | Some (Json.Str s) -> s
  | _ -> failwith (Printf.sprintf "missing string %S" field)

let runs doc =
  match Json.member "runs" doc with
  | Some (Json.Arr (_ :: _ as runs)) -> runs
  | _ -> failwith "no runs"

(* The run whose fields carry all of [keys]. *)
let run_where keys doc =
  match
    List.find_opt
      (fun run -> List.for_all (fun (k, v) -> Json.member k run = Some v) keys)
      (runs doc)
  with
  | Some run -> run
  | None ->
      failwith
        (Printf.sprintf "no run with %s"
           (String.concat ", "
              (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) keys)))

let in_file path f x =
  try f x with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)

let read ~experiment ~path ~schema =
  let hint = Printf.sprintf "run `bench %s` to regenerate it" experiment in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      failwith (Printf.sprintf "cannot read %s (%s); %s" path msg hint)
  in
  match Json.parse text with
  | Error e -> failwith (Printf.sprintf "%s: %s; %s" path e hint)
  | Ok doc when Json.member "schema" doc = Some (Json.Str schema) -> doc
  | Ok _ ->
      failwith (Printf.sprintf "%s: schema is not %s; %s" path schema hint)

(* Write [doc], parse the file back, and require every run to carry
   each of [fields] as a finite number. *)
let write ~path ~fields doc =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> failwith (Printf.sprintf "%s: invalid JSON: %s" path e)
  | Ok back ->
      in_file path
        (fun doc ->
          List.iter
            (fun run -> List.iter (fun f -> ignore (num f run)) fields)
            (runs doc))
        back

(* Check every freshly measured cell against the committed cell with
   the same label. A cell missing from the baseline fails, and so does
   a measurement without cells. Returns one line per failing cell. *)
let compare tol ~committed ~fresh =
  if fresh = [] then [ "no cell measured" ]
  else
    List.filter_map
      (fun (label, ours) ->
        match List.assoc_opt label committed with
        | None -> Some (label ^ ": missing from the baseline")
        | Some theirs when within tol ours theirs -> None
        | Some theirs ->
            Some
              (Printf.sprintf "%s: %.3f vs committed %.3f (tolerance %gx, \
                               floor %g)"
                 label ours theirs tol.factor tol.floor))
      fresh
