type t = {
  predicate : string;
  args : Lterm.t list;
  time : Lterm.ttime option;
}

let make ?time predicate args = { predicate; args; time }

let quad_pattern predicate ~subject ~object_ ~time =
  { predicate; args = [ subject; object_ ]; time = Some time }

let vars a =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun term ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.replace seen v ();
            out := v :: !out
          end)
        (Lterm.vars term))
    a.args;
  List.rev !out

let tvars a =
  match a.time with None -> [] | Some tt -> Lterm.tvars tt

let pp_args pp_one ppf args =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_one)
    args

let pp ppf a =
  Format.fprintf ppf "%s%a" a.predicate (pp_args Lterm.pp) a.args;
  match a.time with
  | None -> ()
  | Some tt -> Format.fprintf ppf "@@%a" Lterm.pp_time tt

module Ground = struct
  type t = {
    predicate : string;
    args : Kg.Term.t list;
    time : Kg.Interval.t option;
  }

  let make ?time predicate args = { predicate; args; time }

  let of_quad q =
    {
      predicate = Kg.Term.to_string q.Kg.Quad.predicate;
      args = [ q.Kg.Quad.subject; q.Kg.Quad.object_ ];
      time = Some q.Kg.Quad.time;
    }

  let to_quad ?(confidence = 1.0) a =
    match (a.args, a.time) with
    | [ s; o ], Some i ->
        Some
          (Kg.Quad.make ~confidence ~subject:s
             ~predicate:(Kg.Term.iri a.predicate) ~object_:o i)
    | _ -> None

  let pp ppf a =
    Format.fprintf ppf "%s%a" a.predicate (pp_args Kg.Term.pp) a.args;
    match a.time with
    | None -> ()
    | Some i -> Format.fprintf ppf "@@%a" Kg.Interval.pp i

  let to_string a = Format.asprintf "%a" pp a
end

let instantiate s a =
  let rec eval_args acc = function
    | [] -> Some (List.rev acc)
    | term :: rest -> (
        match Subst.eval_term s term with
        | Some c -> eval_args (c :: acc) rest
        | None -> None)
  in
  match eval_args [] a.args with
  | None -> None
  | Some args -> (
      match a.time with
      | None -> Some { Ground.predicate = a.predicate; args; time = None }
      | Some tt -> (
          match Subst.eval_time s tt with
          | Some i ->
              Some { Ground.predicate = a.predicate; args; time = Some i }
          | None -> None))
