(* Reads a [tecore resolve --json] payload on stdin and prints its
   "resolution" object, the part that carries no timings, as JSON with
   one field per line and one array element per line, so that a golden
   diff names the fact that moved. Values are re-rendered by the same
   [Obs.Json] the CLI renders with, so they keep the CLI's bytes. *)

module J = Obs.Json

let () =
  let payload = In_channel.input_all stdin in
  match Result.map (J.member "resolution") (J.parse payload) with
  | Error e -> failwith ("resolution_json: " ^ e)
  | Ok None | Ok (Some (J.Null | J.Bool _ | J.Num _ | J.Str _ | J.Arr _)) ->
      failwith "resolution_json: no resolution object"
  | Ok (Some (J.Obj fields)) ->
      let field (name, value) =
        let head = J.to_string (J.Str name) ^ ":" in
        match value with
        | J.Arr (_ :: _ as items) ->
            head ^ "[\n"
            ^ String.concat ",\n" (List.map J.to_string items)
            ^ "]"
        | v -> head ^ J.to_string v
      in
      print_string ("{" ^ String.concat ",\n" (List.map field fields) ^ "}\n")
