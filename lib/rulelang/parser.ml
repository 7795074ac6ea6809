open Logic

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse_error of error

type state = {
  mutable tokens : (Token.t * int) list;
  ns : Kg.Namespace.t option;
}

let fail st message =
  let line = match st.tokens with (_, l) :: _ -> l | [] -> 0 in
  raise (Parse_error { line; message })

let peek st = match st.tokens with (t, _) :: _ -> t | [] -> Token.Eof

let peek2 st = match st.tokens with _ :: (t, _) :: _ -> t | _ -> Token.Eof

let advance st =
  match st.tokens with
  | _ :: rest -> st.tokens <- rest
  | [] -> ()

let expect st tok what =
  if Token.equal (peek st) tok then advance st
  else
    fail st
      (Format.asprintf "expected %s but found '%a'" what Token.pp (peek st))

let expand st name =
  match st.ns with Some ns -> Kg.Namespace.expand ns name | None -> name

let is_variable_name name =
  String.length name > 0
  && ((name.[0] >= 'a' && name.[0] <= 'z') || name.[0] = '?')
  && not (String.contains name ':')

let strip_qmark name =
  if String.length name > 0 && name.[0] = '?' then
    String.sub name 1 (String.length name - 1)
  else name

(* Object terms: variables (lower-case), constants (anything else). *)
let parse_term st =
  match peek st with
  | Token.Ident name ->
      advance st;
      if is_variable_name name then Lterm.var (strip_qmark name)
      else Lterm.const (Kg.Term.iri (expand st name))
  | Token.Number f ->
      advance st;
      if Float.is_integer f then Lterm.const (Kg.Term.int (int_of_float f))
      else Lterm.const (Kg.Term.float f)
  | Token.String s ->
      advance st;
      Lterm.const (Kg.Term.str s)
  | t -> fail st (Format.asprintf "expected a term, found '%a'" Token.pp t)

(* Temporal terms: t, [2000,2004], (t * t2), (t + t2). *)
let rec parse_ttime st =
  let primary () =
    match peek st with
    | Token.Ident name when is_variable_name name ->
        advance st;
        Lterm.Tvar (strip_qmark name)
    | Token.Interval (lo, hi) ->
        advance st;
        if lo > hi then fail st (Printf.sprintf "interval [%d,%d] has lo > hi" lo hi)
        else Lterm.Tconst (Kg.Interval.make lo hi)
    | Token.Lparen ->
        advance st;
        let inner = parse_ttime st in
        expect st Token.Rparen "')'";
        inner
    | t ->
        fail st
          (Format.asprintf "expected a temporal term, found '%a'" Token.pp t)
  in
  let left = primary () in
  match peek st with
  | Token.Star ->
      advance st;
      Lterm.Tinter (left, parse_ttime st)
  | Token.Plus ->
      advance st;
      Lterm.Thull (left, parse_ttime st)
  | _ -> left

let arith_functions = [ "start"; "end"; "length"; "value" ]

(* Arithmetic: integers, start/end/length of a temporal term, value of an
   object term, bare identifiers (resolved to Value_of here; a post-pass
   turns temporal ones into Start_of), sums and differences. *)
let rec parse_arith st =
  let primary () =
    match peek st with
    | Token.Number f when Float.is_integer f ->
        advance st;
        Cond.Num (int_of_float f)
    | Token.Number _ -> fail st "arithmetic literals must be integers"
    | Token.Ident f when List.mem f arith_functions && peek2 st = Token.Lparen
      -> (
        advance st;
        advance st;
        match f with
        | "start" ->
            let tt = parse_ttime st in
            expect st Token.Rparen "')'";
            Cond.Start_of tt
        | "end" ->
            let tt = parse_ttime st in
            expect st Token.Rparen "')'";
            Cond.End_of tt
        | "length" ->
            let tt = parse_ttime st in
            expect st Token.Rparen "')'";
            Cond.Length_of tt
        | _ ->
            let term = parse_term st in
            expect st Token.Rparen "')'";
            Cond.Value_of term)
    | Token.Ident name when is_variable_name name ->
        advance st;
        Cond.Value_of (Lterm.var (strip_qmark name))
    | t ->
        fail st
          (Format.asprintf "expected an arithmetic term, found '%a'" Token.pp t)
  in
  let left = primary () in
  match peek st with
  | Token.Plus ->
      advance st;
      Cond.Add (left, parse_arith st)
  | Token.Minus ->
      advance st;
      Cond.Sub (left, parse_arith st)
  | _ -> left

let comparison_op st =
  match peek st with
  | Token.Lt -> advance st; Some Cond.Lt
  | Token.Le -> advance st; Some Cond.Le
  | Token.Gt -> advance st; Some Cond.Gt
  | Token.Ge -> advance st; Some Cond.Ge
  | Token.Eq -> advance st; Some Cond.Eq_cmp
  | Token.Neq -> advance st; Some Cond.Ne_cmp
  | _ -> None

(* An element of a body or head: an atom or a condition. *)
type element =
  | E_atom of Atom.t
  | E_cond of Cond.t

let allen_of_ident name =
  match name with
  | "disjoint" -> Some Kg.Allen.Set.disjoint
  | "intersects" -> Some Kg.Allen.Set.intersects
  | _ ->
      Option.map Kg.Allen.Set.singleton (Kg.Allen.of_name name)

let parse_atom_args st =
  expect st Token.Lparen "'('";
  let rec args acc =
    let t = parse_term st in
    match peek st with
    | Token.Comma ->
        advance st;
        args (t :: acc)
    | _ ->
        expect st Token.Rparen "')'";
        List.rev (t :: acc)
  in
  args []

let parse_atom st predicate =
  let args = parse_atom_args st in
  let time =
    if Token.equal (peek st) Token.At then begin
      advance st;
      Some (parse_ttime st)
    end
    else None
  in
  (* quad(x, p, y, t) sugar: the predicate position must be constant. *)
  match (predicate, args, time) with
  | "quad", [ s; p; o; t ], None -> (
      let ttime =
        match t with
        | Lterm.Var v -> Lterm.Tvar v
        | Lterm.Const (Kg.Term.Int y) -> Lterm.Tconst (Kg.Interval.point y)
        | _ -> fail st "quad/4: the fourth argument must be a temporal term"
      in
      (* The predicate position is always a constant name, even when it
         is lower-case like the paper's quad(x, playsFor, y, t). *)
      match p with
      | Lterm.Const c -> Atom.make ~time:ttime (Kg.Term.to_string c) [ s; o ]
      | Lterm.Var v -> Atom.make ~time:ttime (expand st v) [ s; o ])
  | "quad", [ s; p; o ], None -> (
      match p with
      | Lterm.Const c -> Atom.make (Kg.Term.to_string c) [ s; o ]
      | Lterm.Var v -> Atom.make (expand st v) [ s; o ])
  | _ -> Atom.make ?time (expand st predicate) args

let parse_element st =
  match peek st with
  | Token.Ident "false" ->
      advance st;
      `Bottom
  | Token.Ident name when peek2 st = Token.Lparen -> (
      match allen_of_ident name with
      | Some set -> (
          (* Allen relation names are reserved as conditions. *)
          advance st;
          expect st Token.Lparen "'('";
          let a = parse_ttime st in
          expect st Token.Comma "','";
          let b = parse_ttime st in
          expect st Token.Rparen "')'";
          `Element (E_cond (Cond.allen_set set a b)))
      | _ when List.mem name arith_functions -> (
          let left = parse_arith st in
          match comparison_op st with
          | Some op -> `Element (E_cond (Cond.Cmp (op, left, parse_arith st)))
          | None -> fail st "expected a comparison operator")
      | _ ->
          advance st;
          `Element (E_atom (parse_atom st name)))
  | Token.Ident _ | Token.Number _ | Token.String _ -> (
      (* term-level comparison or arithmetic comparison *)
      let saved = st.tokens in
      match peek st with
      | Token.Ident name
        when is_variable_name name
             && (match peek2 st with
                | Token.Eq | Token.Neq -> true
                | _ -> false) -> (
          let left = parse_term st in
          match comparison_op st with
          | Some Cond.Eq_cmp -> `Element (E_cond (Cond.Eq (left, parse_term st)))
          | Some Cond.Ne_cmp ->
              `Element (E_cond (Cond.Neq (left, parse_term st)))
          | _ -> fail st "expected '=' or '!='")
      | _ -> (
          st.tokens <- saved;
          let left = parse_arith st in
          match comparison_op st with
          | Some op -> `Element (E_cond (Cond.Cmp (op, left, parse_arith st)))
          | None -> fail st "expected a comparison operator"))
  | t -> fail st (Format.asprintf "expected an atom or condition, found '%a'" Token.pp t)

let rec parse_body st acc =
  match parse_element st with
  | `Bottom -> fail st "'false' can only appear as a head"
  | `Element e -> (
      let acc = e :: acc in
      match peek st with
      | Token.And | Token.Comma ->
          advance st;
          parse_body st acc
      | _ -> List.rev acc)

(* After parsing, a bare variable in arithmetic (Value_of) that is used as
   a temporal variable in the body denotes its interval start — this lets
   the paper's "t' - t < 20" parse as written. *)
let resolve_temporal_arith body_tvars cond =
  let rec fix_arith a =
    match a with
    | Cond.Value_of (Lterm.Var v) when List.mem v body_tvars ->
        Cond.Start_of (Lterm.Tvar v)
    | Cond.Add (x, y) -> Cond.Add (fix_arith x, fix_arith y)
    | Cond.Sub (x, y) -> Cond.Sub (fix_arith x, fix_arith y)
    | a -> a
  in
  match cond with
  | Cond.Cmp (op, a, b) -> Cond.Cmp (op, fix_arith a, fix_arith b)
  | c -> c

let parse_statement st =
  let kind =
    match peek st with
    | Token.Ident "rule" ->
        advance st;
        `Rule
    | Token.Ident "constraint" ->
        advance st;
        `Constraint
    | t ->
        fail st
          (Format.asprintf "expected 'rule' or 'constraint', found '%a'"
             Token.pp t)
  in
  let name =
    match peek st with
    | Token.Ident n ->
        advance st;
        n
    | t -> fail st (Format.asprintf "expected a name, found '%a'" Token.pp t)
  in
  let weight =
    match peek st with
    | Token.Number w ->
        advance st;
        if w <= 0.0 then fail st "weights must be positive" else Some w
    | Token.Ident "hard" ->
        advance st;
        None
    | _ -> None
  in
  expect st Token.Colon "':'";
  let body_elements = parse_body st [] in
  expect st Token.Arrow "'=>'";
  let head =
    match parse_element st with
    | `Bottom -> Rule.Bottom
    | `Element (E_atom a) -> Rule.Infer a
    | `Element (E_cond c) -> Rule.Require c
  in
  if Token.equal (peek st) Token.Dot then advance st;
  let body_atoms =
    List.filter_map (function E_atom a -> Some a | E_cond _ -> None)
      body_elements
  in
  let body_tvars = List.concat_map Atom.tvars body_atoms in
  let conditions =
    List.filter_map
      (function
        | E_cond c -> Some (resolve_temporal_arith body_tvars c)
        | E_atom _ -> None)
      body_elements
  in
  let head =
    match head with
    | Rule.Require c -> Rule.Require (resolve_temporal_arith body_tvars c)
    | h -> h
  in
  (match (kind, head) with
  | `Constraint, Rule.Infer _ ->
      fail st (name ^ ": a constraint head must be a condition or 'false'")
  | _ -> ());
  match Rule.make ?weight ~conditions ~name ~body:body_atoms head with
  | rule -> rule
  | exception Rule.Ill_formed msg -> fail st msg

let parse_program st =
  let rec loop acc =
    match peek st with
    | Token.Eof -> List.rev acc
    | _ -> loop (parse_statement st :: acc)
  in
  loop []

let parse_string ?namespace src =
  match Lexer.tokenize src with
  | Error e ->
      Error { line = e.Lexer.line; message = e.Lexer.message }
  | Ok tokens -> (
      let st = { tokens; ns = namespace } in
      match parse_program st with
      | rules -> Ok rules
      | exception Parse_error e -> Error e)

let parse_file ?namespace path =
  parse_string ?namespace (In_channel.with_open_bin path In_channel.input_all)

let parse_query ?namespace src =
  match Lexer.tokenize src with
  | Error e -> Error { line = e.Lexer.line; message = e.Lexer.message }
  | Ok tokens -> (
      let st = { tokens; ns = namespace } in
      match
        let elements = parse_body st [] in
        if Token.equal (peek st) Token.Dot then advance st;
        (match peek st with
        | Token.Eof -> ()
        | t ->
            fail st
              (Format.asprintf "trailing input after the query: '%a'" Token.pp
                 t));
        let atoms =
          List.filter_map
            (function E_atom a -> Some a | E_cond _ -> None)
            elements
        in
        let body_tvars = List.concat_map Atom.tvars atoms in
        let conditions =
          List.filter_map
            (function
              | E_cond c -> Some (resolve_temporal_arith body_tvars c)
              | E_atom _ -> None)
            elements
        in
        if atoms = [] then fail st "a query needs at least one atom";
        (atoms, conditions)
      with
      | result -> Ok result
      | exception Parse_error e -> Error e)
