(** Edit-script language for incremental sessions.

    A script is a line-oriented program driving one {!Session}: load a
    UTKG, edit facts and rules, resolve (incrementally or from scratch),
    and diff the input against the resolution. The CLI's
    [tecore session --script FILE] runs one and prints a deterministic
    transcript (no timings), which the golden tests under [data/] compare
    byte for byte.

    Commands, one per line ([#] starts a comment, blank lines are
    skipped):

    {v
    load FILE                  # load a UTKG (relative to the script)
    assert FACT                # one fact in N-Quads syntax
    retract FACT               # remove the oldest matching fact
    rule NAME [W]: BODY => HEAD .        # add a rule (full declaration)
    constraint NAME: BODY => COND .      # add a constraint
    unrule NAME                # remove a rule by name
    resolve [fresh|incremental]  # run resolution (default incremental)
    diff                       # input graph vs last resolution
    v}

    Parsing is eager: fact and rule payloads are validated up front
    against a throwaway namespace, so a malformed line 10 is reported
    before line 1 runs. All errors — parse and execution — are typed and
    located as [path:line:column].

    This module owns the edit language end to end. The server's wire
    ([Serve.Protocol]), its journal replay ([Serve.Journal]) and this
    module's {!run} split lines with the one {!split_keyword}, parse
    commands with {!parse_command} and run edits with the one {!apply},
    so an edit means the same thing whichever door it comes through. *)

type command =
  | Load of string
  | Assert_ of string
  | Retract of string
  | Rule of string
  | Unrule of string
  | Resolve of [ `Fresh | `Incremental ]
  | Diff

type located = { cmd : command; line : int; column : int }

type t = { path : string; commands : located list }

type error = { path : string; line : int; column : int; message : string }

val pp_error : Format.formatter -> error -> unit
(** [path:line:column: message], the compiler convention. *)

val parse_string : path:string -> string -> (t, error) result
(** Total: every input returns [Ok] or a located [Error]; never raises.
    [path] is used only for error locations and for resolving relative
    [load] arguments at execution time. *)

val split_keyword : string -> string * string * int * int
(** [split_keyword s] is [(keyword, rest, keyword_column, rest_column)]:
    the first blank-delimited word of [s] and everything after the blanks
    that follow it, with 1-based columns ([rest_column] is one past the
    end of [s] when [rest] is empty). Blanks are space, tab and CR.
    Trailing blanks stay in [rest] (see {!trim_end}). *)

val trim_end : string -> string
(** [s] without its trailing blanks. *)

val parse_command :
  path:string -> line:int -> string -> (located option, error) result
(** Parse one script line — the unit the server's wire protocol reuses as
    its request language. Total like {!parse_string}: [Ok None] for a
    blank or comment line, [Ok (Some c)] for a command, and a located
    [Error] (at [path:line:column]) otherwise. Payload validation is as
    eager as in {!parse_string}: a malformed fact or rule is refused
    here, before anything executes. A fact payload is validated as an
    N-Quads document line, which trims it; [Assert_]/[Retract] carry it
    so trimmed, so {!apply} parses the bytes that were validated. *)

type outcome =
  | Loaded of { path : string; facts : int }
      (** the command's path and the loaded graph's fact count *)
  | Asserted of Kg.Quad.t
  | Retracted of Kg.Quad.t
  | Added of Logic.Rule.t list
  | Removed of string  (** the removed rule's name *)

val apply : ?dir:string -> Session.t -> command -> (outcome, string) result
(** Run one edit — [Load], [Assert_], [Retract], [Rule] or [Unrule] —
    against the session: the one executor behind {!run}, the server's
    edit verbs and journal replay. Fact payloads are parsed by
    {!Kg.Nquads.parse_quad} in the session's namespace. A relative [load]
    path resolves against [dir] when given. Errors are the rendered
    message ({!Session.error_message} for session errors). Raises
    [Invalid_argument] on [Resolve] and [Diff]: reads stay with the
    caller. *)

val run :
  ?engine:Engine.engine ->
  ?jobs:int ->
  session:Session.t ->
  Format.formatter ->
  t ->
  (unit, error) result
(** Execute against [session], printing the transcript to the formatter.
    A translator rejection prints the report and continues (a rejected
    resolve is a transcript outcome, not a script failure); any other
    execution error — absent retract target, unknown rule name, missing
    graph, unreadable [load] file — halts with a located error. *)
