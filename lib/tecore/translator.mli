(** The TeCoRe translator: validation and solver-capability analysis.

    The paper's translator "parses data, inference rules, and temporal
    constraints, and transforms those into the specific syntax of the
    chosen solver", taking "special care ... to verify that the input
    adheres to the expressivity of the solver". The transformation itself
    is {!Grounder} + {!Mln.Network} / {!Psl.Hlmrf}; this module performs
    the up-front verification and produces an analysis report:

    - safety of every rule (range restriction);
    - predicates used by rules that do not occur in the selected KG
      (typo detection for the constraint editor);
    - per-solver expressivity notes: the MLN path solves the exact
      Boolean MAP problem and supports deterministic (hard) semantics
      exactly; the PSL path relaxes to Łukasiewicz semantics, so soft
      disjunction weights are approximated — the classic
      expressiveness-for-scalability trade the demo discusses;
    - an engine recommendation based on instance size. *)

type severity = Info | Warning | Error

type note = {
  severity : severity;
  rule : string option;     (** rule name, when the note is rule-specific *)
  message : string;
}

type engine_choice = Mln_engine | Psl_engine

type report = {
  notes : note list;
  ok : bool;                (** no [Error] notes *)
  recommended : engine_choice;
  estimated_atoms : int;
}

val analyse : Kg.Graph.t -> Logic.Rule.t list -> report

val pp_report : Format.formatter -> report -> unit
