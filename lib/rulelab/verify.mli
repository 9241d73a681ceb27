(** Differential verification of rewrite-rule packs.

    Each rule is mounted as an extra block in front of a base program
    and exercised on randomized plans and instances seeded to contain
    redexes for its left-hand side; a rule whose presence changes query
    results — or crashes rewriting/evaluation where the baseline
    succeeded — is unsound, and its counterexample is shrunk greedily
    to a minimal failing plan + instance.  One report folds in the
    static termination audit and overlap analysis ({!Rule_analysis})
    and the pack-level liveness pass (dead/shadowed rules from
    rule-ledger fire data).

    Candidate blocks always run under a finite condition-check limit,
    so nonterminating rules stay bounded during verification. *)

module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Rule = Eds_rewriter.Rule
module Rule_analysis = Eds_rewriter.Rule_analysis

type counterexample = {
  plan : Lera.rel;  (** minimal failing plan *)
  relations : (string * Relation.t) list;  (** minimal instance *)
  expected : Relation.t;  (** result without the rule *)
  got : (Relation.t, string) result;
      (** result with the rule, or the induced pipeline error *)
  shrink_steps : int;
}

type soundness =
  | Sound of { fired : int; trials : int }
      (** fired and never changed a result *)
  | Not_exercised of { trials : int }
      (** never fired: no soundness evidence either way *)
  | Unsound of counterexample

type liveness =
  | Live  (** fired during the pack-level pass *)
  | Dead  (** never fired with the whole pack mounted *)
  | Shadowed of string
      (** dead, and an earlier overlapping pack rule did fire *)

type rule_report = {
  rule : Rule.t;
  soundness : soundness;
  behaviour : Rule_analysis.size_behaviour;
  warnings : Rule_analysis.warning list;
      (** termination audit, as if the rule ran under an infinite limit *)
  liveness : liveness;
}

type report = {
  rules : rule_report list;
  overlaps : (string * string) list;  (** competing pack-rule pairs *)
  trials : int;
  seed : int;
}

val cand_block : ?limit:int -> Rule.t list -> Rule.block
(** The block shape the verifier mounts candidates in: a reserved name
    and a finite condition-check budget. *)

val verify_rules :
  ?seed:int -> ?trials:int -> ?base:Rule.program -> Rule.t list -> report
(** [base] defaults to the paper's full program
    ([Optimizer.program ()]); pass [{ blocks = []; rounds = 1 }] to test
    a rule's own semantics in isolation. *)

val verify_pack :
  ?seed:int -> ?trials:int -> ?base:Rule.program -> string -> report
(** Parse a rule-pack text ({!Rule_parser.parse_rules}) and verify it.
    Raises {!Rule_parser.Rule_parse_error} on malformed input. *)

val clean : report -> bool
(** No unsound rule (not-exercised and liveness findings are warnings,
    not failures). *)

val unsound : report -> rule_report list
val exercised : report -> int

val check_counterexample :
  ?base:Rule.program -> Rule.t -> counterexample -> bool
(** Replay: does the counterexample still demonstrate unsoundness? *)

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_rule_report : Format.formatter -> rule_report -> unit
val pp_report : Format.formatter -> report -> unit
