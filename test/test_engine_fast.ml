(* Tests for the engine hot path: head-symbol rule indexing, the
   incremental re-scan, per-substitution budget accounting, the
   [nonempty] constraint, and the golden-trace equivalence between the
   indexed engine and the reference engine. *)

module Value = Eds_value.Value
module Term = Eds_term.Term
module Subst = Eds_term.Subst
module Matcher = Eds_term.Matcher
module Lera = Eds_lera.Lera
module Lera_term = Eds_lera.Lera_term
module Catalog = Eds_esql.Catalog
module Parser = Eds_esql.Parser
module Translate = Eds_esql.Translate
module Session = Eds.Session
module Database = Eds_engine.Database
module Rule = Eds_rewriter.Rule
module Rule_parser = Eds_rewriter.Rule_parser
module Rulesets = Eds_rewriter.Rulesets
module Engine = Eds_rewriter.Engine
module Optimizer = Eds_rewriter.Optimizer

let term = Alcotest.testable Term.pp Term.equal
let empty_ctx () = Optimizer.make_ctx (Catalog.schema_env (Catalog.create ()))

(* -- nonempty (satellite b) ---------------------------------------------- *)

let nonempty args = Term.app "nonempty" args

let test_nonempty_constraint () =
  let c = empty_ctx () in
  let eval t = Engine.eval_constraint c Engine.top_env t in
  Alcotest.(check bool) "nonempty(list()) is false" false
    (eval (nonempty [ Term.Coll (Term.List, []) ]));
  Alcotest.(check bool) "nonempty(set()) is false" false
    (eval (nonempty [ Term.Coll (Term.Set, []) ]));
  Alcotest.(check bool) "nonempty(list(1)) is true" true
    (eval (nonempty [ Term.Coll (Term.List, [ Term.int 1 ]) ]));
  Alcotest.(check bool) "nonempty of an empty set value is false" false
    (eval (nonempty [ Term.Cst (Value.set []) ]));
  Alcotest.(check bool) "nonempty of a set value with elements is true" true
    (eval (nonempty [ Term.Cst (Value.set [ Value.Int 1 ]) ]));
  (* spliced collection variables: the elements become the arguments *)
  Alcotest.(check bool) "no spliced elements is false" false (eval (nonempty []));
  Alcotest.(check bool) "spliced elements are true" true
    (eval (nonempty [ Term.int 1; Term.int 2 ]))

let test_nonempty_guards_variable_binding () =
  (* a plain variable bound to an empty collection term must not pass the
     guard: before the fix, the lone collection argument made it true *)
  let c = empty_ctx () in
  let rule = Rule_parser.parse_rule "r: f(x) / nonempty(x) --> g(x)" in
  let applied t = Engine.apply_rule_at c Engine.top_env rule t in
  Alcotest.(check bool) "empty list binding rejected" true
    (applied (Term.app "f" [ Term.Coll (Term.List, []) ]) = None);
  Alcotest.(check bool) "non-empty list binding accepted" true
    (applied (Term.app "f" [ Term.Coll (Term.List, [ Term.int 1 ] ) ]) <> None)

(* the three library rules guarded by nonempty: and_true / or_false must
   drop the neutral element only when conjuncts remain, and
   empty_union_arm must never remove the last arm of a union *)
let simplification_block ?limit () =
  {
    Rule.blocks = [ Rule.block "simplify" ?limit (Rulesets.simplification ()) ];
    rounds = 1;
  }

let test_and_true_or_false_rules () =
  let c = empty_ctx () in
  let p = Rule_parser.parse_term "@(1,1) = 1" in
  let conj op rest = Term.app op [ Term.Coll (Term.Bag, rest) ] in
  let run t = Engine.run c (simplification_block ()) t in
  Alcotest.check term "and_true drops the true"
    (Rule_parser.parse_term "@(1,1) = 1 AND @(1,2) = 2")
    (run (conj "and" [ p; Rule_parser.parse_term "@(1,2) = 2"; Term.Cst (Value.Bool true) ]));
  Alcotest.check term "or_false drops the false" p
    (run (conj "or" [ p; Term.Cst (Value.Bool false) ]));
  (* with no other conjunct the guard refuses: and(bag(true)) must not
     become the empty conjunction and(bag()) *)
  let lone = conj "and" [ Term.Cst (Value.Bool true) ] in
  Alcotest.check term "and_true refuses a lone true" lone (run lone)

let test_empty_union_arm_keeps_last () =
  let c = empty_ctx () in
  let empty_arm = Term.app "filter" [ Term.app "rel" [ Term.str "R" ]; Term.Cst (Value.Bool false) ] in
  let live_arm = Term.app "rel" [ Term.str "S" ] in
  let union arms = Term.app "union" [ Term.Coll (Term.Set, arms) ] in
  let run t = Engine.run c (simplification_block ()) t in
  (* an empty arm next to a live one disappears; union_singleton then
     collapses the wrapper *)
  Alcotest.check term "empty arm dropped" live_arm (run (union [ empty_arm; live_arm ]));
  (* the only arm, even provably empty, must stay: the nonempty guard
     over the collection variable fails, and only union_singleton
     unwraps — empty_union_arm must never produce union(set()) *)
  Alcotest.check term "last arm kept" empty_arm (run (union [ empty_arm ]))

(* -- budget semantics (satellites a, d) ----------------------------------- *)

(* one rule, one node, six match substitutions: and(bag(c*, x, y)) against
   a three-conjunct bag enumerates the 3×2 ordered picks of (x, y), and
   the never-true constraint forces every one to be condition-checked *)
let test_limit_counts_every_substitution () =
  let c = empty_ctx () in
  let rule = Rule_parser.parse_rule "r: and(bag(c*, x, y)) / distinct(x, x) --> false" in
  let subject =
    Term.app "and"
      [
        Term.Coll
          ( Term.Bag,
            [
              Rule_parser.parse_term "@(1,1) = 1";
              Rule_parser.parse_term "@(1,2) = 2";
              Rule_parser.parse_term "@(1,3) = 3";
            ] );
      ]
  in
  let run limit =
    let stats = Engine.fresh_stats () in
    let block = Rule.block "b" ?limit [ rule ] in
    let t' = Engine.run_block c ~stats block subject in
    (t', stats)
  in
  let t_inf, s_inf = run None in
  Alcotest.check term "rule never applies" subject t_inf;
  Alcotest.(check int) "every substitution is one condition check" 6
    s_inf.Engine.conditions_checked;
  let _, s4 = run (Some 4) in
  Alcotest.(check int) "limit 4 stops after four checks" 4 s4.Engine.conditions_checked;
  let _, s0 = run (Some 0) in
  Alcotest.(check int) "limit 0 checks nothing" 0 s0.Engine.conditions_checked

let test_limit_bounds_block_work () =
  (* a block with limit n evaluates at most n condition checks, across
     rules, nodes and re-scans *)
  let c = empty_ctx () in
  let t = Rule_parser.parse_term "@(1,1) = 1 AND 2 = 2 AND 3 = 3 AND 4 = 4 AND 5 = 5" in
  List.iter
    (fun n ->
      let stats = Engine.fresh_stats () in
      let program = simplification_block ~limit:n () in
      ignore (Optimizer.rewrite_term ~program ~stats c t);
      Alcotest.(check bool)
        (Fmt.str "limit %d bounds condition checks" n)
        true
        (stats.Engine.conditions_checked <= n))
    [ 0; 1; 3; 7; 20 ]

(* -- matcher and index properties (satellite d) ---------------------------- *)

(* ground LERA-flavoured terms whose heads overlap the rule library's *)
let subject_gen =
  let open QCheck2.Gen in
  let rec go depth =
    let leaf =
      oneof
        [
          map Term.int (int_range 0 5);
          map Term.str (oneofl [ "a"; "b"; "R" ]);
          return (Term.Cst (Value.Bool true));
          return (Term.Cst (Value.Bool false));
        ]
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map2
              (fun f args -> Term.app f args)
              (oneofl [ "and"; "or"; "not"; "union"; "filter"; "member"; "<"; "="; "rel"; "+" ])
              (list_size (int_range 0 3) (go (depth - 1))) );
          ( 2,
            map2
              (fun k args -> Term.Coll (k, args))
              (oneofl Term.[ Set; Bag; List ])
              (list_size (int_range 0 3) (go (depth - 1))) );
        ]
  in
  go 3

(* generalize a ground term into a pattern: each node may be replaced by
   a fresh variable, chosen by the bits of the mask in visit order *)
let generalize mask t =
  let k = ref 0 in
  let rec go t =
    let here = !k in
    incr k;
    if (mask lsr (here mod 30)) land 1 = 1 then Term.var (Fmt.str "v%d" here)
    else
      match t with
      | Term.App (f, args) -> Term.App (f, List.map go args)
      | Term.Coll (kind, args) -> Term.Coll (kind, List.map go args)
      | Term.Var _ | Term.Cvar _ | Term.Cst _ -> t
  in
  go t

let prop_match_rebuilds_subject =
  QCheck2.Test.make ~name:"every match substitution rebuilds the subject" ~count:300
    QCheck2.Gen.(pair subject_gen (int_bound ((1 lsl 30) - 1)))
    (fun (subject, mask) ->
      let pattern = generalize mask subject in
      Matcher.all ~pattern subject
      |> Seq.for_all (fun s -> Term.equal (Subst.apply s pattern) subject))

let prop_head_compatible_necessary =
  QCheck2.Test.make ~name:"head_compatible=false implies no matches" ~count:300
    QCheck2.Gen.(triple subject_gen subject_gen (int_bound ((1 lsl 30) - 1)))
    (fun (a, b, mask) ->
      let pattern = generalize mask a in
      Matcher.head_compatible ~pattern b
      || Seq.is_empty (Matcher.all ~pattern b))

(* the dispatch table against the linear scan, over the whole built-in
   library in one block: same rules found, original order preserved *)
let prop_index_equals_linear_scan =
  let rules =
    Rulesets.merging () @ Rulesets.fixpoint () @ Rulesets.permutation ()
    @ Rulesets.semantic () @ Rulesets.simplification ()
  in
  let compiled = Rule.compile (Rule.block "all" rules) in
  QCheck2.Test.make ~name:"head index finds what the linear scan finds" ~count:300
    subject_gen
    (fun t ->
      let cands = Rule.candidates compiled t in
      let positions = List.map fst cands in
      (* soundness: every rule with at least one match is a candidate *)
      List.for_all
        (fun r ->
          Seq.is_empty (Matcher.all ~pattern:r.Rule.lhs t)
          || List.exists (fun (_, r') -> r' == r) cands)
        rules
      (* each candidate carries its position in the block's rule list *)
      && List.for_all (fun (i, r) -> List.nth rules i == r) cands
      (* precision: every candidate is head-compatible *)
      && List.for_all (fun (_, r) -> Matcher.head_compatible ~pattern:r.Rule.lhs t) cands
      (* order: candidates appear in the block's rule order *)
      && positions = List.sort_uniq compare positions)

(* -- golden traces (satellite d / tentpole acceptance) --------------------- *)

let same_traces a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Engine.step) (y : Engine.step) ->
         x.Engine.rule_name = y.Engine.rule_name
         && x.Engine.block_name = y.Engine.block_name
         && Term.equal x.Engine.redex y.Engine.redex
         && Term.equal x.Engine.replacement y.Engine.replacement)
       a b

let no_limit_program () =
  Optimizer.program
    ~config:
      {
        Optimizer.merging_limit = None;
        fixpoint_limit = None;
        permutation_limit = None;
        semantic_limit = None;
        simplification_limit = None;
        rounds = 4;
      }
    ()

let check_golden ?(program = fun () -> no_limit_program ()) name ctx t =
  let s_idx = Engine.fresh_stats () and s_ref = Engine.fresh_stats () in
  let t_idx = Optimizer.rewrite_term ~program:(program ()) ~stats:s_idx ctx t in
  let t_ref = Optimizer.rewrite_term_reference ~program:(program ()) ~stats:s_ref ctx t in
  Alcotest.check term (name ^ ": same final term") t_ref t_idx;
  Alcotest.(check bool) (name ^ ": same trace") true
    (same_traces (Engine.steps s_idx) (Engine.steps s_ref));
  Alcotest.(check int) (name ^ ": same rewrite count") s_ref.Engine.rewrites_applied
    s_idx.Engine.rewrites_applied

(* a view stack like the bench workload: depth chained selections *)
let view_stack_query depth =
  let s = Session.create () in
  ignore (Session.exec_script s {|TABLE BASE (A : NUMERIC, B : NUMERIC, C : NUMERIC) ;|});
  for i = 1 to depth do
    let prev = if i = 1 then "BASE" else Fmt.str "V%d" (i - 1) in
    ignore
      (Session.exec_string s
         (Fmt.str "CREATE VIEW V%d (A, B, C) AS SELECT A, B, C FROM %s WHERE A > %d" i
            prev i))
  done;
  let cat = Session.catalog s in
  let translated =
    Translate.select cat
      (Parser.parse_select (Fmt.str "SELECT A FROM V%d WHERE B > 50" depth))
  in
  (Optimizer.make_ctx (Catalog.schema_env cat), Lera_term.to_term translated)

let test_golden_view_stack () =
  let ctx, t = view_stack_query 6 in
  check_golden "view stack" ctx t

let test_golden_recursion () =
  (* the bench's transitive-closure query: fixpoint + merging + magic *)
  let db = Database.create () in
  Database.add_relation db "EDGE"
    (Eds_engine.Relation.make
       [ ("Src", Eds_value.Vtype.Int); ("Dst", Eds_value.Vtype.Int) ]
       (List.init 7 (fun i -> [ Value.Int (i + 1); Value.Int (i + 2) ])));
  let tc =
    Lera.Fix
      ( "TC",
        Lera.Union
          [
            Lera.Base "EDGE";
            Lera.Search
              ( [ Lera.Base "TC"; Lera.Base "TC" ],
                Lera.eq (Lera.col 1 2) (Lera.col 2 1),
                [ Lera.col 1 1; Lera.col 2 2 ] );
          ] )
  in
  let q =
    Lera.Search
      ( [ tc ],
        Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 2)),
        [ Lera.col 1 2 ] )
  in
  let ctx = Optimizer.make_ctx (Database.schema_env db) in
  check_golden "recursion" ctx (Lera_term.to_term q)

let test_golden_semantic_chain () =
  let ctx = empty_ctx () in
  let t =
    Rule_parser.parse_term
      (String.concat " AND "
         (List.init 5 (fun i -> Fmt.str "@(1,%d) < @(1,%d)" (i + 1) (i + 2))))
  in
  let program () =
    {
      Rule.blocks =
        [
          Rule.block "semantic" (Rulesets.semantic ());
          Rule.block "simplification" (Rulesets.simplification ());
        ];
      rounds = 2;
    }
  in
  check_golden ~program "semantic chain" ctx t

let suite =
  [
    Alcotest.test_case "nonempty constraint forms" `Quick test_nonempty_constraint;
    Alcotest.test_case "nonempty rejects empty bindings" `Quick
      test_nonempty_guards_variable_binding;
    Alcotest.test_case "and_true / or_false guards" `Quick test_and_true_or_false_rules;
    Alcotest.test_case "empty_union_arm keeps the last arm" `Quick
      test_empty_union_arm_keeps_last;
    Alcotest.test_case "limit counts every substitution" `Quick
      test_limit_counts_every_substitution;
    Alcotest.test_case "limit n bounds checks by n" `Quick test_limit_bounds_block_work;
    QCheck_alcotest.to_alcotest prop_match_rebuilds_subject;
    QCheck_alcotest.to_alcotest prop_head_compatible_necessary;
    QCheck_alcotest.to_alcotest prop_index_equals_linear_scan;
    Alcotest.test_case "golden trace: view stack" `Quick test_golden_view_stack;
    Alcotest.test_case "golden trace: recursion" `Quick test_golden_recursion;
    Alcotest.test_case "golden trace: semantic chain" `Quick test_golden_semantic_chain;
  ]
