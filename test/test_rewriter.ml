(* Integration tests for the rewrite engine and the default rule library:
   the paper's Figures 7-12 transformations, the §4.2 control strategy,
   and end-to-end semantics preservation. *)

module Value = Eds_value.Value
module Term = Eds_term.Term
module Lera = Eds_lera.Lera
module Lera_term = Eds_lera.Lera_term
module Schema = Eds_lera.Schema
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Parser = Eds_esql.Parser
module Catalog = Eds_esql.Catalog
module Translate = Eds_esql.Translate
module Rule = Eds_rewriter.Rule
module Rule_parser = Eds_rewriter.Rule_parser
module Engine = Eds_rewriter.Engine
module Methods = Eds_rewriter.Methods
module Magic = Eds_rewriter.Magic
module Rulesets = Eds_rewriter.Rulesets
module Optimizer = Eds_rewriter.Optimizer

let term = Alcotest.testable Term.pp Term.equal
let rel = Alcotest.testable Lera.pp Lera.equal

(* Building a catalog whose tables match the fixture database requires the
   original DDL; reuse the test_esql declarations. *)
let figure2_ddl =
  {|
  TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
  TYPE Point TUPLE (ABS : REAL, ORD : REAL) ;
  TYPE Person OBJECT TUPLE (Name : CHAR, Firstname : SET OF CHAR, Caricature : LIST OF Point) ;
  TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
  TYPE Text LIST OF CHAR ;
  TYPE SetCategory SET OF Category ;
  TYPE Pairs LIST OF TUPLE (Pros : INT, Cons : INT) ;
  TABLE FILM (Numf : NUMERIC, Title : Text, Categories : SetCategory) ;
  TABLE APPEARS_IN (Numf : NUMERIC, Refactor : Actor) ;
  TABLE DOMINATE (Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor, Score : Pairs) ;
  CREATE VIEW FilmActors (Title, Categories, Actors) AS
    SELECT Title, Categories, MakeSet(Refactor)
    FROM FILM, APPEARS_IN
    WHERE FILM.Numf = APPEARS_IN.Numf
    GROUP BY Title, Categories ;
  CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS
    ( SELECT Refactor1, Refactor2 FROM DOMINATE
      UNION
      SELECT B1.Refactor1, B2.Refactor2
      FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.Refactor2 = B2.Refactor1 ) ;
|}

let film_setup () =
  let db, actors = Fixtures.film_db () in
  let cat = Catalog.create () in
  List.iter (Catalog.apply_ddl cat) (Parser.parse_program figure2_ddl);
  (db, cat, actors)

let ctx_of cat = Optimizer.make_ctx (Catalog.schema_env cat)

let ctx_of_db db = Optimizer.make_ctx (Database.schema_env db)

let translate cat q = Translate.select cat (Parser.parse_select q)

(* -- Figure 7: merging --------------------------------------------------- *)

let merging_program =
  { Rule.blocks = [ Rule.block "merging" (Rulesets.merging ()) ]; rounds = 1 }

let test_search_merge_flattens_composed_query () =
  let db, cat, _ = film_setup () in
  (* a query over a non-recursive view of a plain search: two stacked
     searches that must merge into one *)
  Catalog.apply_ddl cat
    (Parser.parse_stmt
       {|CREATE VIEW Adventures (Numf, Title) AS
         SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories)|});
  let q = translate cat "SELECT Title FROM Adventures WHERE Numf = 1" in
  Alcotest.(check int) "two operators before" 2 (Lera.operator_count q);
  let q' = Optimizer.rewrite ~program:merging_program (ctx_of cat) q in
  Alcotest.(check int) "one operator after" 1 (Lera.operator_count q');
  (match q' with
  | Lera.Search ([ Lera.Base "FILM" ], qual, [ proj ]) ->
    Alcotest.(check int) "qualifications merged by AND" 2
      (List.length (Lera.conjuncts qual));
    (match proj with
    | Lera.Col (1, 2) -> ()
    | _ -> Alcotest.failf "projection rewired: %a" Lera.pp_scalar proj)
  | _ -> Alcotest.failf "unexpected shape %a" Lera.pp q');
  (* semantics preserved *)
  let before = Eval.run db q and after = Eval.run db q' in
  Alcotest.(check bool) "same result" true (Relation.equal before after)

let test_merge_renumbers_through_projection () =
  let db, cat, _ = film_setup () in
  (* view that permutes and computes columns; outer query references them *)
  Catalog.apply_ddl cat
    (Parser.parse_stmt
       {|CREATE VIEW Salaries (Who, Pay) AS
         SELECT Name(Refactor), Salary(Refactor) FROM APPEARS_IN|});
  let q = translate cat "SELECT Who FROM Salaries WHERE Pay > 10000" in
  let q' = Optimizer.rewrite ~program:merging_program (ctx_of cat) q in
  Alcotest.(check int) "merged to one search" 1 (Lera.operator_count q');
  let before = Eval.run db q and after = Eval.run db q' in
  Alcotest.(check bool) "same result" true (Relation.equal before after);
  Alcotest.(check int) "three well-paid appearances" 3 (Relation.cardinality after)

let test_union_merge () =
  let t =
    Rule_parser.parse_term
      "union(set(rel('A'), union(set(rel('B'), rel('C')))))"
  in
  let flat = Rule_parser.parse_term "union(set(rel('A'), rel('B'), rel('C')))" in
  let cat = Catalog.create () in
  (* the Figure-7 rule flattens on its own when applied directly… *)
  (match Engine.apply_rule_at (ctx_of cat) Engine.top_env (Rulesets.find "union_merge") t with
  | Some t' -> Alcotest.check term "rule flattens" flat t'
  | None -> Alcotest.fail "union_merge did not apply");
  (* …and the pipeline reaches the same canonical form (its normalization
     also flattens nested unions structurally) *)
  let t' = Optimizer.rewrite_term ~program:merging_program (ctx_of cat) t in
  Alcotest.check term "pipeline flattens" flat t'

let test_filter_join_canonicalize () =
  let _, cat, _ = film_setup () in
  let q =
    Lera.Project
      ( Lera.Filter
          ( Lera.Join
              ( Lera.Base "FILM",
                Lera.Base "APPEARS_IN",
                Lera.eq (Lera.col 1 1) (Lera.col 2 1) ),
            Lera.Call (">", [ Lera.col 1 1; Lera.Cst (Value.Int 1) ]) ),
        [ Lera.col 1 2 ] )
  in
  let q' = Optimizer.rewrite ~program:merging_program (ctx_of cat) q in
  match q' with
  | Lera.Search ([ Lera.Base "FILM"; Lera.Base "APPEARS_IN" ], _, _) -> ()
  | _ -> Alcotest.failf "not canonicalized: %a" Lera.pp q'

(* -- Figure 8: permutation ------------------------------------------------ *)

let merge_then_permute =
  {
    Rule.blocks =
      [
        Rule.block "merging" (Rulesets.merging ());
        Rule.block "permutation" (Rulesets.permutation ());
      ];
    rounds = 1;
  }

let test_push_select_to_inputs () =
  let db, cat, _ = film_setup () in
  let q =
    translate cat
      {|SELECT Title FROM FILM, APPEARS_IN
        WHERE FILM.Numf = APPEARS_IN.Numf AND FILM.Numf = 1|}
  in
  let q' = Optimizer.rewrite ~program:merge_then_permute (ctx_of cat) q in
  (match q' with
  | Lera.Search (inputs, qual, _) ->
    Alcotest.(check bool) "a filter appeared on an input" true
      (List.exists (function Lera.Filter _ -> true | _ -> false) inputs);
    Alcotest.(check int) "only the join predicate remains" 1
      (List.length (Lera.conjuncts qual))
  | _ -> Alcotest.failf "unexpected shape %a" Lera.pp q');
  let s_before = Eval.fresh_stats () and s_after = Eval.fresh_stats () in
  (* naive layer: the assertion is about the enumerated space the rewrite
     removes, which indexed hash joins collapse on their own *)
  let before = Eval.run ~physical:Eval.Physical.Naive ~stats:s_before db q in
  let after = Eval.run ~physical:Eval.Physical.Naive ~stats:s_after db q' in
  Alcotest.(check bool) "same result" true (Relation.equal before after);
  Alcotest.(check bool)
    (Fmt.str "fewer combinations (%d < %d)" s_after.Eval.combinations
       s_before.Eval.combinations)
    true
    (s_after.Eval.combinations < s_before.Eval.combinations)

let test_push_search_through_union () =
  let db = Fixtures.chain_db 5 in
  let reversed =
    Lera.Project (Lera.Base "EDGE", [ Lera.col 1 2; Lera.col 1 1 ])
  in
  let q =
    Lera.Search
      ( [
          Lera.Union [ Lera.Base "EDGE"; reversed ];
        ],
        Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 1)),
        [ Lera.col 1 2 ] )
  in
  let q' = Optimizer.rewrite ~program:merge_then_permute (ctx_of_db db) q in
  (match q' with
  | Lera.Union arms ->
    Alcotest.(check int) "two pushed searches" 2 (List.length arms)
  | _ -> Alcotest.failf "expected a union of searches: %a" Lera.pp q');
  Alcotest.(check bool) "same result" true
    (Relation.equal (Eval.run db q) (Eval.run db q'))

let test_push_search_through_nest () =
  let db, cat, _ = film_setup () in
  (* Figure-4 query restricted on a grouping attribute (Title): the
     restriction must slide inside the nest *)
  let q =
    translate cat
      {|SELECT Title FROM FilmActors WHERE MEMBER('Adventure', Categories)|}
  in
  let q' = Optimizer.rewrite ~program:merge_then_permute (ctx_of cat) q in
  let rec has_search_inside_nest = function
    | Lera.Nest (Lera.Search _, _, _) | Lera.Nest (Lera.Filter _, _, _) -> true
    | r -> List.exists has_search_inside_nest (Lera.inputs r)
  in
  Alcotest.(check bool)
    (Fmt.str "restriction inside the nest: %a" Lera.pp q')
    true (has_search_inside_nest q');
  Alcotest.(check bool) "same result" true
    (Relation.equal (Eval.run db q) (Eval.run db q'))

let test_split_or_to_union () =
  (* the disjuncts span different operands, so the plain select push
     cannot take the OR as a whole; distribution turns it into a union
     whose arms push independently *)
  let db = Fixtures.graph_db ~nodes:30 ~edges:120 in
  let q =
    Lera.Search
      ( [ Lera.Base "EDGE"; Lera.Base "EDGE" ],
        Lera.disj
          [
            Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 3));
            Lera.eq (Lera.col 2 2) (Lera.Cst (Value.Int 5));
          ],
        [ Lera.col 1 2; Lera.col 2 1 ] )
  in
  let q' = Optimizer.rewrite ~program:merge_then_permute (ctx_of_db db) q in
  (match q' with
  | Lera.Union arms -> Alcotest.(check int) "two arms" 2 (List.length arms)
  | _ -> Alcotest.failf "expected a union: %a" Lera.pp q');
  Alcotest.(check bool) "same result" true
    (Relation.equal (Eval.run db q) (Eval.run db q'));
  let s_before = Eval.fresh_stats () and s_after = Eval.fresh_stats () in
  ignore (Eval.run ~stats:s_before db q);
  ignore (Eval.run ~stats:s_after db q');
  Alcotest.(check bool)
    (Fmt.str "distribution pays off (%d vs %d)" s_after.Eval.combinations
       s_before.Eval.combinations)
    true
    (s_after.Eval.combinations < s_before.Eval.combinations)

let test_figure8_refer_constraint_form () =
  (* the PAPER's form of the nest rule: the split of the qualification
     into quali*/qualj* is found by the matcher enumerating partitions of
     the conjunct bag, filtered by the REFER constraint — no split method *)
  let db, cat, _ = film_setup () in
  let paper_rule =
    Rule_parser.parse_rule
      {|paper_nest_push:
        search(list(x*, nest(z, g, c), y*), and(bag(quali*, qualj*)), e)
        / refer_only(list(quali*), list(x*), g), nonempty(quali*)
        --> search(list(x*, nest(search(list(z), qi2, zp), g, c), y*), and(bag(qualj*)), e)
        / split_nest_qual(and(bag(quali*)), x*, g, qi2, junk), schema(list(z), zp) ;|}
  in
  let program =
    {
      Rule.blocks =
        [
          Rule.block "merging" (Rulesets.merging ());
          Rule.block "paper" ~limit:10 [ paper_rule ];
        ];
      rounds = 1;
    }
  in
  let q =
    translate cat
      {|SELECT Title FROM FilmActors
        WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 10000)|}
  in
  let stats = Engine.fresh_stats () in
  let q' = Optimizer.rewrite ~program ~stats (ctx_of cat) q in
  Alcotest.(check bool) "the paper-form rule fired" true
    (List.mem_assoc "paper_nest_push" (Engine.by_rule stats));
  let rec filtered_nest = function
    | Lera.Nest ((Lera.Search _ | Lera.Filter _), _, _) -> true
    | r -> List.exists filtered_nest (Lera.inputs r)
  in
  Alcotest.(check bool) "member pushed inside the nest" true (filtered_nest q');
  Alcotest.(check bool) "same result" true
    (Relation.equal (Eval.run db q) (Eval.run db q'))

let test_push_search_through_unnest () =
  let db, cat, _ = film_setup () in
  (* unnest the categories of films and restrict on the film number: the
     restriction must slide below the unnest *)
  let q =
    Lera.Search
      ( [ Lera.Unnest (Lera.Base "FILM", 3) ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 1));
            Lera.eq (Lera.col 1 3) (Lera.Cst (Value.Enum ("Category", "Comedy")));
          ],
        [ Lera.col 1 1 ] )
  in
  let q' = Optimizer.rewrite ~program:merge_then_permute (ctx_of cat) q in
  let rec filter_below_unnest = function
    | Lera.Unnest (Lera.Filter _, _) -> true
    | r -> List.exists filter_below_unnest (Lera.inputs r)
  in
  Alcotest.(check bool)
    (Fmt.str "filter below unnest: %a" Lera.pp q')
    true (filter_below_unnest q');
  Alcotest.(check bool) "same result" true
    (Relation.equal (Eval.run db q) (Eval.run db q'))

let test_negation_normalization () =
  let cat = Catalog.create () in
  let ctx = ctx_of cat in
  let program =
    {
      Rule.blocks = [ Rule.block "simplification" (Rulesets.simplification ()) ];
      rounds = 1;
    }
  in
  let check src expected =
    Alcotest.check term src
      (Rule_parser.parse_term expected)
      (Optimizer.rewrite_term ~program ctx
         (Lera_term.normalize (Rule_parser.parse_term src)))
  in
  check "not(@(1,1) < 3)" "@(1,1) >= 3";
  check "not(@(1,1) >= 3)" "@(1,1) < 3";
  check "not(@(1,1) = 3)" "@(1,1) <> 3";
  (* and negation feeds the contradiction rules *)
  Alcotest.check term "negated pair collapses" Term.fls
    (Optimizer.rewrite_term ~program ctx
       (Lera_term.normalize
          (Rule_parser.parse_term "@(1,1) < 3 AND not(@(1,1) < 3)")))

let test_adaptive_config () =
  let _, cat, _ = film_setup () in
  let simple = translate cat "SELECT Title FROM FILM WHERE Numf = 1" in
  let complex =
    translate cat
      {|SELECT Title FROM FilmActors
        WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 6000)|}
  in
  Alcotest.(check bool) "simple query is below the threshold" true
    (Optimizer.complexity simple < Optimizer.complexity complex);
  let cfg_simple = Optimizer.adaptive_config simple in
  let cfg_complex = Optimizer.adaptive_config complex in
  Alcotest.(check bool) "simple gets 0 limits" true
    (cfg_simple.Optimizer.merging_limit = Some 0);
  (match cfg_complex.Optimizer.merging_limit with
  | Some n -> Alcotest.(check bool) "complex gets scaled limits" true (n > 20)
  | None -> Alcotest.fail "complex limits should be finite")

let test_session_adaptive_flag () =
  let db, cat, _ = film_setup () in
  ignore db;
  ignore cat;
  let s = Eds.Session.create () in
  ignore (Eds.Session.exec_script s figure2_ddl);
  Eds.Session.set_adaptive s true;
  (* simple: no rewriting happens at all *)
  let plan = Eds.Session.explain s "SELECT Title FROM FILM WHERE Numf = 1" in
  Alcotest.(check int) "no rewrites on a key lookup" 0
    plan.Eds.Session.rewrite_stats.Engine.rewrites_applied;
  (* complex: rewriting happens *)
  let plan =
    Eds.Session.explain s
      {|SELECT Title FROM FilmActors WHERE MEMBER('Adventure', Categories)|}
  in
  Alcotest.(check bool) "complex query rewritten" true
    (plan.Eds.Session.rewrite_stats.Engine.rewrites_applied > 0)

(* -- Figure 9: fixpoint reduction ----------------------------------------- *)

let tc_fix base =
  Lera.Fix
    ( "TC",
      Lera.Union
        [
          base;
          Lera.Search
            ( [ Lera.Rvar "TC"; Lera.Rvar "TC" ],
              Lera.eq (Lera.col 1 2) (Lera.col 2 1),
              [ Lera.col 1 1; Lera.col 2 2 ] );
        ] )

let test_linearize_tc () =
  match Magic.linearize_tc (tc_fix (Lera.Base "EDGE")) with
  | Some (Lera.Fix ("TC", Lera.Union [ _; Lera.Search ([ a; b ], _, _) ])) ->
    Alcotest.check rel "first operand is the base" (Lera.Base "EDGE") a;
    Alcotest.check rel "second operand is the recursion" (Lera.Rvar "TC") b
  | Some r -> Alcotest.failf "unexpected linearization %a" Lera.pp r
  | None -> Alcotest.fail "linearization did not apply"

let test_linearize_preserves_semantics () =
  let db = Fixtures.graph_db ~nodes:10 ~edges:18 in
  let q = tc_fix (Lera.Base "EDGE") in
  let linear = Option.get (Magic.linearize_tc q) in
  Alcotest.(check bool) "same closure" true
    (Relation.equal (Eval.run db q) (Eval.run db linear))

let test_adornment_extraction () =
  let qual =
    Lera.conj
      [
        Lera.eq (Lera.col 1 2) (Lera.Cst (Value.Int 7));
        Lera.eq (Lera.col 2 1) (Lera.Cst (Value.Int 9));
        Lera.eq (Lera.Cst (Value.Str "x")) (Lera.col 1 1);
      ]
  in
  let bound = Magic.adornment qual ~slot:1 ~arity:2 in
  Alcotest.(check (list int)) "columns 1 and 2 bound" [ 1; 2 ] (List.map fst bound);
  Alcotest.(check (list int)) "nothing bound in slot 3" []
    (List.map fst (Magic.adornment qual ~slot:3 ~arity:2))

(* whole-query equivalence and work reduction for the magic rewrite *)
let magic_program =
  {
    Rule.blocks =
      [
        Rule.block "merging" (Rulesets.merging ());
        Rule.block "fixpoint" (Rulesets.fixpoint ());
        Rule.block "merging_again" (Rulesets.merging ());
      ];
    rounds = 1;
  }

let reachable_query ~from =
  Lera.Search
    ( [ tc_fix (Lera.Base "EDGE") ],
      Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int from)),
      [ Lera.col 1 2 ] )

let test_magic_equivalence_chain () =
  let db = Fixtures.chain_db 12 in
  let q = reachable_query ~from:8 in
  let stats = Engine.fresh_stats () in
  let q' = Optimizer.rewrite ~program:magic_program ~stats (ctx_of_db db) q in
  Alcotest.(check bool) "alexander fired" true
    (List.mem_assoc "alexander_rule" (Engine.by_rule stats));
  let before = Eval.run db q and after = Eval.run db q' in
  Alcotest.(check bool)
    (Fmt.str "same answers %a / %a" Relation.pp before Relation.pp after)
    true (Relation.equal before after);
  Alcotest.(check int) "reachable from 8 in a 12-chain" 4 (Relation.cardinality after)

let test_magic_equivalence_graph_both_adornments () =
  let db = Fixtures.graph_db ~nodes:14 ~edges:25 in
  List.iter
    (fun (slot_col, const) ->
      let q =
        Lera.Search
          ( [ tc_fix (Lera.Base "EDGE") ],
            Lera.eq (Lera.col 1 slot_col) (Lera.Cst (Value.Int const)),
            [ Lera.col 1 1; Lera.col 1 2 ] )
      in
      let q' = Optimizer.rewrite ~program:magic_program (ctx_of_db db) q in
      Alcotest.(check bool)
        (Fmt.str "adornment on column %d" slot_col)
        true
        (Relation.equal (Eval.run db q) (Eval.run db q')))
    [ (1, 3); (2, 5) ]

let test_magic_reduces_work () =
  let db = Fixtures.chain_db 40 in
  let q = reachable_query ~from:35 in
  let q' = Optimizer.rewrite ~program:magic_program (ctx_of_db db) q in
  let s_before = Eval.fresh_stats () and s_after = Eval.fresh_stats () in
  ignore (Eval.run ~stats:s_before db q);
  ignore (Eval.run ~stats:s_after db q');
  Alcotest.(check bool)
    (Fmt.str "magic cheaper: %d < %d" s_after.Eval.combinations
       s_before.Eval.combinations)
    true
    (s_after.Eval.combinations < s_before.Eval.combinations)

let test_magic_same_generation () =
  (* sg(x,y) :- flat(x,y) | up(x,z), sg(z,w), down(w,y): binding flows
     through an EDB relation, so the magic set genuinely grows *)
  let db = Database.create () in
  let schema = [ ("A", Eds_value.Vtype.Int); ("B", Eds_value.Vtype.Int) ] in
  let pairs ps = List.map (fun (a, b) -> [ Value.Int a; Value.Int b ]) ps in
  Database.add_relation db "UP"
    (Relation.make schema (pairs [ (1, 2); (2, 3); (5, 2); (6, 5) ]));
  Database.add_relation db "FLAT"
    (Relation.make schema (pairs [ (3, 4); (2, 7); (4, 4) ]));
  Database.add_relation db "DOWN"
    (Relation.make schema (pairs [ (4, 9); (7, 8); (9, 9) ]));
  let sg =
    Lera.Fix
      ( "SG",
        Lera.Union
          [
            Lera.Base "FLAT";
            Lera.Search
              ( [ Lera.Base "UP"; Lera.Rvar "SG"; Lera.Base "DOWN" ],
                Lera.conj
                  [
                    Lera.eq (Lera.col 1 2) (Lera.col 2 1);
                    Lera.eq (Lera.col 2 2) (Lera.col 3 1);
                  ],
                [ Lera.col 1 1; Lera.col 3 2 ] );
          ] )
  in
  let q =
    Lera.Search
      ( [ sg ],
        Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 1)),
        [ Lera.col 1 2 ] )
  in
  let stats = Engine.fresh_stats () in
  let q' = Optimizer.rewrite ~program:magic_program ~stats (ctx_of_db db) q in
  Alcotest.(check bool) "alexander fired on SG" true
    (List.mem_assoc "alexander_rule" (Engine.by_rule stats));
  let before = Eval.run db q and after = Eval.run db q' in
  Alcotest.(check bool)
    (Fmt.str "same answers %a vs %a" Relation.pp before Relation.pp after)
    true (Relation.equal before after)

let test_magic_not_applied_without_constants () =
  let db = Fixtures.chain_db 5 in
  let q =
    Lera.Search
      ( [ tc_fix (Lera.Base "EDGE") ],
        Lera.tru,
        [ Lera.col 1 1; Lera.col 1 2 ] )
  in
  let stats = Engine.fresh_stats () in
  ignore (Optimizer.rewrite ~program:magic_program ~stats (ctx_of_db db) q);
  Alcotest.(check bool) "alexander did not fire" false
    (List.mem_assoc "alexander_rule" (Engine.by_rule stats))

(* -- Figures 10-12: semantic rewriting and simplification ----------------- *)

let simplify_program ?(semantic = false) ?(constraints = []) cat =
  let blocks =
    (if semantic then [ Rule.block "semantic" ~limit:200 (Rulesets.semantic ()) ]
     else [])
    @ [ Rule.block "simplification" (Rulesets.simplification ()) ]
  in
  let ctx =
    Optimizer.make_ctx ~semantic_constraints:constraints (Catalog.schema_env cat)
  in
  (ctx, { Rule.blocks; rounds = 1 })

let rewrite_qual ?semantic ?constraints cat q =
  let ctx, program = simplify_program ?semantic ?constraints cat in
  let t =
    Rule_parser.parse_term q |> Lera_term.normalize
  in
  Optimizer.rewrite_term ~program ctx t

let test_contradiction_detection () =
  let cat = Catalog.create () in
  Alcotest.check term "x>y and x<=y is false" Term.fls
    (rewrite_qual cat "@(1,1) > @(1,2) AND @(1,1) <= @(1,2) AND @(1,3) = 4");
  Alcotest.check term "equal and distinct is false" Term.fls
    (rewrite_qual cat "@(1,1) = 3 AND @(1,1) <> 3");
  Alcotest.check term "swapped orientation" Term.fls
    (rewrite_qual cat "@(1,1) < @(1,2) AND @(1,2) < @(1,1)")

let test_tautology_removal () =
  let cat = Catalog.create () in
  Alcotest.check term "reflexive equality erased"
    (Rule_parser.parse_term "@(1,1) > 2")
    (rewrite_qual cat "@(1,1) = @(1,1) AND @(1,1) > 2");
  Alcotest.check term "not(not(p)) collapses"
    (Rule_parser.parse_term "@(1,1) > 2")
    (rewrite_qual cat "not(not(@(1,1) > 2))")

let test_constant_folding () =
  let cat = Catalog.create () in
  Alcotest.check term "arithmetic folds" (Term.int 7)
    (rewrite_qual cat "3 + 4");
  Alcotest.check term "comparison folds to true" Term.tru
    (rewrite_qual cat "3 < 4");
  Alcotest.check term "member folds (the §6.1 example)" Term.fls
    (rewrite_qual cat
       "member('Cartoon', {'Comedy', 'Adventure', 'Science Fiction', 'Western'})");
  Alcotest.check term "folding cascades through conjunctions" Term.fls
    (rewrite_qual cat "@(1,1) = 1 AND member(2, {3, 4})")

let test_minus_zero_rule () =
  let cat = Catalog.create () in
  Alcotest.check term "x - y = 0 becomes x = y"
    (Rule_parser.parse_term "@(1,1) = @(1,2)")
    (rewrite_qual cat "@(1,1) - @(1,2) = 0")

let test_bound_subsumption () =
  let cat = Catalog.create () in
  Alcotest.check term "weaker lower bound erased"
    (Rule_parser.parse_term "@(1,1) > 5")
    (rewrite_qual cat "@(1,1) > 5 AND @(1,1) > 3");
  Alcotest.check term "weaker upper bound erased"
    (Rule_parser.parse_term "@(1,1) < 3")
    (rewrite_qual cat "@(1,1) < 3 AND @(1,1) < 7");
  Alcotest.check term "mixed strictness" Term.fls
    (rewrite_qual cat "@(1,1) > 5 AND @(1,1) <= 5");
  Alcotest.check term "empty interval" Term.fls
    (rewrite_qual cat "@(1,1) > 7 AND @(1,1) < 3");
  Alcotest.check term "point outside bound" Term.fls
    (rewrite_qual cat "@(1,1) = 2 AND @(1,1) > 4");
  (* satisfiable intervals survive *)
  let kept = rewrite_qual cat "@(1,1) > 3 AND @(1,1) < 7" in
  Alcotest.(check bool) "open interval kept" true (not (Term.equal kept Term.fls))

let test_push_through_diff_and_inter () =
  let db = Fixtures.graph_db ~nodes:20 ~edges:60 in
  let sel = Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 3)) in
  let mk op =
    Lera.Search ([ op ], sel, [ Lera.col 1 2 ] )
  in
  let reversed = Lera.Project (Lera.Base "EDGE", [ Lera.col 1 2; Lera.col 1 1 ]) in
  List.iter
    (fun (label, op) ->
      let q = mk op in
      let q' = Optimizer.rewrite ~program:merge_then_permute (ctx_of_db db) q in
      let rec has_inner_filter = function
        | Lera.Diff (Lera.Filter _, _) | Lera.Inter (Lera.Filter _, _) -> true
        | r -> List.exists has_inner_filter (Lera.inputs r)
      in
      Alcotest.(check bool) (label ^ ": filter pushed to the kept side") true
        (has_inner_filter q');
      Alcotest.(check bool) (label ^ ": same result") true
        (Relation.equal (Eval.run db q) (Eval.run db q')))
    [
      ("difference", Lera.Diff (Lera.Base "EDGE", reversed));
      ("intersection", Lera.Inter (Lera.Base "EDGE", reversed));
    ]

let test_transitivity_enables_contradiction () =
  let cat = Catalog.create () in
  (* a < b, b < c, c < a is unsatisfiable; only transitivity exposes it *)
  let q = "@(1,1) < @(1,2) AND @(1,2) < @(1,3) AND @(1,3) < @(1,1)" in
  Alcotest.check term "cycle of < collapses to false" Term.fls
    (rewrite_qual ~semantic:true cat q);
  (* without the semantic block the contradiction is invisible *)
  let kept = rewrite_qual ~semantic:false cat q in
  Alcotest.(check bool) "without semantics it survives" true
    (not (Term.equal kept Term.fls))

let test_equality_substitution () =
  let cat = Catalog.create () in
  (* x = y and x > 3 lets y > 3 be derived; combined with y <= 3 it dies *)
  let q = "@(1,1) = @(1,2) AND @(1,1) > 3 AND @(1,2) <= 3" in
  Alcotest.check term "substitution exposes the contradiction" Term.fls
    (rewrite_qual ~semantic:true cat q)

let test_figure10_constraint_addition () =
  let _, cat, _ = film_setup () in
  (* Figure 10's Category domain + §6.1: member('Cartoon', Categories)
     becomes inconsistent *)
  let constraints = Optimizer.enum_domain_constraints (Catalog.types cat) in
  let q = translate cat "SELECT Numf FROM FILM WHERE MEMBER('Cartoon', Categories)" in
  let ctx =
    Optimizer.make_ctx ~semantic_constraints:constraints (Catalog.schema_env cat)
  in
  let program =
    {
      Rule.blocks =
        [
          Rule.block "semantic" ~limit:100 (Rulesets.semantic ());
          Rule.block "simplification" (Rulesets.simplification ());
        ];
      rounds = 1;
    }
  in
  let q' = Optimizer.rewrite ~program ctx q in
  match q' with
  | Lera.Search (_, Lera.Cst (Value.Bool false), _) -> ()
  | _ -> Alcotest.failf "inconsistency not detected: %a" Lera.pp q'

let test_enum_inconsistency_direct () =
  let _, cat, _ = film_setup () in
  (* even without constraint addition, the domain check fires on the
     qualification thanks to the not_in_domain constraint *)
  let q = translate cat "SELECT Numf FROM FILM WHERE MEMBER('Cartoon', Categories)" in
  let ctx, program = simplify_program cat in
  let q' = Optimizer.rewrite ~program ctx q in
  match q' with
  | Lera.Search (_, Lera.Cst (Value.Bool false), _) -> ()
  | _ -> Alcotest.failf "domain violation not detected: %a" Lera.pp q'

let test_declared_constraint_pipeline () =
  (* the full Figure 10 + 11 + 12 pipeline: a declared domain constraint
     on a scalar Category column, plus equality substitution and constant
     folding, expose the inconsistency of MainCat = 'Cartoon' *)
  let _, cat, _ = film_setup () in
  Catalog.apply_ddl cat
    (Parser.parse_stmt "TABLE STYLE (Numf : NUMERIC, MainCat : Category)");
  let c =
    Optimizer.parse_integrity_constraint
      "F(x) / ISA(x, Category) --> F(x) AND member(x, {'Comedy', 'Adventure', 'Science Fiction', 'Western'})"
  in
  let ctx =
    Optimizer.make_ctx ~semantic_constraints:[ c ] (Catalog.schema_env cat)
  in
  let program =
    {
      Rule.blocks =
        [
          Rule.block "semantic" ~limit:100 (Rulesets.semantic ());
          Rule.block "simplification" (Rulesets.simplification ());
        ];
      rounds = 1;
    }
  in
  (* consistent query: the constraint is added but nothing collapses *)
  let q_ok = translate cat "SELECT Numf FROM STYLE WHERE MainCat = 'Western'" in
  let stats = Engine.fresh_stats () in
  let q_ok' = Optimizer.rewrite ~program ~stats ctx q_ok in
  Alcotest.(check bool) "add_constraints fired" true
    (List.mem_assoc "add_constraints" (Engine.by_rule stats));
  (match q_ok' with
  | Lera.Search (_, Lera.Cst (Value.Bool false), _) ->
    Alcotest.fail "consistent query wrongly collapsed"
  | _ -> ());
  (* inconsistent query: 'Cartoon' violates the declared domain *)
  let q_bad = translate cat "SELECT Numf FROM STYLE WHERE MainCat = 'Cartoon'" in
  let q_bad' = Optimizer.rewrite ~program ctx q_bad in
  match q_bad' with
  | Lera.Search (_, Lera.Cst (Value.Bool false), _) -> ()
  | _ -> Alcotest.failf "inconsistency not exposed: %a" Lera.pp q_bad'

let test_trace_records_applications () =
  let _, cat, _ = film_setup () in
  let q = translate cat "SELECT Title FROM FILM WHERE Numf = 1 AND 2 < 1" in
  let stats = Engine.fresh_stats () in
  ignore (Optimizer.rewrite ~stats (ctx_of cat) q);
  let steps = Engine.steps stats in
  Alcotest.(check int) "one step per recorded rewrite"
    stats.Engine.rewrites_applied (List.length steps);
  Alcotest.(check bool) "steps name their blocks" true
    (List.for_all (fun s -> s.Engine.block_name <> "") steps);
  (* 2 < 1 must have been folded somewhere along the way *)
  Alcotest.(check bool) "const_fold traced" true
    (List.exists (fun s -> s.Engine.rule_name = "const_fold") steps)

(* -- §4.2: control ---------------------------------------------------------- *)

let test_block_limit_bounds_work () =
  let cat = Catalog.create () in
  let t = Rule_parser.parse_term "@(1,1) = 1 AND 2 = 2 AND 3 = 3 AND 4 = 4" in
  let run limit =
    let stats = Engine.fresh_stats () in
    let program =
      {
        Rule.blocks = [ { Rule.block_name = "simplify"; rules = Rulesets.simplification (); limit } ];
        rounds = 1;
      }
    in
    let t' = Optimizer.rewrite_term ~program ~stats (ctx_of cat) t in
    (t', stats)
  in
  let t0, s0 = run (Some 0) in
  ignore s0;
  Alcotest.check term "limit 0 leaves the query unchanged" (Lera_term.normalize t) t0;
  let t_inf, s_inf = run None in
  Alcotest.check term "saturation folds everything"
    (Rule_parser.parse_term "@(1,1) = 1")
    t_inf;
  Alcotest.(check bool) "conditions were counted" true
    (s_inf.Engine.conditions_checked > 0);
  (* a small limit does strictly less work than saturation *)
  let _, s_small = run (Some 3) in
  Alcotest.(check bool) "small limit checked fewer conditions" true
    (s_small.Engine.conditions_checked <= 3)

let test_seq_rounds_and_early_stop () =
  let cat = Catalog.create () in
  let t = Rule_parser.parse_term "3 + 4" in
  let program =
    {
      Rule.blocks = [ Rule.block "simplify" (Rulesets.simplification ()) ];
      rounds = 5;
    }
  in
  let stats = Engine.fresh_stats () in
  let t' = Optimizer.rewrite_term ~program ~stats (ctx_of cat) t in
  Alcotest.check term "folded" (Term.int 7) t';
  (* early stop: after the term stabilizes no further rewrites happen *)
  Alcotest.(check int) "exactly one rewrite" 1 stats.Engine.rewrites_applied

let test_same_rule_in_two_blocks () =
  (* §4.2: "the same rule may appear in different blocks" — merging runs
     before and after the fixpoint block in the default program *)
  let program = Optimizer.program () in
  let merge_blocks =
    List.filter
      (fun b ->
        List.exists (fun (r : Rule.t) -> r.Rule.name = "search_merge") b.Rule.rules)
      program.Rule.blocks
  in
  Alcotest.(check int) "search_merge present in two blocks" 2
    (List.length merge_blocks)

(* -- end to end: the default program on the paper's queries ---------------- *)

let test_default_program_figure3 () =
  let db, cat, _ = film_setup () in
  let q =
    translate cat
      {|SELECT Title, Categories, Salary(Refactor)
        FROM FILM, APPEARS_IN
        WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'Quinn'
          AND MEMBER('Adventure', Categories)|}
  in
  let q' = Optimizer.rewrite (ctx_of cat) q in
  let before = Eval.run db q and after = Eval.run db q' in
  Alcotest.(check bool) "same result" true (Relation.equal before after);
  Alcotest.(check int) "Quinn's adventure films" 1 (Relation.cardinality after)

let figure5_query =
  {|SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'|}

let test_default_program_figure5 () =
  let db, cat, _ = film_setup () in
  let q = translate cat figure5_query in
  let q' = Optimizer.rewrite (ctx_of cat) q in
  let before = Eval.run db q and after = Eval.run db q' in
  Alcotest.(check bool)
    (Fmt.str "same result: %a vs %a" Relation.pp before Relation.pp after)
    true (Relation.equal before after);
  (* Marlon dominates Quinn directly *)
  Alcotest.(check int) "one dominator of Quinn" 1 (Relation.cardinality after)

let test_default_program_figure4 () =
  let db, cat, _ = film_setup () in
  let q =
    translate cat
      {|SELECT Title FROM FilmActors
        WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 10000)|}
  in
  let q' = Optimizer.rewrite (ctx_of cat) q in
  let before = Eval.run db q and after = Eval.run db q' in
  Alcotest.(check bool) "same result" true (Relation.equal before after);
  (* Zorba (Quinn 12k + Marlon 25k) and The Wild One (Marlon) qualify *)
  Alcotest.(check int) "two films where all actors earn > 10000" 2
    (Relation.cardinality after)

let test_rewriting_never_changes_results =
  (* property: on random chain graphs, the default program preserves the
     semantics of reachability queries *)
  QCheck2.Test.make ~name:"default program preserves semantics" ~count:20
    QCheck2.Gen.(pair (int_range 3 12) (int_range 1 8))
    (fun (n, from) ->
      let db = Fixtures.chain_db n in
      let q = reachable_query ~from in
      let q' = Optimizer.rewrite (ctx_of_db db) q in
      Relation.equal (Eval.run db q) (Eval.run db q'))

let suite =
  [
    Alcotest.test_case "F7 search merging over a view" `Quick test_search_merge_flattens_composed_query;
    Alcotest.test_case "F7 merge renumbers through projection" `Quick test_merge_renumbers_through_projection;
    Alcotest.test_case "F7 union merging" `Quick test_union_merge;
    Alcotest.test_case "F7 filter/join canonicalization" `Quick test_filter_join_canonicalize;
    Alcotest.test_case "F8 select pushdown" `Quick test_push_select_to_inputs;
    Alcotest.test_case "F8 push search through union" `Quick test_push_search_through_union;
    Alcotest.test_case "F8 push search through nest" `Quick test_push_search_through_nest;
    Alcotest.test_case "F8 push search through unnest" `Quick test_push_search_through_unnest;
    Alcotest.test_case "F8 paper-form REFER constraint rule" `Quick test_figure8_refer_constraint_form;
    Alcotest.test_case "OR distribution to union" `Quick test_split_or_to_union;
    Alcotest.test_case "F12+ negation normalization" `Quick test_negation_normalization;
    Alcotest.test_case "C3 adaptive limits (§7)" `Quick test_adaptive_config;
    Alcotest.test_case "C3 session adaptive flag" `Quick test_session_adaptive_flag;
    Alcotest.test_case "F9 TC linearization" `Quick test_linearize_tc;
    Alcotest.test_case "F9 linearization preserves semantics" `Quick test_linearize_preserves_semantics;
    Alcotest.test_case "F9 adornment extraction" `Quick test_adornment_extraction;
    Alcotest.test_case "F9 magic equivalence on a chain" `Quick test_magic_equivalence_chain;
    Alcotest.test_case "F9 magic on both adornments" `Quick test_magic_equivalence_graph_both_adornments;
    Alcotest.test_case "F9 magic reduces work" `Quick test_magic_reduces_work;
    Alcotest.test_case "F9 magic on same-generation" `Quick test_magic_same_generation;
    Alcotest.test_case "F9 no constants, no magic" `Quick test_magic_not_applied_without_constants;
    Alcotest.test_case "F12 contradictions" `Quick test_contradiction_detection;
    Alcotest.test_case "F12 tautologies" `Quick test_tautology_removal;
    Alcotest.test_case "F12 constant folding" `Quick test_constant_folding;
    Alcotest.test_case "F12 minus-zero rule" `Quick test_minus_zero_rule;
    Alcotest.test_case "bound subsumption" `Quick test_bound_subsumption;
    Alcotest.test_case "push through difference/intersection" `Quick test_push_through_diff_and_inter;
    Alcotest.test_case "F11 transitivity exposes contradictions" `Quick test_transitivity_enables_contradiction;
    Alcotest.test_case "F11 equality substitution" `Quick test_equality_substitution;
    Alcotest.test_case "F10 constraint addition detects inconsistency" `Quick test_figure10_constraint_addition;
    Alcotest.test_case "F10 direct domain violation" `Quick test_enum_inconsistency_direct;
    Alcotest.test_case "F10 declared constraint pipeline" `Quick test_declared_constraint_pipeline;
    Alcotest.test_case "rewrite trace" `Quick test_trace_records_applications;
    Alcotest.test_case "C1 block limits bound work" `Quick test_block_limit_bounds_work;
    Alcotest.test_case "C1 seq rounds with early stop" `Quick test_seq_rounds_and_early_stop;
    Alcotest.test_case "C2 same rule in two blocks" `Quick test_same_rule_in_two_blocks;
    Alcotest.test_case "end-to-end Figure 3" `Quick test_default_program_figure3;
    Alcotest.test_case "end-to-end Figure 4" `Quick test_default_program_figure4;
    Alcotest.test_case "end-to-end Figure 5" `Quick test_default_program_figure5;
  ]
  @ [ QCheck_alcotest.to_alcotest test_rewriting_never_changes_results ]
