(* Tests for the Session façade: DDL/DML/query execution, error wrapping,
   plans, and the DBI extension surface. *)

module Session = Eds.Session
module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Adt = Eds_value.Adt
module Term = Eds_term.Term
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Rule = Eds_rewriter.Rule
module Optimizer = Eds_rewriter.Optimizer

let ddl =
  {|
  TYPE Color ENUMERATION OF ('Red', 'Green', 'Blue') ;
  TABLE ITEM (Idi : NUMERIC, Label : CHAR, Hue : Color, Price : NUMERIC) ;
|}

let data =
  {|
  INSERT INTO ITEM VALUES (1, 'ball', 'Red', 5) ;
  INSERT INTO ITEM VALUES (2, 'cube', 'Green', 7) ;
  INSERT INTO ITEM VALUES (3, 'cone', 'Red', 11) ;
|}

let make () =
  let s = Session.create () in
  ignore (Session.exec_script s ddl);
  ignore (Session.exec_script s data);
  s

let test_exec_results () =
  let s = Session.create () in
  (match Session.exec_string s "TABLE T (A : NUMERIC)" with
  | Session.Done -> ()
  | _ -> Alcotest.fail "DDL should report Done");
  (match Session.exec_string s "INSERT INTO T VALUES (1)" with
  | Session.Inserted 1 -> ()
  | _ -> Alcotest.fail "INSERT should report Inserted 1");
  match Session.exec_string s "SELECT A FROM T" with
  | Session.Rows rel -> Alcotest.(check int) "one row" 1 (Relation.cardinality rel)
  | _ -> Alcotest.fail "SELECT should report Rows"

let test_query_and_enum_coercion () =
  let s = make () in
  let red = Session.query s "SELECT Label FROM ITEM WHERE Hue = 'Red'" in
  Alcotest.(check int) "two red items" 2 (Relation.cardinality red);
  Alcotest.(check bool) "ball present" true
    (Relation.mem [ Value.Str "ball" ] red)

let test_insert_set_semantics () =
  let s = make () in
  (match Session.exec_string s "INSERT INTO ITEM VALUES (1, 'ball', 'Red', 5)" with
  | Session.Inserted 1 -> ()
  | _ -> Alcotest.fail "insert reported");
  Alcotest.(check int) "duplicate not duplicated" 3
    (Relation.cardinality (Session.query s "SELECT Idi FROM ITEM"))

let test_errors_are_wrapped () =
  let s = make () in
  let fails input =
    try
      ignore (Session.exec_string s input);
      false
    with Session.Session_error _ -> true
  in
  Alcotest.(check bool) "parse error" true (fails "SELEC oops");
  Alcotest.(check bool) "unknown table" true (fails "SELECT A FROM NOPE");
  Alcotest.(check bool) "unknown column" true (fails "SELECT Nope FROM ITEM");
  Alcotest.(check bool) "wrong insert arity" true
    (fails "INSERT INTO ITEM VALUES (1, 'x')");
  Alcotest.(check bool) "insert into unknown table" true
    (fails "INSERT INTO NOPE VALUES (1)");
  Alcotest.(check bool) "query on DDL" true
    (try
       ignore (Session.query s "TABLE U (A : NUMERIC)");
       false
     with Session.Session_error _ -> true)

let test_explain_plans () =
  let s = make () in
  (* the constant expression gives the rewriter visible work even on a
     single-table query (folding); plain single-table selections are
     deliberately left alone *)
  let plan = Session.explain s "SELECT Label FROM ITEM WHERE Price > 3 + 3" in
  Alcotest.(check bool) "translated is a single search" true
    (match plan.Session.translated with Lera.Search _ -> true | _ -> false);
  Alcotest.(check bool) "rewriting did something" true
    (plan.Session.rewrite_stats.Eds_rewriter.Engine.rewrites_applied > 0);
  (* plans evaluate to the same relation *)
  let r1 = Session.run_plan s plan.Session.translated in
  let r2 = Session.run_plan s plan.Session.rewritten in
  Alcotest.(check bool) "equivalent" true (Relation.equal r1 r2)

let test_rewriting_toggle () =
  let s = make () in
  Session.set_rewriting s false;
  let plan = Session.explain s "SELECT Label FROM ITEM WHERE Price > 3 + 3" in
  Alcotest.(check bool) "no rewriting" true
    (Lera.equal plan.Session.translated plan.Session.rewritten);
  Session.set_rewriting s true;
  let plan = Session.explain s "SELECT Label FROM ITEM WHERE Price > 3 + 3" in
  Alcotest.(check bool) "rewriting back on" false
    (Lera.equal plan.Session.translated plan.Session.rewritten)

let test_config_zero_disables_blocks () =
  let s = make () in
  Session.set_config s Optimizer.zero_config;
  let plan = Session.explain s "SELECT Label FROM ITEM WHERE 1 = 2" in
  Alcotest.(check bool) "limits 0: query unchanged" true
    (Lera.equal plan.Session.translated plan.Session.rewritten)

let test_enum_domains_and_constraints () =
  let s = make () in
  Session.use_enum_domains s;
  let plan = Session.explain s "SELECT Label FROM ITEM WHERE Hue = 'Purple'" in
  Alcotest.(check bool) "impossible hue detected" true
    (Lera.obviously_empty plan.Session.rewritten);
  Alcotest.(check int) "and returns nothing" 0
    (Relation.cardinality (Session.query s "SELECT Label FROM ITEM WHERE Hue = 'Purple'"))

let test_declared_constraint () =
  let s = make () in
  Session.add_integrity_constraint s
    "F(x) / ISA(x, Color) --> F(x) AND member(x, {'Red', 'Green', 'Blue'})";
  let plan = Session.explain s "SELECT Label FROM ITEM WHERE Hue = 'Mauve'" in
  Alcotest.(check bool) "declared constraint detects" true
    (Lera.obviously_empty plan.Session.rewritten)

let test_user_rule_block () =
  let s = make () in
  (* prices are known to be under 1000 in this shop *)
  Session.add_rules s ~block:"shop" "cheap: @(1,4) < 1000 --> true ;";
  let plan =
    Session.explain s "SELECT Label FROM ITEM WHERE Price < 1000 AND Hue = 'Red'"
  in
  let rec no_price_conjunct rel =
    match rel with
    | Lera.Search (inputs, q, _) ->
      List.for_all no_price_conjunct inputs
      && List.for_all
           (fun c ->
             match c with
             | Lera.Call ("<", [ Lera.Col _; Lera.Cst (Value.Int 1000) ]) -> false
             | _ -> true)
           (Lera.conjuncts q)
    | Lera.Filter (r, q) ->
      no_price_conjunct r
      && List.for_all
           (fun c ->
             match c with
             | Lera.Call ("<", [ Lera.Col _; Lera.Cst (Value.Int 1000) ]) -> false
             | _ -> true)
           (Lera.conjuncts q)
    | _ -> true
  in
  Alcotest.(check bool) "redundant conjunct erased" true
    (no_price_conjunct plan.Session.rewritten);
  Alcotest.(check int) "results unchanged" 2
    (Relation.cardinality
       (Session.query s "SELECT Label FROM ITEM WHERE Price < 1000 AND Hue = 'Red'"))

let test_register_function () =
  let s = make () in
  Session.register_function s
    {
      Adt.name = "double";
      arity = Some 1;
      arg_types = [ Vtype.Real ];
      result_type = Vtype.Real;
      properties = [];
      impl =
        (function
        | [ v ] -> Value.Real (2. *. Value.as_float v)
        | _ -> invalid_arg "double");
    };
  Alcotest.(check int) "usable in queries" 1
    (Relation.cardinality (Session.query s "SELECT Label FROM ITEM WHERE double(Price) > 15"));
  (* and in constant folding *)
  let plan = Session.explain s "SELECT Label FROM ITEM WHERE Price > double(4)" in
  let rec has_folded rel =
    match rel with
    | Lera.Search (inputs, q, _) ->
      List.exists has_folded inputs
      || List.exists
           (fun c ->
             match c with
             | Lera.Call (">", [ _; Lera.Cst (Value.Real 8.) ]) -> true
             | _ -> false)
           (Lera.conjuncts q)
    | Lera.Filter (r, q) ->
      has_folded r
      || List.exists
           (fun c ->
             match c with
             | Lera.Call (">", [ _; Lera.Cst (Value.Real 8.) ]) -> true
             | _ -> false)
           (Lera.conjuncts q)
    | _ -> false
  in
  Alcotest.(check bool) "double(4) folded to 8" true
    (has_folded plan.Session.rewritten)

let test_register_method_and_rule () =
  let s = make () in
  Session.register_method s "always_fail" (fun _ _ _ _ -> None);
  Session.add_rules s ~block:"custom" "never: @(1,4) > k --> false / always_fail(k) ;";
  (* the method vetoes, so the rule never applies *)
  Alcotest.(check int) "rule vetoed by method" 2
    (Relation.cardinality (Session.query s "SELECT Label FROM ITEM WHERE Price > 6"))

let test_delete () =
  let s = make () in
  (match Session.exec_string s "DELETE FROM ITEM WHERE Hue = 'Red'" with
  | Session.Deleted 2 -> ()
  | Session.Deleted n -> Alcotest.failf "deleted %d" n
  | _ -> Alcotest.fail "expected Deleted");
  Alcotest.(check int) "one left" 1
    (Relation.cardinality (Session.query s "SELECT Idi FROM ITEM"));
  (match Session.exec_string s "DELETE FROM ITEM" with
  | Session.Deleted 1 -> ()
  | _ -> Alcotest.fail "unconditional delete");
  Alcotest.(check int) "empty" 0
    (Relation.cardinality (Session.query s "SELECT Idi FROM ITEM"))

let test_update () =
  let s = make () in
  (match
     Session.exec_string s "UPDATE ITEM SET Price = Price + 10 WHERE Hue = 'Red'"
   with
  | Session.Updated 2 -> ()
  | Session.Updated n -> Alcotest.failf "updated %d" n
  | _ -> Alcotest.fail "expected Updated");
  let expensive = Session.query s "SELECT Label FROM ITEM WHERE Price > 12" in
  Alcotest.(check int) "both red items now above 12" 2
    (Relation.cardinality expensive);
  (* multi-column update with enum coercion in the qualification *)
  (match
     Session.exec_string s
       "UPDATE ITEM SET Label = 'sold', Price = 0 WHERE Idi = 2"
   with
  | Session.Updated 1 -> ()
  | _ -> Alcotest.fail "expected Updated 1");
  Alcotest.(check bool) "label rewritten" true
    (Relation.mem [ Value.Str "sold" ]
       (Session.query s "SELECT Label FROM ITEM WHERE Idi = 2"));
  (* errors *)
  Alcotest.(check bool) "unknown column rejected" true
    (try
       ignore (Session.exec_string s "UPDATE ITEM SET Nope = 1");
       false
     with Session.Session_error _ -> true)

let test_recursive_view_through_session () =
  let s = Session.create () in
  ignore
    (Session.exec_script s
       {|
       TABLE PARENT (Kid : CHAR, Elder : CHAR) ;
       INSERT INTO PARENT VALUES ('ann', 'bob') ;
       INSERT INTO PARENT VALUES ('bob', 'cal') ;
       INSERT INTO PARENT VALUES ('cal', 'dot') ;
       CREATE VIEW ANCESTOR (Kid, Elder) AS
         ( SELECT Kid, Elder FROM PARENT
           UNION
           SELECT A1.Kid, A2.Elder FROM ANCESTOR A1, ANCESTOR A2
           WHERE A1.Elder = A2.Kid ) ;
     |});
  let r = Session.query s "SELECT Elder FROM ANCESTOR WHERE Kid = 'ann'" in
  Alcotest.(check int) "ann has three ancestors" 3 (Relation.cardinality r);
  Alcotest.(check bool) "dot reached" true (Relation.mem [ Value.Str "dot" ] r)

let test_aggregates_end_to_end () =
  let s = Session.create () in
  ignore
    (Session.exec_script s
       {|
       TABLE SALE (Day : CHAR, Amount : NUMERIC) ;
       INSERT INTO SALE VALUES ('mon', 10) ;
       INSERT INTO SALE VALUES ('mon', 25) ;
       INSERT INTO SALE VALUES ('tue', 5) ;
     |});
  let counts =
    Session.query s
      "SELECT Day, cardinality(MakeSet(Amount)) FROM SALE GROUP BY Day"
  in
  Alcotest.(check bool) "mon has two sales" true
    (Relation.mem [ Value.Str "mon"; Value.Int 2 ] counts);
  Alcotest.(check bool) "tue has one" true
    (Relation.mem [ Value.Str "tue"; Value.Int 1 ] counts);
  (* SQL-style SUM/MAX, spelled as collection functions over the nest *)
  let sums =
    Session.query s
      "SELECT Day, sum(MakeSet(Amount)), max(MakeSet(Amount)) FROM SALE GROUP BY Day"
  in
  Alcotest.(check bool) "mon sums to 35, max 25" true
    (Relation.mem [ Value.Str "mon"; Value.Int 35; Value.Int 25 ] sums);
  (* a quantified aggregate: days where every sale is at least 10 *)
  let all_big =
    Session.query s
      "SELECT Day, ALL (MakeSet(Amount) >= 10) FROM SALE GROUP BY Day"
  in
  Alcotest.(check bool) "mon all >= 10" true
    (Relation.mem [ Value.Str "mon"; Value.Bool true ] all_big);
  Alcotest.(check bool) "tue not" true
    (Relation.mem [ Value.Str "tue"; Value.Bool false ] all_big)

let test_having () =
  let s = Session.create () in
  ignore
    (Session.exec_script s
       {|
       TABLE SALE (Day : CHAR, Amount : NUMERIC) ;
       INSERT INTO SALE VALUES ('mon', 10) ;
       INSERT INTO SALE VALUES ('mon', 25) ;
       INSERT INTO SALE VALUES ('tue', 5) ;
       INSERT INTO SALE VALUES ('wed', 7) ;
       INSERT INTO SALE VALUES ('wed', 9) ;
     |});
  (* days with more than one sale *)
  let busy =
    Session.query s
      "SELECT Day FROM SALE GROUP BY Day HAVING cardinality(MakeSet(Amount)) > 1"
  in
  Alcotest.(check int) "two busy days" 2 (Relation.cardinality busy);
  Alcotest.(check bool) "tue filtered out" false
    (Relation.mem [ Value.Str "tue" ] busy);
  (* HAVING with a quantifier over the group *)
  let all_small =
    Session.query s
      "SELECT Day FROM SALE GROUP BY Day HAVING ALL (MakeSet(Amount) < 10)"
  in
  Alcotest.(check bool) "tue all small" true (Relation.mem [ Value.Str "tue" ] all_small);
  Alcotest.(check bool) "wed all small" true (Relation.mem [ Value.Str "wed" ] all_small);
  Alcotest.(check bool) "mon not" false (Relation.mem [ Value.Str "mon" ] all_small);
  (* HAVING without aggregates is rejected *)
  Alcotest.(check bool) "HAVING without GROUP BY rejected" true
    (try
       ignore (Session.query s "SELECT Day FROM SALE HAVING Day = 'mon'");
       false
     with Session.Session_error _ -> true)

let test_objects_through_session () =
  let s = Session.create () in
  ignore
    (Session.exec_script s
       {|
       TYPE Pet OBJECT TUPLE (Name : CHAR, Legs : NUMERIC) ;
       TABLE OWNS (Who : CHAR, Animal : Pet) ;
     |});
  let rex =
    Session.new_object s
      (Value.tuple [ ("Name", Value.Str "rex"); ("Legs", Value.Int 4) ])
  in
  Eds_engine.Database.insert (Session.database s) "OWNS" [ Value.Str "ann"; rex ];
  let r = Session.query s "SELECT Who FROM OWNS WHERE Name(Animal) = 'rex'" in
  Alcotest.(check int) "owner found via object deref" 1 (Relation.cardinality r)

(* INSERT merges one row into the sorted table and DELETE filters it in
   place: out-of-order and duplicate INSERTs, then DELETEs, must leave
   exactly the relation a full sort of the expected rows builds *)
let test_insert_delete_incremental () =
  let s = Session.create () in
  ignore (Session.exec_string s "TABLE T (K : INT, V : CHAR)");
  let insert k = ignore (Session.exec_string s (Fmt.str "INSERT INTO T VALUES (%d, 'v%d')" k (k mod 3))) in
  List.iter insert [ 9; 7; 7; 5; 9; 3; 1; 8; 2; 2 ];
  let deleted = Session.exec_string s "DELETE FROM T WHERE K > 7" in
  (match deleted with
  | Session.Deleted n -> Alcotest.(check int) "two rows deleted" 2 n
  | _ -> Alcotest.fail "expected Deleted");
  ignore (Session.exec_string s "DELETE FROM T WHERE K = 3");
  insert 4;
  let row k = [ Value.Int k; Value.Str (Fmt.str "v%d" (k mod 3)) ] in
  let got = Session.query s "SELECT K, V FROM T" in
  let table = Eds_engine.Database.relation (Session.database s) "T" in
  let expected = Relation.make table.Relation.schema (List.map row [ 7; 5; 1; 2; 4 ]) in
  Alcotest.(check bool) "stored table" true (Relation.equal expected table);
  Alcotest.(check bool) "query result" true (Relation.equal expected got);
  Alcotest.(check int) "cardinality" 5 (Relation.cardinality table);
  (* the direct database path merges the same way *)
  let db = Session.database s in
  List.iter (fun k -> Eds_engine.Database.insert db "T" (row k)) [ 6; 1; 0 ];
  Alcotest.(check bool) "Database.insert" true
    (Relation.equal
       (Relation.make table.Relation.schema (List.map row [ 7; 5; 1; 2; 4; 6; 0 ]))
       (Eds_engine.Database.relation db "T"))

let suite =
  [
    Alcotest.test_case "exec result kinds" `Quick test_exec_results;
    Alcotest.test_case "query + enum coercion" `Quick test_query_and_enum_coercion;
    Alcotest.test_case "insert set semantics" `Quick test_insert_set_semantics;
    Alcotest.test_case "insert/delete keep the table sorted" `Quick
      test_insert_delete_incremental;
    Alcotest.test_case "errors wrapped in Session_error" `Quick test_errors_are_wrapped;
    Alcotest.test_case "explain plans" `Quick test_explain_plans;
    Alcotest.test_case "rewriting toggle" `Quick test_rewriting_toggle;
    Alcotest.test_case "zero config disables rewriting" `Quick test_config_zero_disables_blocks;
    Alcotest.test_case "enum domains detect impossible values" `Quick test_enum_domains_and_constraints;
    Alcotest.test_case "declared Figure-10 constraint" `Quick test_declared_constraint;
    Alcotest.test_case "user rule in a new block" `Quick test_user_rule_block;
    Alcotest.test_case "registered ADT function" `Quick test_register_function;
    Alcotest.test_case "registered method can veto" `Quick test_register_method_and_rule;
    Alcotest.test_case "DELETE" `Quick test_delete;
    Alcotest.test_case "UPDATE" `Quick test_update;
    Alcotest.test_case "recursive view end-to-end" `Quick test_recursive_view_through_session;
    Alcotest.test_case "aggregates end-to-end" `Quick test_aggregates_end_to_end;
    Alcotest.test_case "HAVING" `Quick test_having;
    Alcotest.test_case "objects end-to-end" `Quick test_objects_through_session;
  ]
