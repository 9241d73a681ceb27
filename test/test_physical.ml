(* The physical evaluation layer (Eval.Physical): the indexed hash-join
   evaluator, which runs over the relations' columns, against the naive
   cartesian reference.

   - golden cross-mode suite: on every fixture plan, Naive and Indexed
     produce Relation.equal results;
   - work bounds: the Figure-8-shaped selective join stays within a
     hash-work budget that the naive layer exceeds by orders of
     magnitude;
   - set-operation operand validation (union/diff/inter arity errors);
   - Join_plan equi-conjunct extraction;
   - a qcheck property over random schema-correct LERA plans, on the
     all-Int database and on one whose R2 mixes cells: Naive and Indexed
     agree, the indexed layer's combinations and probes never exceed the
     naive layer's combinations, and in both layers a plain run, an
     EXPLAIN ANALYZE run and a traced run (with and without the
     analysis) give the same result and the same stats, with the
     report's exclusive counters summing to those stats;
   - columnar activation: all-scalar plans take the vectorized paths
     (columnar_ops > 0), a column of mixed or boxed cells falls back for
     that column only, and an empty operand builds nothing. *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Column = Eds_engine.Column
module Eval = Eds_engine.Eval
module Join_plan = Eds_engine.Join_plan

let run ?mode ~physical db rel =
  let s = Eval.fresh_stats () in
  let r = Eval.run ?mode ~physical ~stats:s db rel in
  (r, s)

let run_both ?mode db rel =
  ( run ?mode ~physical:Eval.Physical.Naive db rel,
    run ?mode ~physical:Eval.Physical.Indexed db rel )

(* every counter except the columnar provenance *)
let stats_equal (a : Eval.stats) (b : Eval.stats) =
  a.Eval.combinations = b.Eval.combinations
  && a.Eval.tuples_read = b.Eval.tuples_read
  && a.Eval.tuples_produced = b.Eval.tuples_produced
  && a.Eval.fix_iterations = b.Eval.fix_iterations
  && a.Eval.probes = b.Eval.probes
  && a.Eval.builds = b.Eval.builds
  && a.Eval.fix_cache_hits = b.Eval.fix_cache_hits
  && a.Eval.fix_cache_misses = b.Eval.fix_cache_misses

let check_agree ?mode name db rel =
  let (rn, sn), (ri, si) = run_both ?mode db rel in
  Alcotest.(check bool) (name ^ ": results equal") true (Relation.equal rn ri);
  Alcotest.(check bool)
    (Fmt.str "%s: indexed combos %d <= naive combos %d" name si.Eval.combinations
       sn.Eval.combinations)
    true
    (si.Eval.combinations <= sn.Eval.combinations);
  Alcotest.(check bool)
    (Fmt.str "%s: probes %d <= naive combos %d" name si.Eval.probes
       sn.Eval.combinations)
    true
    (si.Eval.probes <= sn.Eval.combinations)

(* -- golden cross-mode fixtures ----------------------------------------- *)

let test_golden_film () =
  let db, _ = Fixtures.film_db () in
  let join =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN" ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.col 2 1);
            Lera.Call (">", [ Lera.Call ("salary", [ Lera.col 2 2 ]); Lera.Cst (Value.Real 10_000.) ]);
          ],
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  check_agree "film join + ADT residual" db join;
  let three_way =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN"; Lera.Base "DOMINATE" ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.col 2 1);
            Lera.eq (Lera.col 2 1) (Lera.col 3 1);
          ],
        [ Lera.col 1 2; Lera.col 3 2 ] )
  in
  check_agree "three-way join" db three_way;
  (* no equi conjunct at all: indexed falls back to cartesian *)
  let cross =
    Lera.Join
      ( Lera.Base "FILM",
        Lera.Base "APPEARS_IN",
        Lera.Call ("<", [ Lera.col 1 1; Lera.col 2 1 ]) )
  in
  check_agree "inequality join (cartesian fallback)" db cross

let tc_fix =
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

let test_golden_fixpoints () =
  let db = Fixtures.chain_db 12 in
  check_agree ~mode:Eval.Seminaive "chain closure, semi-naive" db tc_fix;
  check_agree ~mode:Eval.Naive "chain closure, naive fix" db tc_fix;
  let g = Fixtures.graph_db ~nodes:15 ~edges:40 in
  let reach =
    Lera.Search
      ( [ tc_fix ],
        Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 3)),
        [ Lera.col 1 2 ] )
  in
  check_agree "graph reachability" g reach;
  (* the two physical layers must also agree across fix modes *)
  let r1 = Eval.run ~mode:Eval.Naive ~physical:Eval.Physical.Naive db tc_fix in
  let r2 = Eval.run ~mode:Eval.Seminaive ~physical:Eval.Physical.Indexed db tc_fix in
  Alcotest.(check bool) "naive/naive = seminaive/indexed" true (Relation.equal r1 r2)

let test_golden_nest_unnest () =
  let db, _ = Fixtures.film_db () in
  let nested = Lera.Nest (Lera.Base "APPEARS_IN", [ 1 ], [ 2 ]) in
  check_agree "nest" db nested;
  check_agree "unnest of nest" db (Lera.Unnest (nested, 2));
  check_agree "diff/inter"
    db
    (Lera.Diff
       ( Lera.Project (Lera.Base "APPEARS_IN", [ Lera.col 1 1 ]),
         Lera.Inter
           ( Lera.Project (Lera.Base "FILM", [ Lera.col 1 1 ]),
             Lera.Project (Lera.Base "APPEARS_IN", [ Lera.col 1 1 ]) ) ))

(* -- the Figure-8 shape within a hash-work budget ------------------------ *)

let fig8_shape_db () =
  let db = Database.create () in
  let schema a b = [ (a, Vtype.Int); (b, Vtype.Int) ] in
  let state = ref 987654321 in
  let rng bound =
    state := (!state * 1103515245) + 12345;
    abs !state mod bound
  in
  Database.add_relation db "FILM"
    (Relation.make (schema "Numf" "X")
       (List.init 200 (fun f -> [ Value.Int (f + 1); Value.Int f ])));
  Database.add_relation db "APPEARS_IN"
    (Relation.make (schema "Numf" "Actor")
       (List.init 594 (fun i -> [ Value.Int (1 + rng 200); Value.Int i ])));
  db

let test_fig8_budget () =
  let db = fig8_shape_db () in
  (* the unrewritten selective join: constant selection still buried in
     the qualification *)
  let q =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN" ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.col 2 1);
            Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 7));
          ],
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  let (rn, sn), (ri, si) = run_both db q in
  Alcotest.(check bool) "results equal" true (Relation.equal rn ri);
  Alcotest.(check int) "naive enumerates the full product" (200 * 594)
    sn.Eval.combinations;
  Alcotest.(check bool)
    (Fmt.str "indexed hash work %d+%d within the 2000 budget" si.Eval.probes
       si.Eval.builds)
    true
    (si.Eval.probes + si.Eval.builds <= 2_000)

(* -- set-operation operand validation ------------------------------------ *)

let contains s sub =
  let n = String.length sub and k = String.length s in
  let rec at i = i + n <= k && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_setop_arity_errors () =
  let two = [ ("A", Vtype.Int); ("B", Vtype.Int) ] in
  let three = [ ("A", Vtype.Int); ("B", Vtype.Int); ("C", Vtype.Int) ] in
  let r2 = Relation.make two [ [ Value.Int 1; Value.Int 2 ] ] in
  let r3 = Relation.make three [ [ Value.Int 1; Value.Int 2; Value.Int 3 ] ] in
  let raises name f =
    Alcotest.(check bool) (name ^ " raises Invalid_argument") true
      (try
         ignore (f ());
         false
       with Invalid_argument msg ->
         (* the message names the operation and both arities *)
         contains msg name && contains msg "2 vs 3")
  in
  raises "union" (fun () -> Relation.union r2 r3);
  raises "diff" (fun () -> Relation.diff r2 r3);
  raises "inter" (fun () -> Relation.inter r2 r3);
  (* agreeing operands still work *)
  Alcotest.(check int) "union of compatible operands" 1
    (Relation.cardinality (Relation.union r2 r2))

(* -- Join_plan extraction ------------------------------------------------ *)

let test_join_plan_analyze () =
  let q =
    Lera.conj
      [
        Lera.eq (Lera.col 1 2) (Lera.col 2 1);
        Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 3));
        Lera.eq (Lera.col 2 2) (Lera.col 2 1);
        Lera.Call ("<", [ Lera.col 1 1; Lera.col 2 2 ]);
      ]
  in
  let p = Join_plan.analyze ~arities:[| 2; 2 |] q in
  Alcotest.(check int) "one equi conjunct" 1 (Join_plan.equi_count p);
  Alcotest.(check int) "three residual conjuncts" 3
    (List.length (Lera.conjuncts (Join_plan.residual p)));
  (* a col=col pair that refers outside the operand range is residual *)
  let p1 = Join_plan.analyze ~arities:[| 2 |] (Lera.eq (Lera.col 1 2) (Lera.col 2 1)) in
  Alcotest.(check bool) "out-of-range pair is not an equi" false
    (Join_plan.has_equis p1);
  (* so is one naming a column past its operand's arity *)
  let p2 = Join_plan.analyze ~arities:[| 2; 2 |] (Lera.eq (Lera.col 1 3) (Lera.col 2 1)) in
  Alcotest.(check bool) "out-of-range column is not an equi" false
    (Join_plan.has_equis p2);
  let p0 = Join_plan.analyze ~arities:[| 2; 2 |] Lera.tru in
  Alcotest.(check bool) "true has no equis" false (Join_plan.has_equis p0)

(* -- random plans: the cross-layer property ------------------------------ *)

(* the plan/instance generators now live in lib/rulelab/gen.ml so the
   rule verifier draws from the same distribution as this suite *)
module Gen = Eds_rulelab.Gen

let gen_plan = Gen.gen_plan
let print_plan = Gen.print_plan

(* Gen.db with R2 rebuilt from mixed cells: column A holds Int and Real
   cells (an Int equals the Real of the same value under Value.compare),
   column C holds Null, Bool and Int cells.  Both columns are boxed;
   column B stays typed. *)
let mixed_db () =
  let db = Gen.db () in
  let r2 = Database.relation db "R2" in
  let mix i = function
    | [ a; b; c ] ->
      let a =
        match a with
        | Value.Int n when i mod 2 = 0 -> Value.Real (float_of_int n)
        | v -> v
      in
      let c =
        match i mod 4 with
        | 0 -> Value.Null
        | 1 -> Value.Bool (i mod 3 = 0)
        | _ -> c
      in
      [ a; b; c ]
    | tup -> tup
  in
  let r2 = Relation.make r2.Relation.schema (List.mapi mix r2.Relation.tuples) in
  assert (
    Array.map Column.flavor (Relation.columns r2).Column.cols
    = Column.[| F_value; F_int; F_value |]);
  Database.add_relation db "R2" r2;
  db

(* The plain, analyzed and traced runs share one tree walker: in a fixed
   layer they must return the same relation and the very same stats
   (columnar provenance included), and the exclusive counters of the
   EXPLAIN ANALYZE report must sum to those stats.  The traced runs must
   also emit balanced [eval:] spans. *)
let observed_runs_agree db rel physical =
  let plain () = run ~physical db rel in
  let analyzed () =
    let s = Eval.fresh_stats () in
    let r, report = Eval.run_analyzed ~physical ~stats:s db rel in
    (r, s, report)
  in
  let traced f =
    let sink, events = Eds_obs.Obs.memory_sink () in
    Eds_obs.Obs.set_sink (Some sink);
    let v = Fun.protect ~finally:(fun () -> Eds_obs.Obs.set_sink None) f in
    let count pred = List.length (List.filter pred (events ())) in
    let begins =
      count (function Eds_obs.Obs.Begin { cat = "eval"; _ } -> true | _ -> false)
    and ends =
      count (function Eds_obs.Obs.End { cat = "eval"; _ } -> true | _ -> false)
    in
    (v, begins > 0 && begins = ends)
  in
  let identical (a : Eval.stats) (b : Eval.stats) =
    stats_equal a b && a.Eval.columnar_ops = b.Eval.columnar_ops
  in
  let sums_to (s : Eval.stats) report =
    let total get = Eval.fold_report (fun acc n -> acc + get n) 0 report in
    total (fun n -> n.Eval.combinations) = s.Eval.combinations
    && total (fun n -> n.Eval.tuples_read) = s.Eval.tuples_read
    && total (fun n -> n.Eval.probes) = s.Eval.probes
    && total (fun n -> n.Eval.builds) = s.Eval.builds
  in
  let r0, s0 = plain () in
  let ra, sa, report = analyzed () in
  let (rt, st), spans_t = traced plain in
  let (rat, sat, report_t), spans_at = traced analyzed in
  Relation.equal r0 ra && Relation.equal r0 rt && Relation.equal r0 rat
  && identical s0 sa && identical s0 st && identical s0 sat
  && sums_to s0 report && sums_to s0 report_t
  && spans_t && spans_at

let random_plans_agree ~name db =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:250 ~print:print_plan gen_plan
       (fun (rel, _) ->
         let db = db () in
         let (rn, sn), (ri, si) = run_both db rel in
         Relation.equal rn ri
         && si.Eval.combinations <= sn.Eval.combinations
         && si.Eval.probes <= sn.Eval.combinations
         && List.for_all
              (observed_runs_agree db rel)
              [ Eval.Physical.Naive; Eval.Physical.Indexed ]))

let test_random_plans_agree =
  random_plans_agree Gen.db
    ~name:"naive and indexed agree, observed runs too, on 250 random plans"

let test_random_plans_agree_mixed =
  random_plans_agree mixed_db
    ~name:"mixed cells: naive and indexed agree on 250 random plans"

(* -- columnar activation and representation normalization ---------------- *)

(* the vectorized paths must actually fire on all-scalar plans: a silent
   universal fallback would keep every parity test green while losing
   the whole point of the layer *)
let test_columnar_fires () =
  let db = fig8_shape_db () in
  let join =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN" ],
        Lera.eq (Lera.col 1 1) (Lera.col 2 1),
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  let check_fires name plan =
    let _, s = run ~physical:Eval.Physical.Indexed db plan in
    Alcotest.(check bool)
      (Fmt.str "%s: columnar_ops %d > 0" name s.Eval.columnar_ops)
      true
      (s.Eval.columnar_ops > 0)
  in
  check_fires "hash join" join;
  check_fires "filter"
    (Lera.Filter
       (Lera.Base "FILM", Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 7))));
  check_fires "project" (Lera.Project (Lera.Base "FILM", [ Lera.col 1 2 ]));
  check_fires "diff"
    (Lera.Diff
       ( Lera.Project (Lera.Base "APPEARS_IN", [ Lera.col 1 1 ]),
         Lera.Project (Lera.Base "FILM", [ Lera.col 1 1 ]) ));
  let tc_db = Fixtures.chain_db 12 in
  let _, s = run ~physical:Eval.Physical.Indexed tc_db tc_fix in
  Alcotest.(check bool)
    (Fmt.str "semi-naive closure: columnar_ops %d > 0" s.Eval.columnar_ops)
    true
    (s.Eval.columnar_ops > 0);
  (* Naive is the boxed oracle: its stats never count a columnar path *)
  let _, sn = run ~physical:Eval.Physical.Naive db join in
  Alcotest.(check int) "naive never goes columnar" 0 sn.Eval.columnar_ops

(* Int and Real keys: each column is typed, but of a different flavor,
   so the join boxes just its two key columns and keeps Value.compare's
   Int/Real cross-equality *)
let test_columnar_mixed_flavor () =
  let db = Database.create () in
  let num = [ ("A", Vtype.Int); ("B", Vtype.Int) ] in
  Database.add_relation db "RI"
    (Relation.make num
       (List.init 20 (fun i -> [ Value.Int i; Value.Int (i * i) ])));
  Database.add_relation db "RF"
    (Relation.make num
       (List.init 20 (fun i -> [ Value.Real (float_of_int i); Value.Int i ])));
  let join =
    Lera.Search
      ( [ Lera.Base "RI"; Lera.Base "RF" ],
        Lera.eq (Lera.col 1 1) (Lera.col 2 1),
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  check_agree "Int/Real cross-equality join" db join;
  let (_, sn), (ri, si) = run_both db join in
  Alcotest.(check int) "every Int key meets its Real twin" 20
    (Relation.cardinality ri);
  Alcotest.(check bool) "the join runs the typed kernel" true
    (si.Eval.columnar_ops > 0 && sn.Eval.columnar_ops = 0);
  check_agree "Int/Real diff" db
    (Lera.Diff
       ( Lera.Project (Lera.Base "RI", [ Lera.col 1 1 ]),
         Lera.Project (Lera.Base "RF", [ Lera.col 1 1 ]) ));
  let one = [ ("A", Vtype.Int) ] in
  let keys v = Relation.make one (List.init 20 (fun i -> [ v i ])) in
  Alcotest.(check int) "Int/Real diff is empty" 0
    (Relation.cardinality
       (Relation.diff
          (keys (fun i -> Value.Int i))
          (keys (fun i -> Value.Real (float_of_int i)))));
  (* same-flavor float keys, including the -0./NaN normal forms *)
  let dbf = Database.create () in
  Database.add_relation dbf "F1"
    (Relation.make num
       [
         [ Value.Real 0.; Value.Int 1 ];
         [ Value.Real (-0.); Value.Int 2 ];
         [ Value.Real 2.5; Value.Int 3 ];
         [ Value.Real Float.nan; Value.Int 4 ];
       ]);
  Database.add_relation dbf "F2"
    (Relation.make num
       [
         [ Value.Real (-0.); Value.Int 10 ];
         [ Value.Real 2.5; Value.Int 20 ];
         [ Value.Real Float.nan; Value.Int 30 ];
       ]);
  check_agree "float-keyed join (-0./NaN)" dbf
    (Lera.Search
       ( [ Lera.Base "F1"; Lera.Base "F2" ],
         Lera.eq (Lera.col 1 1) (Lera.col 2 1),
         [ Lera.col 1 2; Lera.col 2 2 ] ))

(* a Null in a non-key column boxes that column only: the join keyed on
   the typed column still runs the typed kernel *)
let test_null_column_join () =
  let db = Database.create () in
  let num = [ ("A", Vtype.Int); ("B", Vtype.Int) ] in
  Database.add_relation db "L"
    (Relation.make num
       (List.init 10 (fun i ->
            [ Value.Int i; (if i mod 3 = 0 then Value.Null else Value.Int i) ])));
  Database.add_relation db "R"
    (Relation.make num
       (List.init 10 (fun i ->
            [ Value.Int (i mod 5); (if i = 4 then Value.Bool true else Value.Int i) ])));
  let join =
    Lera.Search
      ( [ Lera.Base "L"; Lera.Base "R" ],
        Lera.eq (Lera.col 1 1) (Lera.col 2 1),
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  check_agree "join with Null/Bool in non-key columns" db join;
  let _, (_, si) = run_both db join in
  Alcotest.(check bool)
    (Fmt.str "typed kernel ran (columnar_ops %d)" si.Eval.columnar_ops)
    true (si.Eval.columnar_ops > 0);
  Alcotest.(check bool) "the join built an index" true (si.Eval.builds > 0)

(* an empty operand: no combination, and no index built or probed *)
let test_empty_operand_join () =
  let db = fig8_shape_db () in
  Database.add_relation db "NONE"
    (Relation.empty [ ("Numf", Vtype.Int); ("Y", Vtype.Int) ]);
  let join =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN"; Lera.Base "NONE" ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.col 2 1);
            Lera.eq (Lera.col 2 1) (Lera.col 3 1);
          ],
        [ Lera.col 1 2 ] )
  in
  check_agree "join with an empty operand" db join;
  let _, (ri, si) = run_both db join in
  Alcotest.(check int) "no rows" 0 (Relation.cardinality ri);
  Alcotest.(check int) "no builds" 0 si.Eval.builds;
  Alcotest.(check int) "no probes" 0 si.Eval.probes;
  Alcotest.(check int) "no combinations" 0 si.Eval.combinations

(* set operations re-derive the columnar layout from the result's
   content, per column: a column holding one constructor is typed, any
   other column is boxed *)
let test_union_layout_normalized () =
  let two = [ ("A", Vtype.Int); ("B", Vtype.Int) ] in
  let ri =
    Relation.make two (List.init 5 (fun i -> [ Value.Int i; Value.Int (i + 1) ]))
  in
  let re = Relation.empty two in
  let mixed = Relation.make two [ [ Value.Null; Value.Int 9 ] ] in
  let flavors r =
    Array.to_list (Array.map Column.flavor (Relation.columns r).Column.cols)
  in
  let check name want r =
    Alcotest.(check bool) name true (flavors r = want)
  in
  let ints = Column.[ F_int; F_int ] and boxed_a = Column.[ F_value; F_int ] in
  check "all-Int relation is typed" ints ri;
  check "Null column is boxed, the other stays typed" boxed_a mixed;
  check "empty ∪ typed keeps the layout" ints (Relation.union re ri);
  check "typed ∪ empty keeps the layout" ints (Relation.union ri re);
  check "typed ∪ Null boxes the Null column only" boxed_a
    (Relation.union ri mixed);
  check "Null ∖ typed keeps the boxed column" boxed_a (Relation.diff mixed ri);
  check "typed ∖ Null is typed again" ints (Relation.diff ri mixed);
  check "inter re-derives the layout" ints (Relation.inter ri ri);
  (* subset extraction preserves canonical order and the layout *)
  let sub = Relation.filteri (fun i _ -> i mod 2 = 0) ri in
  Alcotest.(check int) "filteri keeps the kept rows" 3 (Relation.cardinality sub);
  check "filteri result is typed" ints sub

let suite =
  [
    Alcotest.test_case "golden: film joins" `Quick test_golden_film;
    Alcotest.test_case "golden: fixpoints" `Quick test_golden_fixpoints;
    Alcotest.test_case "golden: nest/unnest/set ops" `Quick test_golden_nest_unnest;
    Alcotest.test_case "Fig. 8 shape within hash budget" `Quick test_fig8_budget;
    Alcotest.test_case "set-op arity validation" `Quick test_setop_arity_errors;
    Alcotest.test_case "join plan extraction" `Quick test_join_plan_analyze;
    test_random_plans_agree;
    Alcotest.test_case "columnar paths fire on qualifying plans" `Quick
      test_columnar_fires;
    Alcotest.test_case "columnar flavor gate and float keys" `Quick
      test_columnar_mixed_flavor;
    Alcotest.test_case "set ops normalize columnar layout" `Quick
      test_union_layout_normalized;
    test_random_plans_agree_mixed;
    Alcotest.test_case "Null column keeps the typed join kernel" `Quick
      test_null_column_join;
    Alcotest.test_case "empty operand builds no index" `Quick
      test_empty_operand_join;
  ]
