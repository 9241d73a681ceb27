(* The edsql REPL loop (Eds.Repl), driven end-to-end through a scripted
   conversation: a bad statement (parse error), a bad directive argument
   and a runtime evaluation error must each print a one-line [error: ...]
   and leave the session alive for the statements that follow. *)

module Session = Eds.Session
module Repl = Eds.Repl

let contains s sub =
  let n = String.length sub and k = String.length s in
  let rec at i = i + n <= k && (String.sub s i n = sub || at (i + 1)) in
  at 0

let count_occurrences s sub =
  let n = String.length sub and k = String.length s in
  let rec at i acc =
    if i + n > k then acc
    else if String.sub s i n = sub then at (i + 1) (acc + 1)
    else at (i + 1) acc
  in
  if n = 0 then 0 else at 0 0

let drive lines =
  let remaining = ref lines in
  let read_line () =
    match !remaining with
    | [] -> None
    | l :: tl ->
      remaining := tl;
      Some l
  in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let session = Session.create () in
  let final = Repl.repl ~banner:false ~ppf ~read_line session in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, final)

let test_survives_bad_statement () =
  let out, _ =
    drive
      [
        "CREATE TABLE T (A INT, B INT);";
        "INSERT INTO T VALUES (1, 2);";
        "SELECT FROM WHERE;" (* parse error *);
        "SELECT A FROM NOPE;" (* runtime error: unknown relation *);
        "SELECT A FROM T;" (* the session must still answer *);
        ".quit";
      ]
  in
  Alcotest.(check bool) "both failures reported" true
    (count_occurrences out "error:" >= 2);
  Alcotest.(check bool) "good statement after the bad ones still runs" true
    (contains out "(1 tuple)")

let test_directive_errors_kept_alive () =
  let out, _ =
    drive
      [
        ".explain not esql at all" (* Session_error inside a directive *);
        ".load /nonexistent/edsql-session" (* Sys/Storage error *);
        ".limits nonsense";
        ".help";
        ".quit";
      ]
  in
  Alcotest.(check bool) "directive failures reported" true
    (count_occurrences out "error:" >= 2);
  Alcotest.(check bool) "loop survived to .help" true
    (contains out "directives:")

let test_physical_directive () =
  let out, final =
    drive
      [
        "CREATE TABLE T (A INT, B INT);";
        "INSERT INTO T VALUES (1, 2);";
        ".physical parallel" (* retired: rejected, layer unchanged *);
        ".domains 2" (* retired with it *);
        ".physical naive";
        "SELECT A FROM T WHERE A = 1;";
        ".stats";
        ".quit";
      ]
  in
  Alcotest.(check bool) "parallel rejected with the usage line" true
    (contains out "physical layer: indexed (usage: .physical naive|indexed)");
  Alcotest.(check bool) ".domains is unknown" true
    (contains out "unknown directive .domains");
  Alcotest.(check bool) "naive layer selected" true
    (contains out "physical layer: naive");
  Alcotest.(check bool) "query ran under the naive layer" true
    (contains out "(1 tuple)");
  Alcotest.(check bool) ".stats reports the layer" true
    (contains out "physical layer   : naive");
  Alcotest.(check bool) "session really holds the layer" true
    (Session.physical final = Eds_engine.Eval.Physical.Naive)

let view_stack =
  [
    "TABLE BASE (A : NUMERIC, B : NUMERIC, C : NUMERIC);";
    "INSERT INTO BASE VALUES (10, 60, 1);";
    "INSERT INTO BASE VALUES (20, 40, 2);";
    "CREATE VIEW V1 (A, B, C) AS SELECT A, B, C FROM BASE WHERE A > 1;";
    "CREATE VIEW V2 (A, B, C) AS SELECT A, B, C FROM V1 WHERE A > 2;";
    "CREATE VIEW V3 (A, B, C) AS SELECT A, B, C FROM V2 WHERE A > 3;";
  ]

(* the rule ledger is always on: .profile and .profile report need no
   switch first, and the switch itself is gone *)
let test_profile_directive () =
  let out, _ =
    drive
      (view_stack
      @ [ "SELECT A FROM V3 WHERE B > 50;"; ".profile"; ".profile report"; ".profile on" ])
  in
  Alcotest.(check bool) "report has the header" true (contains out "attempts");
  Alcotest.(check bool) "search_merge row" true (contains out "search_merge");
  Alcotest.(check bool) "dead rules listed" true (contains out "dead rule: fixpoint/");
  Alcotest.(check bool) "search_merge is not dead" false
    (contains out "dead rule: merging/search_merge ");
  Alcotest.(check bool) "no switch" true (contains out "usage: .profile [report]")

let test_stats_reset_zeroes_ledger () =
  let out, _ =
    drive
      (view_stack
      @ [ "SELECT A FROM V3 WHERE B > 50;"; ".stats reset"; ".profile report" ])
  in
  Alcotest.(check bool) "search_merge dead again after reset" true
    (contains out "dead rule: merging/search_merge ")

(* .explain prints exactly the payload of EXPLAIN *)
let test_explain_is_explain () =
  let session = Session.create () in
  List.iter (fun stmt -> ignore (Session.exec_string session stmt)) view_stack;
  let q = "SELECT A FROM V3 WHERE B > 50" in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  ignore (Repl.dispatch ppf session (".explain " ^ q));
  Format.pp_print_flush ppf ();
  match Session.exec_string session ("EXPLAIN " ^ q) with
  | Session.Report payload -> Alcotest.(check string) "same text" payload (Buffer.contents buf)
  | _ -> Alcotest.fail "EXPLAIN did not report"

let suite =
  [
    Alcotest.test_case "bad statements don't kill the loop" `Quick
      test_survives_bad_statement;
    Alcotest.test_case "bad directives don't kill the loop" `Quick
      test_directive_errors_kept_alive;
    Alcotest.test_case ".physical selects naive|indexed" `Quick
      test_physical_directive;
    Alcotest.test_case ".profile needs no switch" `Quick test_profile_directive;
    Alcotest.test_case ".stats reset zeroes the rule ledger" `Quick
      test_stats_reset_zeroes_ledger;
    Alcotest.test_case ".explain prints the EXPLAIN payload" `Quick
      test_explain_is_explain;
  ]
