(* Tests for the observability subsystem (Eds_obs): the JSON codec, the
   Chrome trace-event sink, the disabled-by-default guarantees, per-pass
   rewrite statistics and the rewriter's rule ledger. *)

module Obs = Eds_obs.Obs
module Json = Eds_obs.Obs.Json
module Session = Eds.Session
module Engine = Eds_rewriter.Engine
module Rule = Eds_rewriter.Rule
module Rulesets = Eds_rewriter.Rulesets
module Optimizer = Eds_rewriter.Optimizer
module Value = Eds_value.Value
module Database = Eds_engine.Database

(* every test must leave the global observability state untouched *)
let isolated f =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink None;
      Obs.reset_metrics ())
    f

(* -- JSON codec ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "rule:push_select \"quoted\"\n");
        ("ts", Json.Float 1786022096406572.);
        ("n", Json.Int (-42));
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "é" ]);
      ]
  in
  let s = Json.to_string v in
  match Json.parse s with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' ->
    Alcotest.(check string) "roundtrip identical" s (Json.to_string v');
    Alcotest.(check (option int)) "int member" (Some (-42)) (Option.bind (Json.member "n" v') Json.to_int);
    Alcotest.(check (option string))
      "unicode string survives" (Some "é")
      (match Json.member "xs" v' with
      | Some (Json.List [ _; _; s ]) -> Json.to_str s
      | _ -> None)

let test_json_parse_errors () =
  (match Json.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed object should not parse");
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated array should not parse");
  match Json.parse {|"A\n"|} with
  | Ok (Json.Str "A\n") -> ()
  | Ok j -> Alcotest.failf "unexpected escape decode: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "escape parse failed: %s" e

let test_json_float_repr () =
  (* timestamps in epoch microseconds must survive printing *)
  let big = 1786022096406572.25 in
  match Json.parse (Json.to_string (Json.Float big)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 0.)) "round-trips" big f
  | _ -> Alcotest.fail "float did not parse back"

(* -- disabled-by-default guarantees -------------------------------------- *)

let test_disabled_noop () =
  isolated @@ fun () ->
  Obs.set_sink None;
  Obs.reset_metrics ();
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  (* every tracing entry point must be callable and inert with no sink *)
  Alcotest.(check int) "span is transparent" 7 (Obs.span "s" (fun () -> 7));
  Obs.span_begin "x";
  Obs.span_end "x";
  Obs.instant "i";
  Obs.counter "c" 1.;
  Obs.histogram "h" 2.;
  (* regression: measurements are never dropped — counters and
     histograms record even with tracing off (they used to be gated on
     a sink being installed, silently losing every observation) *)
  let j = Obs.metrics () in
  let get name field =
    Option.bind (Json.member name j) (fun m ->
        Option.bind (Json.member field m) Json.to_float)
  in
  Alcotest.(check (option (float 0.))) "counter recorded without sink" (Some 1.)
    (get "c" "sum");
  Alcotest.(check (option (float 0.))) "histogram recorded without sink" (Some 2.)
    (get "h" "sum");
  let v, events = Obs.with_collector (fun () -> 9) in
  Alcotest.(check int) "collector transparent" 9 v;
  Alcotest.(check int) "no events collected when disabled" 0 (List.length events)

let test_span_balances_on_exception () =
  isolated @@ fun () ->
  let sink, get = Obs.memory_sink () in
  Obs.set_sink (Some sink);
  (try Obs.span "boom" (fun () -> failwith "no") with Failure _ -> ());
  Obs.set_sink None;
  match get () with
  | [ Obs.Begin { name = "boom"; _ }; Obs.End { name = "boom"; _ } ] -> ()
  | evs -> Alcotest.failf "expected balanced B/E, got %d events" (List.length evs)

(* -- the Chrome trace-event sink ----------------------------------------- *)

let view_stack_session ~depth =
  let s = Session.create () in
  ignore (Session.exec_string s "TABLE BASE (A : NUMERIC, B : NUMERIC, C : NUMERIC)");
  let db = Session.database s in
  for i = 1 to 30 do
    Database.insert db "BASE"
      [ Value.Int (i * 7 mod 100); Value.Int (i * 13 mod 100); Value.Int i ]
  done;
  for i = 1 to depth do
    let prev = if i = 1 then "BASE" else Fmt.str "V%d" (i - 1) in
    ignore
      (Session.exec_string s
         (Fmt.str "CREATE VIEW V%d (A, B, C) AS SELECT A, B, C FROM %s WHERE A > %d"
            i prev i))
  done;
  s

let test_trace_file_valid () =
  isolated @@ fun () ->
  let path = Filename.temp_file "eds_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  Obs.set_sink (Some (Obs.trace_sink oc));
  let s = view_stack_session ~depth:2 in
  ignore (Session.query s "SELECT A FROM V2 WHERE B > 50");
  Obs.set_sink None;
  close_out oc;
  let text = In_channel.with_open_text path In_channel.input_all in
  (* the whole file is one JSON array… *)
  let records =
    match Json.parse text with
    | Ok (Json.List rs) -> rs
    | Ok _ -> Alcotest.fail "trace file is not a JSON array"
    | Error e -> Alcotest.failf "trace file does not parse: %s" e
  in
  Alcotest.(check bool) "trace has events" true (List.length records > 0);
  (* …and each line between the brackets is a self-contained record
     (JSON-Lines style, so a truncated trace is still greppable) *)
  String.split_on_char '\n' (String.trim text)
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "[" && line <> "]" && line <> "" then begin
           let line =
             if String.length line > 0 && line.[String.length line - 1] = ','
             then String.sub line 0 (String.length line - 1)
             else line
           in
           match Json.parse line with
           | Ok (Json.Obj _) -> ()
           | _ -> Alcotest.failf "line is not a JSON object: %s" line
         end);
  let field name r = Json.member name r in
  let begins = Hashtbl.create 16 and ends = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun key ->
          if field key r = None then
            Alcotest.failf "record missing %s: %s" key (Json.to_string r))
        [ "name"; "ph"; "ts"; "pid"; "tid" ];
      let name = Option.get (Option.bind (field "name" r) Json.to_str) in
      let bump tbl =
        Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
      in
      match Option.bind (field "ph" r) Json.to_str with
      | Some "B" -> bump begins
      | Some "E" -> bump ends
      | Some ("X" | "i" | "C") -> ()
      | ph ->
        Alcotest.failf "unknown phase %s" (Option.value ~default:"<none>" ph))
    records;
  Hashtbl.iter
    (fun name b ->
      let e = Option.value ~default:0 (Hashtbl.find_opt ends name) in
      Alcotest.(check int) (Fmt.str "balanced B/E for %s" name) b e)
    begins;
  (* the pipeline phases all show up *)
  let names =
    List.filter_map (fun r -> Option.bind (field "name" r) Json.to_str) records
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (Fmt.str "%s present" expected) true
        (List.mem expected names))
    [ "parse"; "translate"; "rewrite"; "execute" ]

let test_trace_agrees_with_stats () =
  isolated @@ fun () ->
  let sink, _get = Obs.memory_sink () in
  Obs.set_sink (Some sink);
  let s = view_stack_session ~depth:3 in
  let plan = Session.explain s "SELECT A FROM V3 WHERE B > 50" in
  Obs.set_sink None;
  (* fired rule:NAME complete-events in the plan's own trace must agree
     exactly with the plan's rule ledger, per (block, rule) and summed
     per rule name *)
  let fired = Hashtbl.create 16 and fired_in = Hashtbl.create 16 in
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  List.iter
    (fun e ->
      match e with
      | Obs.Complete { name; attrs; _ }
        when String.length name > 5 && String.sub name 0 5 = "rule:" ->
        let attr key = Option.bind (List.assoc_opt key attrs) Json.to_str in
        if attr "outcome" = Some "fired" then begin
          let rule = String.sub name 5 (String.length name - 5) in
          bump fired rule;
          bump fired_in (Option.get (attr "block"), rule)
        end
      | _ -> ())
    plan.Session.trace;
  List.iter
    (fun (key, (c : Engine.rule_counts)) ->
      Alcotest.(check int) "trace fires per (block, rule)" c.Engine.fires
        (Option.value ~default:0 (Hashtbl.find_opt fired_in key)))
    (Engine.ledger_entries plan.Session.rewrite_stats.Engine.ledger);
  let by_rule = Engine.by_rule plan.Session.rewrite_stats in
  Alcotest.(check bool) "some rule fired" true (List.length by_rule > 0);
  List.iter
    (fun (rule, n) ->
      Alcotest.(check int) (Fmt.str "trace fires for %s" rule) n
        (Option.value ~default:0 (Hashtbl.find_opt fired rule)))
    by_rule;
  Alcotest.(check int) "no extra fired rules in trace" (List.length by_rule)
    (Hashtbl.length fired)

(* -- per-pass block statistics ------------------------------------------- *)

let test_per_pass_stats () =
  isolated @@ fun () ->
  let s = view_stack_session ~depth:3 in
  let cat = Session.catalog s in
  let translated =
    Eds_esql.Translate.select cat
      (Eds_esql.Parser.parse_select "SELECT A FROM V3 WHERE B > 50")
  in
  let ctx = Optimizer.make_ctx (Eds_esql.Catalog.schema_env cat) in
  let program =
    {
      Rule.blocks =
        [
          Rule.block "merging" (Rulesets.merging ());
          Rule.block "merging" (Rulesets.merging ());
        ];
      rounds = 1;
    }
  in
  let stats = Engine.fresh_stats () in
  ignore (Optimizer.rewrite ~program ~stats ctx translated);
  (* one entry per executed pass, in execution order *)
  Alcotest.(check int) "two passes recorded" 2 (List.length stats.Engine.passes);
  List.iter
    (fun (name, _) -> Alcotest.(check string) "pass name" "merging" name)
    stats.Engine.passes;
  (* the name-summed view equals the fold of the passes *)
  let per_block = Engine.per_block stats in
  Alcotest.(check (list string)) "one name-summed entry" [ "merging" ]
    (List.map fst per_block);
  let summed = List.assoc "merging" per_block in
  let fold f = List.fold_left (fun acc (_, bs) -> acc + f bs) 0 stats.Engine.passes in
  Alcotest.(check int) "conditions sum" summed.Engine.conditions
    (fold (fun bs -> bs.Engine.conditions));
  Alcotest.(check int) "rewrites sum" summed.Engine.rewrites
    (fold (fun bs -> bs.Engine.rewrites));
  Alcotest.(check int) "nodes sum" summed.Engine.nodes
    (fold (fun bs -> bs.Engine.nodes));
  (* the first pass does the merging; the second finds nothing new *)
  (match stats.Engine.passes with
  | [ (_, p1); (_, p2) ] ->
    Alcotest.(check bool) "first pass rewrites" true (p1.Engine.rewrites > 0);
    Alcotest.(check int) "second pass idle" 0 p2.Engine.rewrites
  | _ -> Alcotest.fail "expected exactly two passes");
  Alcotest.(check bool) "rewrites happened" true (summed.Engine.rewrites > 0)

(* -- the rule ledger ---------------------------------------------------- *)

let all_rules s =
  List.concat_map
    (fun b -> List.map (fun r -> (b.Rule.block_name, r.Rule.name)) b.Rule.rules)
    (Session.program s).Rule.blocks

(* the session's ledger is always on: no switch, and a single planned
   query shows up in it *)
let test_ledger_view_stack () =
  let s = view_stack_session ~depth:3 in
  let plan = Session.explain s "SELECT A FROM V3 WHERE B > 50" in
  let stats = plan.Session.rewrite_stats in
  let cells = Engine.ledger_entries (Session.rule_ledger s) in
  Alcotest.(check bool) "ledger has cells" true (List.length cells > 0);
  (* the merging rules must show nonzero fire counts on a view stack *)
  let sum f rule =
    List.fold_left
      (fun acc ((_, r), (c : Engine.rule_counts)) -> if r = rule then acc + f c else acc)
      0 cells
  in
  let fires_of = sum (fun c -> c.Engine.fires) in
  Alcotest.(check bool) "search_merge fired" true (fires_of "search_merge" > 0);
  (* fire counts agree with the plan's own statistics *)
  List.iter
    (fun (rule, n) ->
      Alcotest.(check int) (Fmt.str "ledger fires for %s" rule) n (fires_of rule))
    (Engine.by_rule stats);
  (* the global totals are the ledger's sums *)
  let total f = List.fold_left (fun acc (_, c) -> acc + f c) 0 cells in
  Alcotest.(check int) "rewrites_applied = sum of fires" stats.Engine.rewrites_applied
    (total (fun c -> c.Engine.fires));
  Alcotest.(check int) "match_attempts = sum of attempts" stats.Engine.match_attempts
    (total (fun c -> c.Engine.attempts));
  (* attempted-but-never-fired cells are flagged, per (block, rule):
     search_merge can fire in "merging" yet be dead in "merging_again" *)
  let cell_fires key =
    List.fold_left
      (fun acc (k, (c : Engine.rule_counts)) ->
        if k = key then acc + c.Engine.fires else acc)
      0 cells
  in
  let attempted_unfired = Engine.never_fired (Session.rule_ledger s) in
  List.iter
    (fun ((_, rule) as key) ->
      Alcotest.(check int) (Fmt.str "%s reported unfired" rule) 0 (cell_fires key))
    attempted_unfired;
  (* rules the program contains but never even attempted are flagged when
     the full rule list is supplied *)
  let flagged = Engine.never_fired ~all_rules:(all_rules s) (Session.rule_ledger s) in
  Alcotest.(check bool) "some rules never fired" true (List.length flagged > 0);
  (* e.g. the fixpoint rules have nothing to do on a non-recursive query *)
  Alcotest.(check bool) "alexander_rule flagged" true
    (List.exists (fun (_, r) -> r = "alexander_rule") flagged)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_ledger_report_text () =
  let s = view_stack_session ~depth:3 in
  ignore (Session.explain s "SELECT A FROM V3 WHERE B > 50");
  let report =
    Fmt.str "%a" (Engine.pp_ledger ~all_rules:(all_rules s)) (Session.rule_ledger s)
  in
  Alcotest.(check bool) "mentions search_merge" true
    (contains ~sub:"search_merge" report);
  Alcotest.(check bool) "flags dead rules" true
    (contains ~sub:"never fired" report)

(* two sessions in one process count apart: planning in one leaves the
   other's ledger empty, and a second plan adds to the first *)
let test_ledger_per_session () =
  let fires s =
    List.fold_left
      (fun acc (_, (c : Engine.rule_counts)) -> acc + c.Engine.fires)
      0
      (Engine.ledger_entries (Session.rule_ledger s))
  in
  let a = view_stack_session ~depth:3 and b = view_stack_session ~depth:3 in
  let p = Session.explain a "SELECT A FROM V3 WHERE B > 50" in
  let once = fires a in
  Alcotest.(check int) "a counts its plan" p.Session.rewrite_stats.Engine.rewrites_applied once;
  Alcotest.(check int) "b untouched" 0 (fires b);
  ignore (Session.explain a "SELECT A FROM V3 WHERE B > 50");
  Alcotest.(check int) "a accumulates" (2 * once) (fires a);
  ignore (Session.explain b "SELECT A FROM V2 WHERE B > 50");
  Alcotest.(check bool) "b counts its own" true (fires b > 0 && fires b < once);
  Alcotest.(check int) "a unchanged by b" (2 * once) (fires a);
  Session.reset_stats a;
  Alcotest.(check int) "reset zeroes a" 0 (fires a);
  Alcotest.(check int) "reset leaves no attempts" 0
    (List.length
       (List.filter
          (fun (_, (c : Engine.rule_counts)) -> c.Engine.attempts > 0)
          (Engine.ledger_entries (Session.rule_ledger a))));
  Alcotest.(check bool) "b keeps its counts" true (fires b > 0)

(* a pack added to a block twice (verifying it twice does this) leaves
   one cell per rule name: the copy that is attempted but never fires
   does not make the rule look dead, and the rule has one row *)
let test_ledger_duplicate_rule () =
  let s = view_stack_session ~depth:3 in
  Session.set_program s { Rule.blocks = []; rounds = 1 };
  let pack =
    String.concat " ;\n"
      (List.map
         (fun name -> Fmt.str "%a" Rule.pp (Rulesets.find name))
         [ "filter_to_search"; "proj_to_search"; "search_merge" ])
    ^ " ;"
  in
  Session.add_rules s ~block:"verified" pack;
  Session.add_rules s ~block:"verified" pack;
  ignore (Session.explain s "SELECT A FROM V3 WHERE B > 50");
  let ledger = Session.rule_ledger s in
  let rows =
    List.filter
      (fun (key, _) -> key = ("verified", "search_merge"))
      (Engine.ledger_entries ledger)
  in
  (match rows with
  | [ (_, c) ] -> Alcotest.(check bool) "search_merge fired" true (c.Engine.fires > 0)
  | rows -> Alcotest.failf "expected one search_merge row, got %d" (List.length rows));
  Alcotest.(check bool) "search_merge not dead" false
    (List.mem ("verified", "search_merge") (Engine.never_fired ledger));
  let report = Fmt.str "%a" (Engine.pp_ledger ?all_rules:None) ledger in
  Alcotest.(check bool) "report does not flag it" false
    (contains ~sub:"verified/search_merge" report)

(* -- metrics -------------------------------------------------------------- *)

let test_metrics_collection () =
  isolated @@ fun () ->
  Obs.enable_metrics ();
  Obs.counter "widgets" 2.;
  Obs.counter "widgets" 3.;
  Obs.histogram "latency" 10.;
  Obs.histogram "latency" 20.;
  let j = Obs.metrics () in
  let get name field =
    Option.bind (Json.member name j) (fun m ->
        Option.bind (Json.member field m) Json.to_float)
  in
  Alcotest.(check (option (float 0.))) "counter sum" (Some 5.) (get "widgets" "sum");
  Alcotest.(check (option (float 0.))) "histogram count" (Some 2.)
    (get "latency" "count");
  Alcotest.(check (option (float 0.))) "histogram max" (Some 20.)
    (get "latency" "max");
  Obs.reset_metrics ();
  match Obs.metrics () with
  | Json.Obj [] -> ()
  | j -> Alcotest.failf "reset left metrics behind: %s" (Json.to_string j)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json float repr" `Quick test_json_float_repr;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "span balances on exception" `Quick
      test_span_balances_on_exception;
    Alcotest.test_case "trace file is valid Chrome JSON" `Quick
      test_trace_file_valid;
    Alcotest.test_case "trace fire counts agree with stats" `Quick
      test_trace_agrees_with_stats;
    Alcotest.test_case "per-pass block stats" `Quick test_per_pass_stats;
    Alcotest.test_case "profile: view-stack golden" `Quick test_ledger_view_stack;
    Alcotest.test_case "profile: report text" `Quick test_ledger_report_text;
    Alcotest.test_case "profile: one ledger per session" `Quick test_ledger_per_session;
    Alcotest.test_case "metrics collection" `Quick test_metrics_collection;
    Alcotest.test_case "profile: a rule added twice has one cell" `Quick
      test_ledger_duplicate_rule;
  ]
