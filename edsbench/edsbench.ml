(* edsbench: one run of one workload against a fresh edsd.

   bash edsbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--check]

   A run is five rounds.  Each round starts edsd on an ephemeral port
   (loading the workload over the wire and warming it, timing set-up),
   drives it for S/5 seconds over two closed-loop connections, stops it
   with SIGTERM and checks the exit.  Every response is then checked
   byte for byte against an in-process Session replaying the same
   statements.  Durations are given at the speed of a reference
   computation timed between windows.  The last stdout line is the JSON
   result: end-to-end metrics with --trace 0, per-layer metrics with
   --trace 1.  See README.md. *)

module Session = Eds.Session
module Repl = Eds.Repl
module Wal = Eds.Wal
module Storage = Eds.Storage
module Client = Eds_server.Client
module Protocol = Eds_server.Protocol
module Plan_cache = Eds_server.Plan_cache
module Planner = Eds_server.Planner
module Loadtest = Eds_server.Loadtest
module Histogram = Eds_obs.Metrics.Histogram
module Json = Eds_obs.Obs.Json
module Lera = Eds_lera.Lera
module Eval = Eds_engine.Eval
module Engine = Eds_rewriter.Engine
module Optimizer = Eds_rewriter.Optimizer
module Parser = Eds_esql.Parser
module Translate = Eds_esql.Translate
module Catalog = Eds_esql.Catalog
module Ast = Eds_esql.Ast
module W = Workloads

let ping_every = 4

(* A run measures in rounds, each on a fresh server set up anew, so set-up
   and measurement alike sample the host over the whole run: a slow spell
   of the host moves one round's share of each rather than all of one. *)
let rounds = 5

(* -- clock and statistics ------------------------------------------------ *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let quantile xs q = match xs with [] -> 0. | _ -> Loadtest.percentile (sorted xs) (100. *. q)
let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b
let ms s = s *. 1000.
let us s = s *. 1e6

(* -- run directory -------------------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let run_dir = Printf.sprintf ".edsbench/run-%d" (Unix.getpid ())
let fresh_counter = ref 0

(* a database path in a fresh directory, holding a copy of [checkpoint] *)
let fresh_db checkpoint =
  incr fresh_counter;
  let dir = Filename.concat run_dir (string_of_int !fresh_counter) in
  mkdir_p dir;
  let db = Filename.concat dir "db.esql" in
  In_channel.with_open_bin checkpoint (fun ic ->
      Out_channel.with_open_bin db (fun oc -> Out_channel.output_string oc (In_channel.input_all ic)));
  db

(* -- the server process ------------------------------------------------- *)

type server = { pid : int; port : int; out : in_channel }

let live = ref []

(* "edsd: listening on 127.0.0.1:PORT (...)" *)
let port_of_banner line = Scanf.sscanf_opt line "edsd: listening on %s@:%d" (fun _ port -> port)

(* the value of a "Key: value" line of a /proc status file *)
let proc_status path key =
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:(key ^ ":") line ->
        Some (String.trim (String.sub line (String.length key + 1) (String.length line - String.length key - 1)))
    | _ -> scan ()
    | exception End_of_file -> None
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The CPUs this process may run on ("0-1", "0,2-3"). *)
let allowed_cpus () =
  match proc_status "/proc/self/status" "Cpus_allowed_list" with
  | None -> []
  | Some spec ->
      List.concat_map
        (fun part ->
          match List.map int_of_string (String.split_on_char '-' part) with
          | [ a; b ] -> List.init (b - a + 1) (fun i -> a + i)
          | cpus -> cpus)
        (String.split_on_char ',' spec)

let taskset = "/usr/bin/taskset"

(* With taskset installed, edsd, the benchmark and its helpers share the
   first CPU this process may use.  In a closed loop the client waits
   while the server works and the other way round, so sharing costs
   little, and no wake-up crosses CPUs: on a virtual machine a wake-up
   on another CPU goes through the host, and its delay swings with the
   host's load. *)
let cpu =
  match allowed_cpus () with
  | a :: _ when Sys.file_exists taskset -> Some a
  | _ | (exception _) -> None

(* [argv], run on the shared CPU *)
let pinned argv = match cpu with Some c -> taskset :: "-c" :: string_of_int c :: argv | None -> argv

let create argv ~stdin ~stdout =
  let argv = Array.of_list (pinned argv) in
  let pid = Unix.create_process argv.(0) argv stdin stdout Unix.stderr in
  live := pid :: !live;
  pid

let reap pid =
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

let pin_self () =
  Option.iter
    (fun cpu ->
      let quiet = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process taskset
          [| taskset; "-pc"; string_of_int cpu; string_of_int (Unix.getpid ()) |]
          Unix.stdin quiet Unix.stderr
      in
      Unix.close quiet;
      ignore (Unix.waitpid [] pid))
    cpu

(* While it sets up and measures, the benchmark keeps the CPU busy with
   an idle-priority spinner (SCHED_IDLE: it runs only when nothing else
   wants the CPU).  On a virtual machine a halted CPU waits for the host
   to wake it, and that host-dependent delay would otherwise land on
   round trips. *)
let chrt = "/usr/bin/chrt"

let start_spinners () =
  match cpu with
  | Some _ when Sys.file_exists chrt ->
      [ create [ chrt; "-i"; "0"; Sys.executable_name; "--spin" ] ~stdin:Unix.stdin ~stdout:Unix.stderr ]
  | _ -> []

let stop_spinners pids =
  List.iter
    (fun pid ->
      Unix.kill pid Sys.sigkill;
      reap pid)
    pids

(* -- the host's speed -------------------------------------------------------- *)

(* The host is shared, and a CPU's speed swings by up to a half from one
   few-second spell to the next.  So a helper process on the same CPU
   times a fixed reference computation between the windows of measured
   and set-up time, while edsd is idle, and the end-to-end figures are
   given at the reference speed: each window's durations are multiplied
   by [reference_s] over the mean of the two reference times around it.
   The reference is the benchmark's own code in its own small heap, so
   nothing edsd does while serving changes it, and a slower edsd still
   reads slower.  The figures as timed are printed too. *)
let reference_s = 0.010

let reference_work () =
  let h = Hashtbl.create 16 in
  for i = 0 to 10_000 do
    Hashtbl.replace h (i * 7919 mod 100_003) (string_of_int i)
  done;
  let acc = ref 0 in
  for i = 0 to 30_000 do
    match Hashtbl.find_opt h (i * 31 mod 100_003) with Some v -> acc := !acc + String.length v | None -> ()
  done;
  !acc + List.hd (List.sort compare (List.init 10_000 (fun i -> i * 7919 mod 10_007)))

(* the helper: one timed reference computation per line read *)
let reference_helper () =
  (try
     while true do
       ignore (input_line stdin);
       let t0 = now () in
       ignore (Sys.opaque_identity (reference_work ()));
       Printf.printf "%.9f\n%!" (since t0)
     done
   with End_of_file -> ());
  exit 0

type helper = { hpid : int; ask : out_channel; answer : in_channel }

let start_helper () =
  let r1, w1 = Unix.pipe ~cloexec:true () and r2, w2 = Unix.pipe ~cloexec:true () in
  let hpid = create [ Sys.executable_name; "--reference" ] ~stdin:r1 ~stdout:w2 in
  Unix.close r1;
  Unix.close w2;
  { hpid; ask = Unix.out_channel_of_descr w1; answer = Unix.in_channel_of_descr r2 }

(* the reference's time now, in seconds *)
let reference h =
  output_string h.ask "go\n";
  flush h.ask;
  float_of_string (input_line h.answer)

let stop_helper h =
  close_out h.ask;
  close_in h.answer;
  reap h.hpid

(* the factor that takes a duration timed between two reference times
   to the reference speed *)
let to_reference before after = reference_s /. ((before +. after) /. 2.)

(* Measured time is cut into windows of about [window_s], with a
   reference time taken between them (not counted). *)
let window_s = 0.25

(* -- the server process ------------------------------------------------- *)

let spawn ~edsd ~db =
  let r, w = Unix.pipe ~cloexec:true () in
  let args = (edsd :: [ "-p"; "0" ]) @ match db with Some f -> [ "--db"; f ] | None -> [] in
  let pid = create args ~stdin:Unix.stdin ~stdout:w in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec banner () =
    match input_line out with
    | line -> ( match port_of_banner line with Some p -> p | None -> banner ())
    | exception End_of_file -> failwith "edsd exited before listening"
  in
  { pid; port = banner (); out }

let peak_rss_mb pid =
  match proc_status (Printf.sprintf "/proc/%d/status" pid) "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> 0.

(* SIGTERM, then wait: a clean stop prints its shutdown line and exits 0 *)
let stop srv =
  Unix.kill srv.pid Sys.sigterm;
  let rec said_bye seen =
    match input_line srv.out with
    | line -> said_bye (seen || String.starts_with ~prefix:"edsd: shutting down" line)
    | exception End_of_file -> seen
  in
  let said_bye = said_bye false in
  close_in srv.out;
  let _, status = Unix.waitpid [] srv.pid in
  live := List.filter (( <> ) srv.pid) !live;
  status = Unix.WEXITED 0 && said_bye

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* -- the wire ------------------------------------------------------------ *)

type reply = Answer of Protocol.status * string | Lost of string

let request client line =
  match Client.request client line with
  | status, payload -> Answer (status, payload)
  | exception End_of_file -> Lost "connection dropped"
  | exception Failure msg -> Lost ("protocol error: " ^ msg)
  | exception Unix.Unix_error (e, _, _) -> Lost (Unix.error_message e)
  | exception Sys_error msg -> Lost msg

let request_ok client line =
  match request client line with
  | Answer (Protocol.Ok, payload) -> payload
  | Answer (status, payload) ->
      failwith
        (Printf.sprintf "%S answered %s: %s" line (Protocol.status_to_string status)
           (String.trim payload))
  | Lost why -> failwith (Printf.sprintf "%S: %s" line why)

(* one issued op and what came back *)
type record = { op : W.op; reply : reply; latency_s : float; window : int }

let is_ok r = match r.reply with Answer (Protocol.Ok, _) -> true | _ -> false

type conn = {
  client : Client.t;
  next : unit -> W.op;
  warm : record list;  (** the set-up's warm-up ops, in order *)
  mutable timed : record list;  (** measured ops, most recent first *)
  mutable pings : float list;
}

let issue client op =
  let t0 = now () in
  let reply = request client (W.text op) in
  { op; reply; latency_s = since t0; window = 0 }

(* Latencies come in blocks: the windows of the measured
   time, or the set-ups.  A p50 is the median of the blocks' p50s, so a
   burst of outside load moves one block rather than the result. *)
let by_window durations records =
  let per_window = Array.make (Array.length durations) [] in
  List.iter (fun r -> per_window.(r.window) <- r.latency_s :: per_window.(r.window)) records;
  Array.to_list per_window

(* A block's quantile is only as good as its samples: a p99 wants at
   least ten beyond it, and a median a few hundred, or it moves with
   which of two modes (reads that waited for a write and reads that did
   not) a handful of requests fall in.  So consecutive blocks are merged
   until each holds [min_samples] (a short last one joins the one
   before) and the median over them of their [q]-quantile is taken;
   with fewer than three merged blocks every sample is pooled. *)
let quantile_ms ~min_samples q blocks =
  let merged, last =
    List.fold_left
      (fun (merged, cur) b ->
        let cur = b @ cur in
        if List.length cur >= min_samples then (cur :: merged, []) else (merged, cur))
      ([], []) blocks
  in
  let merged =
    match (merged, last) with
    | _, [] -> merged
    | b :: rest, _ -> (last @ b) :: rest
    | [], _ -> [ last ]
  in
  if List.length merged < 3 then ms (quantile (List.concat merged) q)
  else ms (quantile (List.map (fun b -> quantile b q) merged) 0.5)

let p50_ms ?(min_samples = 500) = quantile_ms ~min_samples 0.5
let p99_ms ?(min_samples = 1000) = quantile_ms ~min_samples 0.99

(* one set-up: its time and its load's INSERT latencies, as timed and at
   the reference speed *)
type setup = { setup_s : float; inserts : float list; scaled_s : float; scaled_inserts : float list }

(* Spawn, load, open the connections and warm them.  A durable server
   loads by recovering [checkpoint] (the generated database, dumped by
   the oracle); the others get the generated statements over the wire.
   The set-up time is cut into windows with a reference time between
   them, which does not count.  Returns the server, its connections and
   the set-up's times. *)
let set_up ~edsd ~checkpoint ~reference (wl : W.t) =
  let db = Option.map fresh_db checkpoint in
  let st = ref { setup_s = 0.; inserts = []; scaled_s = 0.; scaled_inserts = [] } in
  let inserts = ref [] and before = ref (reference ()) and t0 = ref (now ()) in
  let cut () =
    let d = since !t0 in
    let r = reference () in
    let f = to_reference !before r in
    st :=
      {
        setup_s = !st.setup_s +. d;
        inserts = !inserts @ !st.inserts;
        scaled_s = !st.scaled_s +. (d *. f);
        scaled_inserts = List.map (fun l -> l *. f) !inserts @ !st.scaled_inserts;
      };
    inserts := [];
    before := r;
    t0 := now ()
  in
  let tick () = if since !t0 >= window_s then cut () in
  let srv = spawn ~edsd ~db in
  tick ();
  if db = None then begin
    let loader = Client.connect srv.port in
    List.iter
      (fun stmt ->
        let t = now () in
        ignore (request_ok loader stmt);
        if String.starts_with ~prefix:"INSERT" stmt then inserts := since t :: !inserts;
        tick ())
      wl.W.setup;
    Client.close loader
  end;
  let conns =
    List.init W.connections (fun c ->
        let client = Client.connect srv.port in
        let next = wl.W.stream c in
        let warm = List.init wl.W.warm_ops (fun _ -> issue client (next ())) in
        tick ();
        { client; next; warm; timed = []; pings = [] })
  in
  cut ();
  (srv, conns, !st)

let close_conns conns = List.iter (fun c -> Client.close c.client) conns

(* Each connection is one closed loop: its next request goes out only
   when the previous reply is in.  A dropped connection ends its loop.
   The time is cut into windows of about [window_s], with a reference
   time taken before the first and after each; returns the window
   durations and the reference times. *)
let drive conns ~seconds ~pings ~reference =
  let windows = max 1 (int_of_float (Float.round (seconds /. window_s))) in
  let window_ns = Int64.of_float (seconds /. float_of_int windows *. 1e9) in
  let loop w c =
    let deadline = Int64.add (now ()) window_ns in
    let n = ref 0 and alive = ref true in
    while !alive && Int64.compare (now ()) deadline < 0 do
      if pings && !n mod ping_every = ping_every - 1 then begin
        let t = now () in
        match request c.client "PING" with
        | Answer (Protocol.Ok, _) -> c.pings <- since t :: c.pings
        | _ -> alive := false
      end;
      let r = { (issue c.client (c.next ())) with window = w } in
      c.timed <- r :: c.timed;
      incr n;
      match r.reply with Lost _ -> alive := false | Answer _ -> ()
    done
  in
  let refs = Array.make (windows + 1) (reference ()) in
  let durations =
    Array.init windows (fun w ->
        let t0 = now () in
        List.iter Thread.join (List.map (Thread.create (loop w)) conns);
        let d = since t0 in
        refs.(w + 1) <- reference ();
        d)
  in
  List.iter (fun c -> c.timed <- List.rev c.timed) conns;
  (durations, refs)

(* -- server counters ----------------------------------------------------- *)

type server_view = { counters : Json.t; prom : string }

let server_view port =
  let admin = Client.connect port in
  Fun.protect
    ~finally:(fun () -> Client.close admin)
    (fun () ->
      let counters =
        match Json.parse (request_ok admin "METRICS") with
        | Ok j -> j
        | Error e -> failwith ("METRICS: " ^ e)
      in
      { counters; prom = request_ok admin "METRICS PROM" })

let counter v key =
  match Json.member key v.counters with
  | Some j -> Option.value (Json.to_float j) ~default:0.
  | None -> 0.

let delta v0 v1 key = counter v1 key -. counter v0 key

let no_samples = { Histogram.counts = Array.make (Array.length Histogram.bounds + 1) 0; sum = 0. }

let select_histogram v =
  match Loadtest.histogram_of_prom ~name:"eds_query_duration_seconds" ~label:"verb=\"select\"" v.prom with
  | Some h -> h
  | None -> no_samples

(* one measured round: its connections, window durations, the reference
   times around the windows, the server's peak RSS, and with tracing the
   server counters before and after *)
type round = {
  conns : conn list;
  durations : float array;
  refs : float array;
  rss_mb : float;
  views : (server_view * server_view) option;
}

(* -- the oracle ----------------------------------------------------------- *)

let render result =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Repl.print_result ppf result;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let load_session session (wl : W.t) =
  List.iter (fun stmt -> ignore (Session.exec_string session stmt)) wl.W.setup

(* Replay every connection's statements, in its own order, through a
   local Session and compare each reply byte for byte.  Connections
   write only their own tables and read-only shared ones, so replaying
   the connections one after another gives every reply its expected
   payload.  Every round sends each connection's stream from its start
   to a fresh server, so the i-th op of a connection expects the same
   reply in every round: the oracle replays the longest round once.
   Without writes, a text's payload never changes: memoize. *)
let verify (wl : W.t) session rounds =
  let memo = Hashtbl.create 64 in
  let expected op =
    let run () = render (Session.exec_string session (W.text op)) in
    match op with
    | W.Read text when not wl.W.durable -> (
        match Hashtbl.find_opt memo text with
        | Some p -> p
        | None ->
            let p = run () in
            Hashtbl.add memo text p;
            p)
    | _ -> run ()
  in
  let failures = ref 0 and attempted = ref 0 in
  List.iteri
    (fun c _ ->
      let runs = List.map (fun conns -> let k = List.nth conns c in k.warm @ k.timed) rounds in
      let longest = List.fold_left (fun a r -> if List.length r > List.length a then r else a) [] runs in
      (* the oracle runs every statement, whatever came back *)
      let wants = Array.of_list (List.map (fun r -> (r.op, expected r.op)) longest) in
      List.iter
        (List.iteri (fun i r ->
          incr attempted;
          let op, want = wants.(i) in
          match r.reply with
          | Answer (Protocol.Ok, payload) when payload = want && r.op = op -> ()
          | reply ->
              incr failures;
              if !failures <= 3 then
                Printf.eprintf "edsbench: mismatch on %S: got %S, expected %S\n%!" (W.text r.op)
                  (match reply with
                  | Answer (s, p) -> Protocol.status_to_string s ^ " " ^ p
                  | Lost why -> why)
                  want))
        runs)
    (List.hd rounds);
  (!attempted, !failures)

(* -- the traced in-process replay ------------------------------------------ *)

(* A span: one call into one layer's public function.  Spans of one
   request share [req]; [parent] is the enclosing span's index (-1 for
   the request itself). *)
type span = { name : string; req : int; parent : int; t0 : int64; mutable t1 : int64 }

type tracer = { on : bool; mutable spans : span list; mutable n : int; mutable current : int; mutable req : int }

let tracer on = { on; spans = []; n = 0; current = -1; req = 0 }

let span tr name f =
  if not tr.on then f ()
  else begin
    let s = { name; req = tr.req; parent = tr.current; t0 = now (); t1 = 0L } in
    let id = tr.n in
    tr.spans <- s :: tr.spans;
    tr.n <- id + 1;
    tr.current <- id;
    let finish () =
      s.t1 <- now ();
      tr.current <- s.parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Work counted by the replay: rewriter and evaluator stats per request,
   plus the plans needed for the cost-model check. *)
type work = {
  mutable reads : int;
  mutable writes : int;
  mutable misses : int;
  mutable translated_ops : int;
  mutable ops_after : int;
  rewrite : Engine.stats;
  eval : Eval.stats;
  mutable rows_out : int;
  mutable evaluated : (Lera.rel * int) list;  (** plan, measured combinations *)
}

let fresh_work () =
  {
    reads = 0;
    writes = 0;
    misses = 0;
    translated_ops = 0;
    ops_after = 0;
    rewrite = Engine.fresh_stats ();
    eval = Eval.fresh_stats ();
    rows_out = 0;
    evaluated = [];
  }

let add_rewrite (into : Engine.stats) (s : Engine.stats) =
  into.conditions_checked <- into.conditions_checked + s.conditions_checked;
  into.rewrites_applied <- into.rewrites_applied + s.rewrites_applied;
  into.nodes_visited <- into.nodes_visited + s.nodes_visited;
  into.match_attempts <- into.match_attempts + s.match_attempts;
  into.index_hits <- into.index_hits + s.index_hits;
  into.index_misses <- into.index_misses + s.index_misses;
  into.schema_hits <- into.schema_hits + s.schema_hits;
  into.schema_misses <- into.schema_misses + s.schema_misses;
  into.passes <- into.passes @ s.passes

type replica = {
  session : Session.t;
  cache : Lera.rel Plan_cache.t;
  wal : Wal.Manager.handle option;
}

(* A replica is set up the way edsd sets itself up: durable workloads
   recover an (empty) database, so writes log through the same WAL
   manager and fsync policy. *)
let replica (wl : W.t) ~checkpoint =
  let session, wal =
    match checkpoint with
    | Some dump ->
        let session, handle, _ = Wal.Manager.recover ~sync:true ~db:(fresh_db dump) () in
        (session, Some handle)
    | None ->
        let session = Session.create () in
        load_session session wl;
        (session, None)
  in
  { session; cache = Plan_cache.create ~capacity:256; wal }

(* Serve one op the way edsd does, calling each layer's public function
   in turn: plan-cache lookup, then on a miss parse, translate and
   rewrite, then evaluation against a snapshot and rendering; writes run
   through Session.exec_string and the WAL. *)
let serve tr work rep op =
  let s = rep.session in
  span tr (match op with W.Read _ -> "request.read" | W.Write _ -> "request.write") (fun () ->
      match op with
      | W.Read text ->
          work.reads <- work.reads + 1;
          let plan =
            span tr "planner.plan" (fun () ->
                let key = Planner.normalize text in
                match span tr "plan_cache.lookup" (fun () -> Plan_cache.find rep.cache key) with
                | Some plan -> plan
                | None ->
                    work.misses <- work.misses + 1;
                    let sel =
                      match span tr "esql.parse" (fun () -> Parser.parse_stmt text) with
                      | Ast.Select_stmt sel -> sel
                      | _ -> failwith ("not a SELECT: " ^ text)
                    in
                    let translated =
                      span tr "esql.translate" (fun () -> Translate.select (Session.catalog s) sel)
                    in
                    let stats = Engine.fresh_stats () in
                    let plan =
                      span tr "rewriter.rewrite" (fun () ->
                          Optimizer.rewrite ~program:(Session.program s) ~stats
                            (Optimizer.make_ctx (Catalog.schema_env (Session.catalog s)))
                            translated)
                    in
                    work.translated_ops <- work.translated_ops + Lera.operator_count translated;
                    add_rewrite work.rewrite stats;
                    span tr "plan_cache.add" (fun () -> Plan_cache.add rep.cache key plan);
                    plan)
          in
          let stats = Eval.fresh_stats () in
          let rel =
            span tr "engine.eval" (fun () ->
                Session.run_plan ~stats ~db:(Session.snapshot_db s) s plan)
          in
          Eval.add_stats work.eval stats;
          work.ops_after <- work.ops_after + Lera.operator_count plan;
          work.rows_out <- work.rows_out + Session.Relation.cardinality rel;
          work.evaluated <- (plan, stats.Eval.combinations) :: work.evaluated;
          span tr "eds.render" (fun () -> render (Session.Rows rel))
      | W.Write text ->
          work.writes <- work.writes + 1;
          let result = span tr "eds.dml" (fun () -> Session.exec_string s text) in
          Option.iter (fun h -> span tr "wal.log" (fun () -> Wal.Manager.log h text)) rep.wal;
          span tr "eds.render" (fun () -> render result))

(* the measured ops of both connections, alternating *)
let merged conns =
  let rec go acc = function
    | [] -> List.rev acc
    | lists ->
        let heads = List.filter_map (function [] -> None | r :: _ -> Some r) lists in
        let tails = List.filter_map (function [] -> None | _ :: t -> Some t) lists in
        go (List.rev_append heads acc) (List.filter (( <> ) []) tails)
  in
  go [] (List.map (fun c -> c.timed) conns)

type pass = { ops : int; elapsed_s : float; tr : tracer; work : work; mismatches : int }

(* Replay warm-up ops untimed, then timed ops until [limit] ops or
   [budget_s] seconds; compare each payload with the server's. *)
let replay (wl : W.t) ~checkpoint conns ~trace ~limit ~budget_s =
  let rep = replica wl ~checkpoint in
  let tr = tracer trace and work = fresh_work () and mismatches = ref 0 in
  let check r payload =
    match r.reply with
    | Answer (Protocol.Ok, p) when p = payload -> ()
    | _ -> incr mismatches
  in
  List.iter (fun c -> List.iter (fun r -> check r (serve (tracer false) (fresh_work ()) rep r.op)) c.warm) conns;
  let t0 = now () in
  let ops = ref 0 in
  let rec go = function
    | r :: rest when !ops < limit && since t0 < budget_s ->
        tr.req <- !ops;
        check r (serve tr work rep r.op);
        incr ops;
        go rest
    | _ -> ()
  in
  go (merged conns);
  let elapsed_s = since t0 in
  Option.iter Wal.Manager.close rep.wal;
  (* the cost model is checked after the clock stops *)
  let q_errors =
    List.map
      (fun (plan, actual) ->
        let est = Float.max 1. (Session.estimate rep.session plan).Eds_lera.Cost.cost in
        let act = Float.max 1. (float_of_int actual) in
        Float.max (est /. act) (act /. est))
      work.evaluated
  in
  work.evaluated <- [];
  ({ ops = !ops; elapsed_s; tr; work; mismatches = !mismatches }, q_errors)

(* Self time of every span: its duration minus its children's.  Returns
   per-name self sums, per-name duration sums, and the worst gap between
   a request's span and the sum of its spans' self times. *)
let self_times tr =
  let spans = Array.of_list (List.rev tr.spans) in
  let dur (s : span) = Int64.sub s.t1 s.t0 in
  let child_time = Array.make (Array.length spans) 0L in
  Array.iter
    (fun (s : span) ->
      if s.parent >= 0 then child_time.(s.parent) <- Int64.add child_time.(s.parent) (dur s))
    spans;
  let add tbl k v = Hashtbl.replace tbl k (Int64.add v (Option.value (Hashtbl.find_opt tbl k) ~default:0L)) in
  let selfs = Hashtbl.create 16 and totals = Hashtbl.create 16 in
  let req_span = Hashtbl.create 1024 and req_selfs = Hashtbl.create 1024 in
  Array.iteri
    (fun i (s : span) ->
      let self = Int64.sub (dur s) child_time.(i) in
      add selfs s.name self;
      add totals s.name (dur s);
      add req_selfs s.req self;
      if s.parent < 0 then add req_span s.req (dur s))
    spans;
  let worst_gap =
    Hashtbl.fold
      (fun req total acc ->
        let sum = Option.value (Hashtbl.find_opt req_selfs req) ~default:0L in
        max acc (Int64.to_int (Int64.abs (Int64.sub total sum))))
      req_span 0
  in
  let get tbl name = Int64.to_float (Option.value (Hashtbl.find_opt tbl name) ~default:0L) /. 1e9 in
  (get selfs, get totals, worst_gap)

let write_spans path tr =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Printf.fprintf oc "req\tspan\tparent\tname\tstart_ns\tend_ns\n";
  List.iteri
    (fun i (s : span) -> Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.req i s.parent s.name s.t0 s.t1)
    (List.rev tr.spans);
  close_out oc

(* -- output --------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-44s %16.6f %s\n" name v unit) metrics;
  let fields =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed (String.concat ", " fields)

(* -- metrics ---------------------------------------------------------------- *)

let is_read r = match r.op with W.Read _ -> true | W.Write _ -> false
let latencies rs = List.map (fun r -> r.latency_s) rs

(* What a client sees, from the untraced run: every window of every
   round is a block.  With [scaled], every duration is taken to the
   reference speed. *)
let end_to_end (wl : W.t) ~scaled setups rounds =
  let scales rd =
    Array.init (Array.length rd.durations) (fun w ->
        if scaled then to_reference rd.refs.(w) rd.refs.(w + 1) else 1.)
  in
  let blocks keep =
    List.concat_map
      (fun rd ->
        let f = scales rd in
        List.mapi
          (fun w b -> List.map (fun l -> l *. f.(w)) b)
          (by_window rd.durations (List.filter keep (List.concat_map (fun c -> c.timed) rd.conns))))
      rounds
  in
  let durations =
    List.concat_map (fun rd -> Array.to_list (Array.map2 ( *. ) rd.durations (scales rd))) rounds
  in
  let qps = List.map2 (fun d b -> float_of_int (List.length b) /. d) durations (blocks is_ok) in
  let read_blocks = blocks (fun r -> is_ok r && is_read r) in
  (* read-only workloads issue no writes while measured: their write
     latencies are the set-ups' single-row INSERTs, a block per set-up *)
  let write_blocks =
    if wl.W.durable then blocks (fun r -> is_ok r && not (is_read r))
    else List.map (fun st -> if scaled then st.scaled_inserts else st.inserts) setups
  in
  (* a set-up is one unit of work: its quantiles count even when short *)
  let min_samples = if wl.W.durable then None else Some 1 in
  [
    ("qps", "1/s", quantile qps 0.5);
    ("read_p50_ms", "ms", p50_ms read_blocks);
    ("read_p99_ms", "ms", p99_ms read_blocks);
    ("write_p50_ms", "ms", p50_ms ?min_samples write_blocks);
    ("write_p99_ms", "ms", p99_ms ?min_samples write_blocks);
    ("setup_s", "s", quantile (List.map (fun st -> if scaled then st.scaled_s else st.setup_s) setups) 0.5);
    ("server_rss_mb", "MB", quantile (List.map (fun rd -> rd.rss_mb) rounds) 0.5);
  ]

(* The traced run: server counters and transport out of process, summed
   over the rounds, then the in-process replay of the first round's
   streams with its spans and work counts.  Returns the metrics and
   whether the replay held up (layer sums, agreement with the server,
   and with [check] the workload-shape checks). *)
let per_layer (wl : W.t) ~checkpoint ~seconds ~check rounds =
  let all_conns = List.concat_map (fun rd -> rd.conns) rounds in
  let timed = List.concat_map (fun c -> c.timed) all_conns in
  let ok = List.filter is_ok timed in
  let reads, writes = List.partition is_read ok in
  let views = List.filter_map (fun rd -> rd.views) rounds in
  let d key = List.fold_left (fun acc (before, after) -> acc +. delta before after key) 0. views in
  let reqs = float_of_int (List.length timed) and nwrites = float_of_int (List.length writes) in
  let service =
    List.fold_left
      (fun acc (before, after) -> Histogram.merge acc (Histogram.sub (select_histogram after) (select_histogram before)))
      no_samples views
  in
  let service_mean = ratio service.Histogram.sum (float_of_int (Histogram.count service)) in
  let pings = List.concat_map (fun c -> c.pings) all_conns in
  let client_mean = mean (latencies reads) and ping_mean = mean pings in
  (* in-process: the first round's streams untraced, then traced *)
  let conns = (List.hd rounds).conns in
  let plain, _ =
    replay wl ~checkpoint conns ~trace:false
      ~limit:(List.length (List.concat_map (fun c -> c.timed) conns))
      ~budget_s:(seconds /. 2.)
  in
  let traced, q_errors = replay wl ~checkpoint conns ~trace:true ~limit:plain.ops ~budget_s:infinity in
  write_spans (Printf.sprintf ".edsbench/spans-%s.tsv" wl.W.name) traced.tr;
  let self, total, worst_gap = self_times traced.tr in
  let healthy = ref true in
  let expect what ok =
    if not ok then healthy := false;
    if check || not ok then Printf.eprintf "edsbench check: %-64s %s\n%!" what (if ok then "ok" else "FAILED")
  in
  expect (Printf.sprintf "layer self times sum to each request span (worst gap %d ns)" worst_gap) (worst_gap = 0);
  expect "the in-process replay agrees with the server" (plain.mismatches + traced.mismatches = 0);
  let w = traced.work in
  let nreads = float_of_int w.reads and nw = float_of_int w.writes in
  let per_read x = ratio (float_of_int x) nreads in
  let in_layers names = List.fold_left (fun acc n -> acc +. self n) 0. names in
  let us_per_read names = us (ratio (in_layers names) nreads) in
  let rs = w.rewrite and es = w.eval in
  let block prefix =
    List.fold_left
      (fun acc (name, (b : Engine.block_stats)) ->
        if String.starts_with ~prefix name then acc + b.Engine.conditions else acc)
      0 rs.Engine.passes
  in
  let hit_rate = ratio (d "server.plan_cache.hits") (d "server.plan_cache.hits" +. d "server.plan_cache.misses") in
  let esql = [ "esql.parse"; "esql.translate" ] and rewriter = [ "rewriter.rewrite" ] in
  let planner = [ "planner.plan"; "plan_cache.lookup"; "plan_cache.add" ] @ esql @ rewriter in
  if check then begin
    let share names = ratio (in_layers names) (total "request.read" +. total "request.write") in
    match wl.W.name with
    | "hot_reads" ->
        let engine = share [ "engine.eval" ] and rw = share rewriter in
        expect (Printf.sprintf "engine is the majority of request time (%.2f)" engine) (engine > 0.5);
        expect (Printf.sprintf "the rewriter's share is small (%.3f)" rw) (rw < 0.05);
        expect (Printf.sprintf "plan-cache hit rate is close to 1 (%.3f)" hit_rate) (hit_rate > 0.95)
    | "adhoc_plans" ->
        let planning = share (esql @ rewriter) in
        expect (Printf.sprintf "esql + rewriter are the majority of request time (%.2f)" planning) (planning > 0.5);
        expect (Printf.sprintf "plan-cache hit rate is close to 0 (%.3f)" hit_rate) (hit_rate < 0.05)
    | _ ->
        let dml_wal = ratio (in_layers [ "eds.dml"; "wal.log" ]) (total "request.write") in
        expect (Printf.sprintf "DML + WAL are the majority of write time (%.2f)" dml_wal) (dml_wal > 0.5)
  end;
  let metrics =
    [
      ("server.ping_p50_ms", "ms", ms (quantile pings 0.5));
      ("server.service_p50_ms", "ms", ms (Histogram.quantile service 0.5));
      ("server.client_mean_ms", "ms", ms client_mean);
      ("server.ping_mean_ms", "ms", ms ping_mean);
      ("server.service_mean_ms", "ms", ms service_mean);
      ("server.residual_mean_ms", "ms", ms (client_mean -. ping_mean -. service_mean));
      ("rwlock.write_acquired_per_req", "count", ratio (d "server.rwlock.write_acquired") reqs);
      ("plan_cache.hit_rate", "ratio", hit_rate);
      ("plan_cache.evictions_per_req", "count", ratio (d "server.plan_cache.evictions") reqs);
      ("planner.plan_us", "us", us_per_read planner);
      ("esql.parse_us", "us", us_per_read [ "esql.parse" ]);
      ("esql.translate_us", "us", us_per_read [ "esql.translate" ]);
      ("esql.translated_ops", "count", ratio (float_of_int w.translated_ops) (float_of_int w.misses));
      ("rewriter.rewrite_us", "us", us_per_read rewriter);
      ("rewriter.match_attempts", "count", per_read rs.Engine.match_attempts);
      ("rewriter.conditions_checked", "count", per_read rs.Engine.conditions_checked);
      ("rewriter.rewrites_applied", "count", per_read rs.Engine.rewrites_applied);
      ("rewriter.nodes_visited", "count", per_read rs.Engine.nodes_visited);
      ( "rewriter.fire_ratio",
        "ratio",
        ratio (float_of_int rs.Engine.rewrites_applied) (float_of_int rs.Engine.match_attempts) );
      ( "rewriter.index_skip_ratio",
        "ratio",
        ratio (float_of_int rs.Engine.index_hits) (float_of_int (rs.Engine.index_hits + rs.Engine.index_misses)) );
      ( "rewriter.schema_memo_hit_rate",
        "ratio",
        ratio (float_of_int rs.Engine.schema_hits) (float_of_int (rs.Engine.schema_hits + rs.Engine.schema_misses)) );
    ]
    @ List.map
        (fun b -> (Printf.sprintf "rewriter.block.%s.conditions" b, "count", per_read (block b)))
        [ "merging"; "fixpoint"; "permutation"; "semantic"; "simplification" ]
    @ [
        ("rewriter.ops_after", "count", per_read w.ops_after);
        ("lera.cost_qerror_p50", "ratio", quantile q_errors 0.5);
        ("lera.cost_qerror_p90", "ratio", quantile q_errors 0.9);
        ("engine.eval_us", "us", us_per_read [ "engine.eval" ]);
        ("engine.combinations", "count", per_read es.Eval.combinations);
        ("engine.tuples_read", "count", per_read es.Eval.tuples_read);
        ("engine.probes", "count", per_read es.Eval.probes);
        ("engine.builds", "count", per_read es.Eval.builds);
        ("engine.fix_iterations", "count", per_read es.Eval.fix_iterations);
        ("engine.columnar_ops", "count", per_read es.Eval.columnar_ops);
        ( "engine.rows_read_per_row_out",
          "ratio",
          ratio (float_of_int es.Eval.tuples_read) (float_of_int w.rows_out) );
        ( "engine.fix_cache_hit_rate",
          "ratio",
          ratio (float_of_int es.Eval.fix_cache_hits)
            (float_of_int (es.Eval.fix_cache_hits + es.Eval.fix_cache_misses)) );
        ("fix_cache.invalidations_per_write", "count", ratio (d "session.fix_cache.invalidations") nwrites);
        ("materializer.maintenance_runs", "count", ratio (d "session.mviews.maintenance_runs") nwrites);
        ("materializer.delta_tuples", "count", ratio (d "session.mviews.delta_tuples") nwrites);
        ( "materializer.fallback_ratio",
          "ratio",
          ratio (d "session.mviews.fallback_recomputes") (d "session.mviews.maintenance_runs") );
        ("eds.render_us", "us", us_per_read [ "eds.render" ]);
        ("eds.dml_us", "us", us (ratio (self "eds.dml") nw));
        ("wal.log_us", "us", us (ratio (self "wal.log") nw));
        ("wal.fsyncs_per_commit", "count", ratio (d "wal.fsyncs") (d "wal.commits"));
        ("wal.bytes_per_commit", "bytes", ratio (d "wal.bytes") (d "wal.commits"));
        ("tracing.overhead_pct", "%", 100. *. ratio (traced.elapsed_s -. plain.elapsed_s) plain.elapsed_s);
      ]
  in
  (metrics, !healthy)

(* -- main ----------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: edsbench --workload (hot_reads|adhoc_plans|durable_writes) --seed N --seconds S --trace 0|1 \
     [--check]";
  exit 2

let rec spin () = spin ()

let () =
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--spin" ] then spin ();
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--reference" ] then reference_helper ();
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref false in
  let check = ref false and edsd = "_build/default/bin/edsd.exe" in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string v; args rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; args rest
    | "--trace" :: v :: rest -> trace := v = "1"; args rest
    | "--check" :: rest -> check := true; args rest
    | [] -> ()
    | _ -> usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with _ -> usage ());
  let make = match List.assoc_opt !workload W.all with Some f -> f | None -> usage () in
  if not (Sys.file_exists edsd) then begin
    prerr_endline ("edsbench: no server binary at " ^ edsd);
    exit 2
  end;
  at_exit (fun () ->
      kill_live ();
      remove_tree run_dir);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* interrupted: exit through at_exit, which stops the servers *)
  List.iter (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigint; Sys.sigterm ];
  pin_self ();
  let wl = make !seed in
  (* the oracle: a local session given the same statements.  A durable
     server boots from their dump (a load over the wire would fsync every
     row), so its oracle restores the same dump. *)
  let checkpoint, oracle =
    let session = Session.create () in
    load_session session wl;
    if wl.W.durable then begin
      mkdir_p run_dir;
      let dump = Filename.concat run_dir "generated.esql" in
      Storage.save session dump;
      (Some dump, Storage.load dump)
    end
    else (None, session)
  in
  let spinners = start_spinners () in
  let helper = start_helper () in
  let reference () = reference helper in
  let clean = ref true and setups = ref [] in
  (* a fresh server per set-up; the round's last one is measured *)
  let rec fresh_server k =
    let srv, conns, setup = set_up ~edsd ~checkpoint ~reference wl in
    setups := setup :: !setups;
    if k = wl.W.setups then (srv, conns)
    else begin
      close_conns conns;
      clean := stop srv && !clean;
      fresh_server (k + 1)
    end
  in
  let round _ =
    let srv, conns = fresh_server 1 in
    let view () = if !trace then Some (server_view srv.port) else None in
    let before = view () in
    let durations, refs = drive conns ~seconds:(!seconds /. float_of_int rounds) ~pings:!trace ~reference in
    let views = Option.map (fun before -> (before, Option.get (view ()))) before in
    let rss_mb = peak_rss_mb srv.pid in
    close_conns conns;
    clean := stop srv && !clean;
    { conns; durations; refs; rss_mb; views }
  in
  let measured = List.init rounds round in
  stop_helper helper;
  stop_spinners spinners;
  let setups = List.rev !setups in
  if not !clean then prerr_endline "edsbench: an edsd did not exit cleanly on SIGTERM";
  let attempted, failed = verify wl oracle (List.map (fun rd -> rd.conns) measured) in
  Printf.printf "edsbench %s seed=%d seconds=%g trace=%b: %d ops, %d failed, error_rate %.6f, set-ups %s s\n"
    wl.W.name !seed !seconds !trace attempted failed
    (ratio (float_of_int failed) (float_of_int attempted))
    (String.concat "/" (List.map (fun st -> Printf.sprintf "%.3f" st.setup_s) setups));
  let metrics, healthy =
    if !trace then per_layer wl ~checkpoint ~seconds:!seconds ~check:!check measured
    else begin
      Printf.printf "as timed, at the host's speed (reference %.2f ms, median of %d):\n"
        (ms (quantile (List.concat_map (fun rd -> Array.to_list rd.refs) measured) 0.5))
        (List.fold_left (fun n rd -> n + Array.length rd.refs) 0 measured);
      List.iter
        (fun (name, unit, v) -> Printf.printf "  %-44s %16.6f %s\n" name v unit)
        (end_to_end wl ~scaled:false setups measured);
      Printf.printf "at the reference speed (reference %.2f ms):\n" (ms reference_s);
      (end_to_end wl ~scaled:true setups measured, true)
    end
  in
  let correct = failed = 0 && !clean && healthy in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
