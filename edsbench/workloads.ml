(* The three seeded workloads.  Everything the server receives is
   generated here from the seed: the set-up script (DDL and single-row
   INSERTs; the durable server boots from its dump) and, per connection,
   a closed-loop stream of reads and writes.  The same seed always gives
   the same statements. *)

type op = Read of string | Write of string

let text = function Read s | Write s -> s

type t = {
  name : string;
  durable : bool;  (** serve from [edsd --db] with the shipped fsync-per-commit WAL *)
  setup : string list;
      (** loaded over one connection, in order; a durable server recovers
          their dump instead *)
  setups : int;  (** set-ups per round, for the median set-up time; the last is measured *)
  warm_ops : int;  (** leading ops of each stream issued during set-up *)
  stream : int -> unit -> op;  (** [stream conn] yields connection [conn]'s ops *)
}

let connections = 2

let rng ~seed salt = Random.State.make [| seed; salt |]
let pick st arr = arr.(Random.State.int st (Array.length arr))
let sp = Printf.sprintf

(* [n] rows, one INSERT each: loading goes through the same single-row
   write path a client uses *)
let inserts table n row = List.init n (fun i -> sp "INSERT INTO %s VALUES (%s)" table (row i))

(* Fisher-Yates over [0, n): seeded numberings keep sizes fixed while
   the contents move with the seed *)
let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let reach_view ~name ~edges =
  sp
    "CREATE VIEW %s (Src, Dst) AS ( SELECT Src, Dst FROM %s UNION SELECT E1.Src, \
     E2.Dst FROM %s E1, %s E2 WHERE E1.Dst = E2.Src )"
    name edges name name

(* The generators keep every size and fan-out fixed and let the seed
   choose the numbering: each actor plays in the same number of films,
   each K joins the same number of rows, every node of a ring reaches
   the same number of nodes.  So a seed changes the statements but not
   the work they ask for. *)

(* FILM and APPEARS_IN; [films] must be a multiple of [actors] *)
let films_setup st ~films ~actors =
  let titles = permutation st films and casting = permutation st films in
  let actor r =
    let first = casting.(r / 2) mod actors in
    if r mod 2 = 0 then first else (first + (actors / 2)) mod actors
  in
  [ "TABLE FILM (Numf : INT, Title : CHAR)"; "TABLE APPEARS_IN (Numf : INT, Actor : CHAR)" ]
  @ inserts "FILM" films (fun i -> sp "%d, 'T%d'" i titles.(i))
  @ inserts "APPEARS_IN" (2 * films) (fun r -> sp "%d, 'A%d'" (r / 2) (actor r))

(* [rings] disjoint directed cycles of [len] nodes: every node reaches
   exactly [len] nodes and a closure stays ring-local *)
let edges_setup st ~table ~rings ~len =
  let numbering = permutation st rings in
  sp "TABLE %s (Src : INT, Dst : INT)" table
  :: inserts table (rings * len) (fun i ->
         let base = numbering.(i / len) * len and k = i mod len in
         sp "%d, %d" (base + k) (base + ((k + 1) mod len)))

(* R ⋈ S ⋈ T, [joins] a multiple of [ks] and [ks] a multiple of 8: each
   J has [per_j] R rows and two S rows [ks / 2] apart in K, each K has
   [2 * joins / ks] S rows, and each B value has [ks / 8] T rows *)
let chain_setup st ~joins ~ks ~per_j =
  let rj = permutation st (joins * per_j) and sk = permutation st joins in
  [ "TABLE R (A : INT, J : INT)"; "TABLE S (J : INT, K : INT)"; "TABLE T (K : INT, B : INT)" ]
  @ inserts "R" (joins * per_j) (fun i -> sp "%d, %d" i (rj.(i) mod joins))
  @ inserts "S" (2 * joins) (fun i ->
        let k = sk.(i / 2) mod ks in
        sp "%d, %d" (i / 2) (if i mod 2 = 0 then k else (k + (ks / 2)) mod ks))
  @ inserts "T" ks (fun k -> sp "%d, %d" k (10 * (k mod 8)))

let fig8_actor a =
  sp "SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
      APPEARS_IN.Actor = 'A%d'" a

let chain_query b =
  sp "SELECT R.A, T.B FROM R, S, T WHERE R.J = S.J AND S.K = T.K AND T.B = %d" (10 * b)

(* -- hot_reads ---------------------------------------------------------- *)

let hot_films = 1200
let hot_actors = 40
let hot_rings = 30
let hot_ring_len = 12

let hot_reads seed =
  let st = rng ~seed 1 in
  let setup =
    films_setup st ~films:hot_films ~actors:hot_actors
    @ edges_setup st ~table:"EDGE" ~rings:hot_rings ~len:hot_ring_len
    @ [ reach_view ~name:"REACH" ~edges:"EDGE" ]
    @ chain_setup st ~joins:48 ~ks:24 ~per_j:12
  in
  (* 24 texts: 8 actors, all 8 values of T.B, 8 rings *)
  let actors = permutation st hot_actors and rings = permutation st hot_rings in
  let texts =
    Array.concat
      [
        Array.init 8 (fun i -> fig8_actor actors.(i));
        Array.init 8 chain_query;
        Array.init 8 (fun i ->
            sp "SELECT Dst FROM REACH WHERE Src = %d"
              ((rings.(i) * hot_ring_len) + Random.State.int st hot_ring_len));
      ]
  in
  let n = Array.length texts in
  let stream conn =
    let st = rng ~seed (100 + conn) in
    (* every text once (the cache fill), then uniform draws *)
    let order = permutation st n and j = ref 0 in
    fun () ->
      let i = !j in
      incr j;
      Read (if i < n then texts.(order.(i)) else pick st texts)
  in
  { name = "hot_reads"; durable = false; setup; setups = 1; warm_ops = n; stream }

(* -- adhoc_plans -------------------------------------------------------- *)

(* [depth]-deep stack V1 .. V<depth> over BASE; each level adds one
   always-true-looking conjunct the merging rules must fold away *)
let view_stack depth =
  List.init depth (fun i ->
      let level = i + 1 in
      let src = if level = 1 then "BASE" else sp "V%d" (level - 1) in
      let col = [| "A"; "B"; "C" |].(i mod 3) in
      let cond = if i mod 2 = 0 then sp "%s > %d" col (-1 - i) else sp "%s < %d" col (100000 + i) in
      sp "CREATE VIEW V%d (A, B, C) AS SELECT A, B, C FROM %s WHERE %s" level src cond)

let adhoc_rows = 200
let adhoc_depth = 12
let adhoc_rings = 8
let adhoc_ring_len = 6

(* constants past every stored value keep each text new without
   changing what the query returns *)
let wide st = 1000 + Random.State.int st 999_000

let adhoc_plans seed =
  let st = rng ~seed 2 in
  let setup =
    [ "TABLE BASE (A : INT, B : INT, C : INT)" ]
    @ inserts "BASE" adhoc_rows (fun i ->
          sp "%d, %d, %d" i (Random.State.int st 100) (Random.State.int st adhoc_rows))
    @ view_stack adhoc_depth
    @ edges_setup st ~table:"EDGE" ~rings:adhoc_rings ~len:adhoc_ring_len
    @ [ reach_view ~name:"REACH" ~edges:"EDGE" ]
  in
  let stream conn =
    let st = rng ~seed (200 + conn) in
    let depth () = 8 + Random.State.int st (adhoc_depth - 7) in
    fun () ->
      Read
        (match Random.State.int st 3 with
        | 0 ->
            sp "SELECT A, C FROM V%d WHERE B > %d AND A < %d" (depth ())
              (Random.State.int st 100) (wide st)
        | 1 ->
            sp "SELECT X.A, Y.B FROM V%d X, V%d Y WHERE X.A = Y.C AND X.B > %d AND Y.A < %d"
              (depth ()) (depth ()) (Random.State.int st 100) (wide st)
        | _ ->
            sp "SELECT Dst FROM REACH WHERE Src = %d AND Dst < %d"
              (Random.State.int st (adhoc_rings * adhoc_ring_len)) (wide st))
  in
  { name = "adhoc_plans"; durable = false; setup; setups = 3; warm_ops = 20; stream }

(* -- durable_writes ----------------------------------------------------- *)

(* Connection [c] owns MVE_c: [durable_chains] disjoint 4-node chains,
   the recursive materialized view MVR_c over it, and the plain
   recursive view RV_c whose fixpoints the fix cache memoizes.  Each
   8-op cycle extends one chain, moves the new edge, then deletes it, so
   the table and extent sizes return to where they started; its reads
   are three of the extent, one of RV_c and one of the shared tables.
   The cycle's ops come in a seeded order (its writes always in that
   order): with a fixed order the two connections' cycles fall into
   step, and whether one's cheap reads meet the other's writes would
   depend on how they happened to line up.  With a single cheap read per
   cycle the read median lies inside the expensive reads' spread rather
   than in the gap between the two kinds, where it would jump. *)

type durable_op = Dml | Extent_from | Extent_to | Closure | Shared

let durable_cycle = [| Dml; Dml; Dml; Extent_from; Extent_to; Extent_from; Closure; Shared |]

let durable_chains = 600
let durable_pool = 24

let mv_table c = sp "MVE_%d" c
let mv_view c = sp "MVR_%d" c
let rv_view c = sp "RV_%d" c

let durable_writes seed =
  let st = rng ~seed 3 in
  let numbering = Array.init connections (fun _ -> permutation st durable_chains) in
  let node c chain k = (4 * numbering.(c).(chain)) + k in
  let private_setup c =
    let t = mv_table c and v = mv_view c in
    [ sp "TABLE %s (Src : INT, Dst : INT)" t ]
    @ inserts t (3 * durable_chains) (fun r ->
          let chain = r / 3 and k = r mod 3 in
          sp "%d, %d" (node c chain k) (node c chain (k + 1)))
    @ [
        sp
          "CREATE MATERIALIZED VIEW %s (A, B) AS ( SELECT Src, Dst FROM %s UNION SELECT \
           E.Src, %s.B FROM %s E, %s WHERE E.Dst = %s.A )"
          v t v t v v;
        reach_view ~name:(rv_view c) ~edges:t;
      ]
  in
  let setup =
    films_setup st ~films:120 ~actors:12
    @ chain_setup st ~joins:16 ~ks:8 ~per_j:4
    @ List.concat (List.init connections private_setup)
  in
  let actors = permutation st 12 in
  let shared = Array.init 8 (fun i -> if i < 4 then fig8_actor actors.(i) else chain_query (2 * (i - 4))) in
  let stream c =
    let st = rng ~seed (300 + c) in
    let pool = Array.sub (permutation st durable_chains) 0 durable_pool in
    let t = mv_table c and v = mv_view c in
    let j = ref 0 and chain = ref 0 and order = ref [||] and writes = ref 0 in
    fun () ->
      let i = !j in
      incr j;
      if i mod 8 = 0 then begin
        chain := pick st pool;
        order := permutation st (Array.length durable_cycle);
        writes := 0
      end;
      let head = node c !chain 0 and tail = node c !chain 3 in
      let fresh = 1_000_000 + head and moved = 2_000_000 + head in
      match durable_cycle.(!order.(i mod 8)) with
      | Dml ->
          incr writes;
          Write
            (match !writes with
            | 1 -> sp "INSERT INTO %s VALUES (%d, %d)" t tail fresh
            | 2 -> sp "UPDATE %s SET Dst = %d WHERE Src = %d" t moved tail
            | _ -> sp "DELETE FROM %s WHERE Src = %d" t tail)
      | Extent_from -> Read (sp "SELECT %s.B FROM %s WHERE %s.A = %d" v v v head)
      | Extent_to -> Read (sp "SELECT %s.A FROM %s WHERE %s.B = %d" v v v tail)
      | Closure -> Read (sp "SELECT Dst FROM %s WHERE Src = %d" (rv_view c) head)
      | Shared -> Read (pick st shared)
  in
  { name = "durable_writes"; durable = true; setup; setups = 1; warm_ops = 16; stream }

let all = [ ("hot_reads", hot_reads); ("adhoc_plans", adhoc_plans); ("durable_writes", durable_writes) ]
