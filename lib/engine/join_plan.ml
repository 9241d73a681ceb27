(* Equi-join extraction and hash-join execution for the indexed physical
   evaluator (Eval.Physical.Indexed).

   [analyze] splits the qualification of a Search/Join into equi-join
   conjuncts — [i.j = k.l] with i <> k, both columns in range — and a
   residual conjunction of everything else.  [execute_columnar] then
   enumerates exactly the operand combinations satisfying every equi
   conjunct: operands are taken greedily by cardinality (preferring ones
   connected to the already-bound set), each new operand is loaded into
   a hash index on its join columns (one [on_build] per row) and the
   partial combinations probe it (one [on_probe] per partial).  The
   caller applies the residual to the yielded combinations — row numbers
   in original operand order — so the naive cartesian enumerator and
   this path agree bit-for-bit on results. *)

module Lera = Eds_lera.Lera

type equi = {
  left : int * int;  (** (operand, column), 1-based, the lower operand *)
  right : int * int;  (** the higher operand *)
}

type t = {
  operands : int;
  equis : equi list;
  residual : Lera.scalar;
}

let analyze ~arities q =
  let operands = Array.length arities in
  let in_range i j = i >= 1 && i <= operands && j >= 1 && j <= arities.(i - 1) in
  let is_equi = function
    | Lera.Call ("=", [ Lera.Col (i, j); Lera.Col (k, l) ])
      when i <> k && in_range i j && in_range k l ->
      Some (if i < k then { left = (i, j); right = (k, l) } else { left = (k, l); right = (i, j) })
    | _ -> None
  in
  let equis, residuals =
    List.fold_left
      (fun (es, rs) c ->
        match is_equi c with
        | Some e -> (e :: es, rs)
        | None -> (es, c :: rs))
      ([], [])
      (Lera.conjuncts q)
  in
  { operands; equis = List.rev equis; residual = Lera.conj (List.rev residuals) }

let residual p = p.residual
let equi_count p = List.length p.equis
let has_equis p = p.equis <> []

(* edges between operand [k] (0-based here) and the bound set: for each,
   the bound-side (operand, column) supplying the probe key and the
   column of [k] indexed by the build *)
let edges_to_bound p bound k =
  List.filter_map
    (fun { left = li, lj; right = ri, rj } ->
      if li - 1 = k && bound.(ri - 1) then Some ((ri - 1, rj), lj)
      else if ri - 1 = k && bound.(li - 1) then Some ((li - 1, lj), rj)
      else None)
    p.equis

let connected p bound k =
  List.exists
    (fun { left = li, _; right = ri, _ } ->
      (li - 1 = k && bound.(ri - 1)) || (ri - 1 = k && bound.(li - 1)))
    p.equis

(* greedy operand order: smallest relation first, then repeatedly the
   smallest operand having an equi edge into the bound set (falling back
   to the smallest unbound one — a cartesian step — when the join graph
   is disconnected) *)
let greedy_order p (cards : int array) =
  let n = Array.length cards in
  let bound = Array.make n false in
  let pick pred =
    let best = ref (-1) in
    for k = n - 1 downto 0 do
      if (not bound.(k)) && pred k && (!best < 0 || cards.(k) <= cards.(!best)) then
        best := k
    done;
    !best
  in
  let order = ref [] in
  for _ = 1 to n do
    let k =
      match pick (fun k -> connected p bound k) with
      | -1 -> pick (fun _ -> true)
      | k -> k
    in
    bound.(k) <- true;
    order := k :: !order
  done;
  List.rev !order

type cstep =
  | C_scan of int
  | C_single of {
      op : int;
      skey : Column.col array;  (** build key cells, all at row 0 *)
      pkey : Column.col array;
      pops : int array;  (** probe-side operand per edge *)
    }
  | C_probe of {
      op : int;
      index : Column.Index.t;
      pkey : Column.col array;
      pops : int array;
    }

(* Same combination set and probe/build totals whether the partials are
   materialized step by step or walked depth-first, as here: single-row
   operands compare directly with no counters, cartesian steps count
   nothing, and each partial reaching a hash step probes once.  The
   inner loops compare typed cells; an edge between columns of different
   flavors boxes just those two columns ({!Column.unify}). *)
let enumerate ~on_build ~on_probe p (tables : Column.table array)
    (yield : int array -> unit) =
  let n = Array.length tables in
  let cards = Array.map (fun (t : Column.table) -> t.Column.nrows) tables in
  let order = greedy_order p cards in
  let driver, rest = match order with d :: r -> (d, r) | [] -> assert false in
  let bound = Array.make n false in
  bound.(driver) <- true;
  let steps =
    List.map
      (fun k ->
        let edges = edges_to_bound p bound k in
        bound.(k) <- true;
        match edges with
        | [] -> C_scan k
        | edges ->
          let pairs =
            Array.of_list
              (List.map
                 (fun ((b, j), l) ->
                   Column.unify tables.(b).Column.cols.(j - 1)
                     tables.(k).Column.cols.(l - 1))
                 edges)
          in
          let pkey = Array.map fst pairs and bkey = Array.map snd pairs in
          let pops = Array.of_list (List.map (fun ((b, _), _) -> b) edges) in
          if cards.(k) = 1 then C_single { op = k; skey = bkey; pkey; pops }
          else
            C_probe
              {
                op = k;
                index = Column.Index.build ~on_build ~nrows:cards.(k) bkey;
                pkey;
                pops;
              })
      rest
  in
  let current = Array.make n 0 in
  (* per-step probe-row scratch, refilled before each probe and left
     untouched by deeper steps *)
  let scratch =
    Array.of_list
      (List.map
         (function
           | C_scan _ -> [||]
           | C_single { pkey; _ } | C_probe { pkey; _ } ->
             Array.make (Array.length pkey) 0)
         steps)
  in
  let single_matches skey pkey pops =
    let ok = ref true in
    let e = ref 0 in
    let ne = Array.length skey in
    while !ok && !e < ne do
      if not (Column.cell_equal skey.(!e) 0 pkey.(!e) current.(pops.(!e)))
      then ok := false;
      incr e
    done;
    !ok
  in
  let rec go si = function
    | [] -> yield current
    | C_scan k :: deeper ->
      for r = 0 to cards.(k) - 1 do
        current.(k) <- r;
        go (si + 1) deeper
      done
    | C_single { op; skey; pkey; pops } :: deeper ->
      if single_matches skey pkey pops then begin
        current.(op) <- 0;
        go (si + 1) deeper
      end
    | C_probe pr :: deeper ->
      on_probe ();
      let rows = scratch.(si) in
      for e = 0 to Array.length rows - 1 do
        rows.(e) <- current.(pr.pops.(e))
      done;
      let r = ref (Column.Index.first pr.index ~key:pr.pkey ~rows) in
      while !r >= 0 do
        current.(pr.op) <- !r;
        go (si + 1) deeper;
        r := Column.Index.next pr.index ~key:pr.pkey ~rows !r
      done
  in
  for i = 0 to cards.(driver) - 1 do
    current.(driver) <- i;
    go 0 steps
  done

(* an empty operand has no combinations: return before any index is built *)
let execute_columnar ~on_build ~on_probe p tables yield =
  if not (Array.exists (fun (t : Column.table) -> t.Column.nrows = 0) tables)
  then enumerate ~on_build ~on_probe p tables yield
