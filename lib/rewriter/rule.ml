module Term = Eds_term.Term

type t = {
  name : string;
  lhs : Term.t;
  constraints : Term.t list;
  rhs : Term.t;
  methods : (string * Term.t list) list;
}

type block = {
  block_name : string;
  rules : t list;
  limit : int option;
}

type program = {
  blocks : block list;
  rounds : int;
}

let comma = Fmt.any ", "

let pp_method ppf (name, args) =
  Fmt.pf ppf "%s(%a)" name (Fmt.list ~sep:comma Term.pp) args

let pp ppf r =
  Fmt.pf ppf "%s: %a / %a --> %a / %a" r.name Term.pp r.lhs
    (Fmt.list ~sep:comma Term.pp) r.constraints Term.pp r.rhs
    (Fmt.list ~sep:comma pp_method)
    r.methods

let pp_block ppf b =
  let pp_limit ppf = function
    | Some n -> Fmt.int ppf n
    | None -> Fmt.string ppf "infinite"
  in
  Fmt.pf ppf "block(%s, {%a}, %a)" b.block_name
    (Fmt.list ~sep:comma (fun ppf r -> Fmt.string ppf r.name))
    b.rules pp_limit b.limit

let pp_program ppf p =
  Fmt.pf ppf "seq({%a}, %d)"
    (Fmt.list ~sep:comma (fun ppf b -> Fmt.string ppf b.block_name))
    p.blocks p.rounds

let block ?limit block_name rules = { block_name; rules; limit }
let program ?(rounds = 1) blocks = { blocks; rounds }

(* -- compiled blocks: head-symbol dispatch -------------------------------- *)

type head_key =
  | Head of string
  | Any_app
  | Coll_head of Term.ckind
  | Cst_head
  | Wildcard

let head_key (lhs : Term.t) : head_key =
  match lhs with
  | Term.App (f, _) -> if Term.is_fvar f then Any_app else Head f
  | Term.Coll (k, _) -> Coll_head k
  | Term.Cst _ -> Cst_head
  (* a collection-variable lhs is ill-formed, but dispatching it like a
     wildcard reproduces the linear scan's behavior (the matcher raises) *)
  | Term.Var _ | Term.Cvar _ -> Wildcard

type compiled = {
  source : block;
  rule_count : int;
  by_app_head : (string, (int * t) list) Hashtbl.t;
  app_fallback : (int * t) list;  (** subject head not indexed: fvar + wildcard rules *)
  by_coll : (Term.ckind * (int * t) list) list;
  cst_rules : (int * t) list;
  var_rules : (int * t) list;
}

let compile (b : block) : compiled =
  let indexed = List.mapi (fun i r -> (i, r, head_key r.lhs)) b.rules in
  let ordered sel =
    indexed
    |> List.filter (fun (_, _, k) -> sel k)
    |> List.map (fun (i, r, _) -> (i, r))
  in
  let heads =
    List.sort_uniq String.compare
      (List.filter_map (function _, _, Head f -> Some f | _ -> None) indexed)
  in
  let by_app_head = Hashtbl.create (max 8 (List.length heads)) in
  List.iter
    (fun f ->
      Hashtbl.replace by_app_head f
        (ordered (function
          | Head g -> String.equal f g
          | Any_app | Wildcard -> true
          | Coll_head _ | Cst_head -> false)))
    heads;
  {
    source = b;
    rule_count = List.length b.rules;
    by_app_head;
    app_fallback =
      ordered (function Any_app | Wildcard -> true | Head _ | Coll_head _ | Cst_head -> false);
    by_coll =
      List.map
        (fun k ->
          ( k,
            ordered (function
              | Coll_head k' -> k = k'
              | Wildcard -> true
              | Head _ | Any_app | Cst_head -> false) ))
        [ Term.Set; Term.Bag; Term.List; Term.Array; Term.Tuple ];
    cst_rules =
      ordered (function Cst_head | Wildcard -> true | Head _ | Any_app | Coll_head _ -> false);
    var_rules = ordered (function Wildcard -> true | _ -> false);
  }

let source c = c.source
let rule_count c = c.rule_count

let candidates (c : compiled) (t : Term.t) : (int * t) list =
  match t with
  | Term.App (f, _) -> (
    match Hashtbl.find_opt c.by_app_head f with
    | Some rs -> rs
    | None -> c.app_fallback)
  | Term.Coll (k, _) -> ( match List.assoc_opt k c.by_coll with Some rs -> rs | None -> [])
  | Term.Cst _ -> c.cst_rules
  | Term.Var _ | Term.Cvar _ -> c.var_rules

let output_variables r =
  let bound = ref (Term.vars r.lhs) in
  let fresh t =
    let vs = List.filter (fun v -> not (List.mem v !bound)) (Term.vars t) in
    bound := !bound @ vs;
    vs
  in
  let from_methods =
    List.concat_map (fun (_, args) -> List.concat_map fresh args) r.methods
  in
  let from_rhs = fresh r.rhs in
  from_methods @ from_rhs
