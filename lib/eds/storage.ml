module Value = Eds_value.Value
module Value_text = Eds_value.Value_text
module Vtype = Eds_value.Vtype
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Materializer = Eds_engine.Materializer
module Ast = Eds_esql.Ast
module Catalog = Eds_esql.Catalog

exception Storage_error of string

let error fmt = Fmt.kstr (fun s -> raise (Storage_error s)) fmt

(* -- type declarations back to ESQL syntax ------------------------------- *)

let rec type_text (ty : Vtype.t) : string =
  match ty with
  | Vtype.Bool -> "BOOLEAN"
  | Vtype.Int -> "INT"
  | Vtype.Real -> "NUMERIC"
  | Vtype.String -> "CHAR"
  | Vtype.Enum (_, labels) ->
    Fmt.str "ENUMERATION OF (%s)"
      (String.concat ", " (List.map (fun l -> "'" ^ l ^ "'") labels))
  | Vtype.Tuple fields ->
    Fmt.str "TUPLE (%s)"
      (String.concat ", "
         (List.map (fun (n, t) -> Fmt.str "%s : %s" n (type_text t)) fields))
  | Vtype.Set t -> "SET OF " ^ type_text t
  | Vtype.Bag t -> "BAG OF " ^ type_text t
  | Vtype.List t -> "LIST OF " ^ type_text t
  | Vtype.Array t -> "ARRAY OF " ^ type_text t
  | Vtype.Named n | Vtype.Object n -> n
  | Vtype.Any | Vtype.Collection _ ->
    error "type %a cannot be dumped as ESQL" Vtype.pp ty

(* names a type definition depends on *)
let rec type_refs (ty : Vtype.t) : string list =
  match ty with
  | Vtype.Named n | Vtype.Object n -> [ n ]
  | Vtype.Tuple fields -> List.concat_map (fun (_, t) -> type_refs t) fields
  | Vtype.Set t | Vtype.Bag t | Vtype.List t | Vtype.Array t | Vtype.Collection t ->
    type_refs t
  | Vtype.Any | Vtype.Bool | Vtype.Int | Vtype.Real | Vtype.String | Vtype.Enum _ ->
    []

let type_decls_in_dependency_order env =
  let decls = Vtype.declarations env in
  let emitted = Hashtbl.create 16 in
  let buffer = ref [] in
  let rec emit (d : Vtype.decl) =
    if not (Hashtbl.mem emitted d.Vtype.name) then begin
      Hashtbl.replace emitted d.Vtype.name ();
      let deps =
        type_refs d.Vtype.definition
        @ (match d.Vtype.supertype with Some s -> [ s ] | None -> [])
      in
      List.iter
        (fun dep ->
          match
            List.find_opt (fun d' -> d'.Vtype.name = dep) decls
          with
          | Some d' -> emit d'
          | None -> ())
        deps;
      let super =
        match d.Vtype.supertype with
        | Some s -> Fmt.str " SUBTYPE OF %s" s
        | None -> ""
      in
      let obj = if d.Vtype.is_object then "OBJECT " else "" in
      buffer :=
        Fmt.str "TYPE %s%s %s%s ;" d.Vtype.name super obj
          (type_text d.Vtype.definition)
        :: !buffer
    end
  in
  List.iter emit decls;
  List.rev !buffer

(* -- dump ----------------------------------------------------------------- *)

let dump (s : Session.t) : string =
  let cat = Session.catalog s in
  let db = Session.database s in
  let buf = Buffer.create 4096 in
  let line fmt = Fmt.kstr (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  line "-- eds session dump v1";
  List.iter (fun l -> line "%s" l) (type_decls_in_dependency_order (Catalog.types cat));
  List.iter
    (fun (name, schema) ->
      line "TABLE %s (%s) ;" name
        (String.concat ", "
           (List.map (fun (n, t) -> Fmt.str "%s : %s" n (type_text t)) schema)))
    (Catalog.tables cat);
  List.iter
    (fun (v : Catalog.view) ->
      let cols =
        match v.Catalog.columns with
        | [] -> ""
        | cs -> Fmt.str " (%s)" (String.concat ", " cs)
      in
      line "CREATE %sVIEW %s%s AS ( %a ) ;"
        (if v.Catalog.materialized then "MATERIALIZED " else "")
        v.Catalog.vname cols Ast.pp_select v.Catalog.body)
    (Catalog.views cat);
  List.iter
    (fun (oid, v) -> line "--@@ %d %s" oid (Value.to_string v))
    (Database.objects db);
  List.iter
    (fun name ->
      let rel = Database.relation db name in
      List.iter
        (fun tup -> line "--+ %s %s" name (Value.to_string (Value.list tup)))
        rel.Relation.tuples)
    (List.map fst (Catalog.tables cat));
  (* materialized extents, so restore installs them directly instead of
     re-deriving (restore feeds base tuples to the database, not through
     the session, so maintenance never runs) *)
  List.iter
    (fun (v : Materializer.view) ->
      match Database.relation_opt db v.Materializer.name with
      | None -> ()
      | Some rel ->
        List.iter
          (fun tup ->
            line "--* %s %s" v.Materializer.name
              (Value.to_string (Value.list tup)))
          rel.Relation.tuples)
    (Materializer.views (Session.mviews s));
  Buffer.contents buf

(* -- restore -------------------------------------------------------------- *)

let strip_prefix prefix line =
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then Some (String.sub line (String.length prefix)
               (String.length line - String.length prefix))
  else None

let split_first_word text =
  let text = String.trim text in
  match String.index_opt text ' ' with
  | Some i ->
    ( String.sub text 0 i,
      String.sub text (i + 1) (String.length text - i - 1) )
  | None -> error "malformed dump directive: %s" text

let restore (text : string) : Session.t =
  let s = Session.create () in
  let db = Session.database s in
  let lines = String.split_on_char '\n' text in
  let objects = ref [] in
  let tuples = ref [] in
  let extents = ref [] in
  let script = Buffer.create 4096 in
  List.iter
    (fun l ->
      match strip_prefix "--@ " l with
      | Some rest ->
        let oid, payload = split_first_word rest in
        let oid =
          match int_of_string_opt oid with
          | Some i -> i
          | None -> error "bad OID in dump: %s" oid
        in
        objects := (oid, payload) :: !objects
      | None -> (
        match strip_prefix "--+ " l with
        | Some rest -> tuples := split_first_word rest :: !tuples
        | None -> (
          match strip_prefix "--* " l with
          | Some rest -> extents := split_first_word rest :: !extents
          | None ->
            Buffer.add_string script l;
            Buffer.add_char script '\n')))
    lines;
  ignore (Session.exec_script s (Buffer.contents script));
  List.iter
    (fun (oid, payload) ->
      match Value_text.parse_opt payload with
      | Some v -> Database.restore_object db oid v
      | None -> error "bad object payload: %s" payload)
    (List.rev !objects);
  (* base rows and materialized extents, grouped per relation; each
     relation is built once (one sort) and all of them are installed
     under a single publish *)
  let group what lines =
    let by_name = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (name, payload) ->
        let tup =
          match Value_text.parse_opt payload with
          | Some (Value.List tup) -> tup
          | Some _ | None -> error "bad %s payload for %s: %s" what name payload
        in
        match Hashtbl.find_opt by_name name with
        | Some rows -> Hashtbl.replace by_name name (tup :: rows)
        | None ->
          order := name :: !order;
          Hashtbl.replace by_name name [ tup ])
      lines (* reversed input + reversed accumulation = dump order *);
    List.map (fun name -> (name, Hashtbl.find by_name name)) !order
  in
  let tables =
    List.map
      (fun (table, rows) ->
        match Database.relation_opt db table with
        | Some rel ->
          (table, Relation.make rel.Relation.schema (rows @ rel.Relation.tuples))
        | None -> error "rows for unknown table %s" table)
      (group "tuple" !tuples)
  in
  let extents = group "extent" !extents in
  (* materialized extents: install the dumped tuples per view; a view
     with no dumped extent (older dump format) is recomputed instead *)
  let views = Materializer.views (Session.mviews s) in
  Database.replace_many db
    (tables
    @ List.filter_map
        (fun (v : Materializer.view) ->
          Option.map
            (fun rows ->
              (v.Materializer.name, Relation.make v.Materializer.schema rows))
            (List.assoc_opt v.Materializer.name extents))
        views);
  List.iter
    (fun (v : Materializer.view) ->
      if not (List.mem_assoc v.Materializer.name extents) then
        ignore (Session.exec s (Ast.Refresh v.Materializer.name)))
    views;
  s

(* -- crash-safe file replacement ------------------------------------------ *)

(* Write-to-temp + fsync + rename: the destination either keeps its old
   bytes or atomically becomes the complete new content — a crash (or a
   failing writer) can never leave a half-written database as the only
   copy.  The temp file lives in the destination's directory so the
   rename stays within one filesystem. *)
let atomic_write ?(fsync = true) ~path writer =
  let tmp = path ^ ".tmp" in
  let oc = Out_channel.open_bin tmp in
  (match
     writer oc;
     Out_channel.flush oc;
     if fsync then Unix.fsync (Unix.descr_of_out_channel oc)
   with
  | () -> Out_channel.close oc
  | exception e ->
    (try Out_channel.close oc with _ -> ());
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  (match Sys.rename tmp path with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  if fsync then begin
    (* persist the directory entry too; best-effort where unsupported *)
    match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | dirfd ->
      (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
      (try Unix.close dirfd with Unix.Unix_error _ -> ())
  end

let save ?fsync s path =
  let text = dump s in
  atomic_write ?fsync ~path (fun oc -> Out_channel.output_string oc text)

let load path = restore (In_channel.with_open_text path In_channel.input_all)
