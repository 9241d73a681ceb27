(** Columnar view of a relation (the vectorized execution layer).

    Every relation is shadowed by a {!table}: one array per column.  A
    column whose cells are all [Int], [Oid], [Str], [Enum] (of one enum
    type) or [Real] — one constructor per column — is {e typed}: a plain
    [int]/[float] array, strings and enum labels replaced by their
    {!Eds_value.Intern} ids.  Any other column ([Null], [Bool], [Tuple]
    or collection cells, or a mix of constructors such as [Int] with
    [Real], or [Enum]/[Str]) is [Values]: the boxed cells themselves.
    The hot loops of the Indexed layer (hash-join build/probe, filter,
    whole-row membership) run over typed columns with no boxed
    [Value.t] in the inner loop; boxed tuples are materialized only at
    result-construction and Obs boundaries.

    The boxed sorted tuple list of {!Relation} stays the canonical
    identity — a table is always {e derived} from it, never the other
    way around, so set semantics, rendering and storage are untouched.

    Fallback is per column: cells of two columns compare only within one
    flavor, and a comparison between columns of different flavors
    (e.g. [Ints] vs [Floats], or typed vs [Values]) goes through
    {!unify}, which boxes just those two columns so [Value.compare]'s
    Int/Real cross-equality still holds.  An [Enum] column keeps its
    type name in the column header ({!Enums}), so rendering-faithful
    values are rebuilt on materialization while the hot loops compare
    interned label ids — exactly [Value.compare]'s semantics, which
    equates [Enum (_, l)] with [Str l] by label. *)

module Value = Eds_value.Value

type col =
  | Ints of int array
  | Oids of int array
  | Ids of int array  (** interned [Str] labels, see {!Eds_value.Intern} *)
  | Enums of string * int array
      (** enum type name + interned labels; flavor {!F_id}, compares and
          hashes against [Ids] by id (enum/string cross-equality) *)
  | Floats of float array
  | Values of Value.t array
      (** boxed cells: compared with [Value.compare], hashed with
          [Value.hash] *)

type flavor = F_int | F_oid | F_id | F_float | F_value

type table = {
  nrows : int;
  cols : col array;  (** all of length [nrows] *)
}

val flavor : col -> flavor

val unify : col -> col -> col * col
(** [unify ca cb] is [(ca, cb)] when the two columns share a flavor,
    and both columns boxed to [Values] otherwise — the precondition of
    {!cell_equal} and {!Index} probes between two columns. *)

val of_tuples : arity:int -> int -> Value.t list list -> table
(** [of_tuples ~arity nrows tuples] builds the columnar shadow of
    [nrows] width-[arity] tuples, each column typed or [Values] under
    the rules above.  Row order is preserved.  Interns every string
    cell of a typed column. *)

val value_at : table -> row:int -> col:int -> Value.t
(** Materialize one cell ([Str] cells share the interned string). *)

val tuple_at : table -> int -> Value.t list
(** Materialize one boxed row. *)

val cell_equal : col -> int -> col -> int -> bool
(** [cell_equal ca i cb j]: [Value.compare]-equality of two cells,
    [false] across flavors (callers {!unify} the two columns first).
    Float cells follow [Float.compare]: NaN equals NaN, [-0. = 0.]. *)

(** Flat chained hash index over selected key columns of one table.
    Probes are read-only once built.  A probe key is given as parallel arrays
    [key]/[rows]: cell [e] of the key is [key.(e)] at row [rows.(e)], so
    a join key spanning several operands probes without materializing
    anything.  The cursor protocol is allocation-free:

    {[
      let r = ref (Index.first idx ~key ~rows) in
      while !r >= 0 do
        ...consume matching row !r of the indexed table...;
        r := Index.next idx ~key ~rows !r
      done
    ]}

    Probe cells must have the same flavor as the corresponding build
    key column ({!unify} them first): across flavors, cell equality is
    [false]. *)
module Index : sig
  type t

  val build : ?on_build:(unit -> unit) -> nrows:int -> col array -> t
  (** Index rows [0 .. nrows-1] of the given key columns; [on_build]
      fires once per row inserted (the build-side work counter). *)

  val first : t -> key:col array -> rows:int array -> int
  (** First indexed row whose build-key cells equal the probe cells
      (same order as [key_cols] at build), or [-1]. *)

  val next : t -> key:col array -> rows:int array -> int -> int
  (** Next match after a row returned by {!first}/[next], or [-1];
      [key]/[rows] must be unchanged since {!first}. *)
end

(** Compiler from LERA scalar predicates to allocation-free row
    predicates over columnar operands. *)
module Pred : sig
  type t =
    | Always  (** constant true — no per-row work at all *)
    | Rows of (int array -> bool)
        (** [rows.(k)] is the current row of operand [k+1] *)
    | Opaque
        (** not compilable (a [Values] column, a shape that could raise,
            or a comparison operator overridden in the ADT registry) —
            use {!Expr_eval} *)

  val compile : adts:Eds_value.Adt.registry -> table array -> Eds_lera.Lera.scalar -> t
  (** Compiles conjunctions/disjunctions/negations of the six builtin
      comparison operators over typed [Col]s and [Cst] sides.
      Semantics replicate {!Expr_eval.eval_bool} bit-for-bit
      ([test (Value.compare a b)] with [to_bool] at the top); every
      shape whose evaluation could raise, touch a collection broadcast,
      or hit a user-overridden operator compiles to [Opaque], so
      {!Expr_eval} raises or evaluates it identically. *)
end
