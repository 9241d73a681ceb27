(** In-memory relations.

    Relations have set semantics: construction deduplicates tuples, which
    is what guarantees termination of the fixpoint operator (paper §3.2).
    A tuple is a list of {!Value.t}, one per schema attribute.

    A relation is stored two ways: the canonical sorted tuple list, with
    its cardinality cached at construction, and a columnar shadow
    ({!Column.table}) derived from it on first use.  {!diff}, {!inter}
    and the evaluator's hash joins run over the columns.  The query
    server's connection threads may force the shadow concurrently on
    the relations of a shared snapshot. *)

module Value = Eds_value.Value
module Schema = Eds_lera.Schema

type tuple = Value.t list

(** Hashtables keyed on whole tuples ({!compare_tuples} equality,
    a hash compatible with it, numeric [Int]/[Real] and [Enum]/[Str]
    cross-equalities included), used by the nest-grouping path of the
    evaluator. *)
module Tuple_tbl : Hashtbl.S with type key = tuple

type 'a memo
(** A view derived from the tuples on first use.  Forcing it from
    several threads at once is safe: every racer computes the view and
    one compare-and-set publishes it, so all readers see the same
    value.  Nothing is built eagerly on construction. *)

type t = private {
  schema : Schema.t;
  tuples : tuple list;  (** sorted, duplicate-free *)
  card : int;  (** [List.length tuples], cached *)
  cols : Column.table memo;  (** columnar shadow (see {!Column.of_tuples}) *)
}

val make : Schema.t -> tuple list -> t
(** Sorts and deduplicates.  Raises [Invalid_argument] if a tuple's width
    differs from the schema's arity. *)

val empty : Schema.t -> t

val with_schema : Schema.t -> t -> t
(** Retag under a same-arity schema, sharing tuples and the columnar
    shadow (both schema-name-independent).  O(1); raises
    [Invalid_argument] on arity mismatch. *)

val cardinality : t -> int
val is_empty : t -> bool

val mem : tuple -> t -> bool
(** Linear scan of the tuples. *)

val columns : t -> Column.table
(** The columnar shadow of the tuples, built on first use.  Safe to call
    from several threads at once. *)

val filteri : (int -> tuple -> bool) -> t -> t
(** Subset of the tuples by position (0-based, canonical order) and
    value; keeps the schema.  O(n) with no re-sort, since a subset of
    the sorted duplicate-free list is itself sorted and duplicate-free. *)

val equal : t -> t -> bool
(** Same tuple sets (schemas are not compared beyond arity). *)

val union : t -> t -> t
(** Linear merge of the two sorted sides (keeps the left schema).
    Raises [Invalid_argument] if the operand arities differ. *)

val diff : t -> t -> t
val inter : t -> t -> t
(** Index the right side's columns and probe them per left row, keeping
    the left side's canonical order.  Raise [Invalid_argument] if the
    operand arities differ. *)

val compare_tuples : tuple -> tuple -> int

val pp : Format.formatter -> t -> unit
(** Tabular dump, one tuple per line. *)
