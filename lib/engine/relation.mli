(** In-memory relations.

    Relations have set semantics: construction deduplicates tuples, which
    is what guarantees termination of the fixpoint operator (paper §3.2).
    A tuple is a list of {!Value.t}, one per schema attribute.

    Next to the canonical sorted tuple list every relation carries a
    lazily-built hash-set view (tuples keyed by a precomputed hash
    compatible with {!compare_tuples}), so {!mem}, {!diff}, {!inter} and
    the fixpoint freshness checks are O(1) per tuple instead of a scan,
    and cardinality is cached at construction.  The hash-set view and
    the columnar shadow are both built on first use, and the query
    server's connection threads may force them concurrently on the
    relations of a shared snapshot. *)

module Value = Eds_value.Value
module Schema = Eds_lera.Schema

type tuple = Value.t list

(** Hashtables keyed on whole tuples ({!compare_tuples} equality,
    a hash compatible with it, numeric [Int]/[Real] and [Enum]/[Str]
    cross-equalities included).  Shared by the hash-join machinery and the
    nest-grouping path of the evaluator. *)
module Tuple_tbl : Hashtbl.S with type key = tuple

type index
(** The hash-set view of a relation's tuples. *)

type 'a memo
(** A view derived from the tuples on first use.  Forcing it from
    several threads at once is safe: every racer computes the view and
    one compare-and-set publishes it, so all readers see the same
    value.  Nothing is built eagerly on construction. *)

type t = private {
  schema : Schema.t;
  tuples : tuple list;  (** sorted, duplicate-free *)
  card : int;  (** [List.length tuples], cached *)
  index : index memo;  (** hash-set over [tuples] *)
  cols : Column.table option memo;
      (** typed columnar shadow; [None] when the schema or the values
          disqualify (see {!Column.of_tuples}) *)
}

val make : Schema.t -> tuple list -> t
(** Sorts and deduplicates.  Raises [Invalid_argument] if a tuple's width
    differs from the schema's arity. *)

val empty : Schema.t -> t

val with_schema : Schema.t -> t -> t
(** Retag under a same-arity schema, sharing tuples and the derived
    index/columnar views (all schema-name-independent).  O(1); raises
    [Invalid_argument] on arity mismatch. *)

val cardinality : t -> int
val is_empty : t -> bool

val mem : tuple -> t -> bool
(** O(1) expected: probes the hash-set view. *)

val columns : t -> Column.table option
(** The columnar shadow of the tuples, built on first use; [None] when
    the relation does not qualify.  Safe to call from several threads
    at once, like {!mem}. *)

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
(** Hash-probe the right side per left tuple.  Raise [Invalid_argument]
    if the operand arities differ. *)

val compare_tuples : tuple -> tuple -> int

val pp : Format.formatter -> t -> unit
(** Tabular dump, one tuple per line. *)
