(** Equi-join extraction and hash-join execution for the indexed
    physical evaluator ({!Eval.Physical.Indexed}).

    A Search/Join qualification is split into equi-join conjuncts
    ([i.j = k.l] across two distinct operands) and a residual
    conjunction; execution then enumerates only the combinations
    satisfying every equi conjunct — hash-index build on each new
    operand, probe from the accumulated partials — instead of the full
    cartesian product, and the caller post-filters with the residual.
    It is the only hash-join executor; a search without an equi
    conjunct keeps the cartesian enumerator of {!Eval.Physical.Naive}. *)

module Lera = Eds_lera.Lera

type equi = {
  left : int * int;  (** (operand, column), 1-based; the lower operand *)
  right : int * int;
}

type t = {
  operands : int;
  equis : equi list;
  residual : Lera.scalar;  (** conjunction of the non-equi conjuncts *)
}

val analyze : arities:int array -> Lera.scalar -> t
(** Classify the top-level conjuncts of a qualification over operands
    of the given arities.  Conjuncts whose shape is not [Col = Col]
    across two distinct operands, both columns in range, land in the
    residual. *)

val residual : t -> Lera.scalar
val equi_count : t -> int
val has_equis : t -> bool

val execute_columnar :
  on_build:(unit -> unit) ->
  on_probe:(unit -> unit) ->
  t ->
  Column.table array ->
  (int array -> unit) ->
  unit
(** [execute_columnar ~on_build ~on_probe plan tables yield] calls
    [yield rows] once per operand combination satisfying every equi
    conjunct (the residual is {e not} applied).  Enumeration runs over
    the column arrays: probe keys hash and compare as packed ints on
    typed columns, and [rows] holds the per-operand {e row numbers}
    ([rows.(k)] indexes operand [k]'s table) so the caller materializes
    boxed tuples only for the combinations it keeps.  [rows] is a
    reused cursor: read it during the callback, don't keep it.
    [on_build] fires once per row loaded into a hash index, [on_probe]
    once per index lookup; a single-row operand is compared directly
    and counts neither.  Returns at once, building nothing, if any
    operand is empty.  Precondition: {!has_equis}. *)
