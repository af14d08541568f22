(** Vertical TE transformation (§6.2, Fig. 4).

    Collapses chains of one-relies-on-one TEs into single semantically
    equivalent TEs by composing their index mapping functions (Eq. 2),
    and folds pure data-movement TEs (reshape, transpose, slice) into their
    consumers — including reduction consumers, which is how Souffle
    "eventually eliminates all element-wise memory operators" (§2.3). *)

val inline_read : Te.t -> Expr.t -> Expr.t
(** Substitute every read of the producer's output by its body with output
    variables replaced by the access indices.  The producer must be a
    [Compute] TE. *)

val fuse : producer:Te.t -> consumer:Te.t -> Te.t
(** One inlining step, with quasi-affine simplification of the composed
    indices against the consumer's iteration space. *)

type stats = { chains_fused : int; movement_folded : int }

val apply : ?fold_into_reduce:bool -> Program.t -> Program.t * stats
(** Inline in rounds to a fixpoint, at most 65 rounds.  Each round selects
    from the consumer tallies at its start, inlines the selected TEs that
    have no selected input (chains resolve bottom-up, one link per round),
    and folds each consumer's inlined producers in sorted-input order.
    Tallies, consumer lists and selections are maintained incrementally,
    so a round costs what it rewrites.  [fold_into_reduce] (default true)
    additionally folds data-movement producers into reduction consumers;
    baselines that cannot fuse across reductions disable it. *)

val apply_result :
  ?fold_into_reduce:bool -> Program.t -> (Program.t * stats, Diag.t) result
(** {!apply} with escaped exceptions (and injected faults) converted to a
    typed diagnostic instead of aborting the compilation. *)
