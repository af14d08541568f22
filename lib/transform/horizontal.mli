(** Horizontal TE transformation (§6.1, Fig. 3).

    Independent TEs with identical body structure merge into a single TE
    whose output concatenates theirs along axis 0, with [if_then_else]
    predicates selecting per-branch inputs; consumers are rewritten to read
    through the concatenated tensor.  Grouping is restricted to TEs at the
    same dependency depth (the wavefront structure of Fig. 7: QKV
    projections, LSTM diagonals, MoE experts, grouped-conv branches). *)

val depths : Program.t -> int array
(** Longest producer chain from the inputs, per TE in program order.  Equal
    depth implies mutual unreachability. *)

val max_group_members : int
(** Cap on merged-group size, bounding the fused kernel's grid the same way
    the paper's per-subprogram scope does. *)

type stats = { groups_merged : int; tes_eliminated : int }

val apply : Program.t -> Program.t * stats
(** Merge every group, rewrite consumers, and order the result by
    dependency depth (wavefront order, stable within a wave).
    @raise Invalid_argument when a read is neither a program input nor
    produced at a lower depth. *)

val apply_result : Program.t -> (Program.t * stats, Diag.t) result
(** {!apply} with escaped exceptions (and injected faults) converted to a
    typed diagnostic instead of aborting the compilation. *)
