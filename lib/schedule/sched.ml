(** TE schedules: the tiling/binding decisions an auto-scheduler (Ansor in
    the paper) makes for one TE, together with the derived resource usage
    the §5.4 partitioner needs (launch dimension, shared memory, registers).

    The schedule language mirrors the TVM primitives used in Fig. 2:
    [split] (the [tile]/[rtile] factors), [bind] (block/thread binding is
    implied by the tile structure), [cache_read] ([cache_read_smem]) and
    tensorization ([use_tensor_core]). *)

type t = {
  te_name : string;
  tile : int array;          (** output-space tile, one factor per dim *)
  rtile : int array;         (** reduction-space tile *)
  rsplit : int;              (** cross-block reduction split: the two-phase
                                 block-local + atomicAdd scheme of §6.3;
                                 1 = single-phase *)
  threads_per_block : int;
  use_tensor_core : bool;
  cache_read_smem : bool;    (** stage input tiles through shared memory *)
  compute_eff : float;       (** achieved fraction of pipeline peak *)
}

(** Blocks in the launch grid: one block per output tile, times the
    reduction split. *)
let grid_blocks (te : Te.t) (s : t) : int =
  let g = ref (max 1 s.rsplit) in
  Array.iteri
    (fun i d -> g := !g * ((d + s.tile.(i) - 1) / s.tile.(i)))
    te.Te.out_shape;
  !g

let tile_elems s = Array.fold_left ( * ) 1 s.tile

(* ---- input-tile footprint ------------------------------------------- *)

(* One tensor read, resolved for tiling once per TE: the distinct
   iteration and reduction variables its indices use, and the tensor's
   total size as the cap ([max_int] when unknown).  Var-set accounting
   (rather than per-dimension products) stays correct for composite
   div/mod indices where the same variable appears in several dimensions
   (reshape/transpose folds). *)
type read_plan = { outs : int array; reds : int array; cap : int }

(** A TE body's input-tile footprint with everything that does not depend
    on the schedule resolved: reads summed across [Binop]s, the larger of
    two [Select] branches taken (branches with disjoint predicates —
    horizontal merges, padding guards — are walked by different blocks,
    never by one).  Built once per TE, evaluated once per candidate
    schedule. *)
type tile_plan = Read of read_plan | Sum of tile_plan list | Max of tile_plan * tile_plan

let read_plan ?numel (idxs : Index.t list) : read_plan =
  let outs, reds =
    List.fold_left
      (fun acc idx ->
        Index.fold_vars
          (fun (o, r) v ->
            match v with `Out k -> (k :: o, r) | `Red k -> (o, k :: r))
          acc idx)
      ([], []) idxs
  in
  let uniq l = Array.of_list (List.sort_uniq Int.compare l) in
  {
    outs = uniq outs;
    reds = uniq reds;
    cap = (match numel with Some n -> max 1 n | None -> max_int);
  }

let read_elems (s : t) (r : read_plan) : int =
  let prod = ref 1 in
  Array.iter
    (fun k ->
      if k < Array.length s.tile then prod := !prod * max 1 s.tile.(k))
    r.outs;
  Array.iter
    (fun k ->
      if k < Array.length s.rtile then prod := !prod * max 1 s.rtile.(k))
    r.reds;
  min !prod r.cap

(** Elements of one input tile: the product of the tile factors of the
    distinct variables the access uses, capped at [numel]. *)
let input_tile_elems ?numel (s : t) (idxs : Index.t list) : int =
  read_elems s (read_plan ?numel idxs)

let numel_of_program (p : Program.t) : string -> int option =
 fun name ->
  Option.map
    (fun (i : Program.tensor_info) -> Shape.numel i.Program.shape)
    (Program.tensor_info p name)

(** Resolve [te]'s body into its {!tile_plan}; each read is capped by its
    tensor's size in [p]. *)
let tile_plan (p : Program.t) (te : Te.t) : tile_plan =
  let rec terms e acc =
    match e with
    | Expr.Read (name, idxs) ->
        Read (read_plan ?numel:(numel_of_program p name) idxs) :: acc
    | Expr.Const _ | Expr.IdxVal _ -> acc
    | Expr.Unop (_, a) -> terms a acc
    | Expr.Binop (_, a, b) -> terms a (terms b acc)
    | Expr.Select (_, a, b) -> Max (plan a, plan b) :: acc
  and plan e = match terms e [] with [ t ] -> t | ts -> Sum ts in
  plan (Te.body_expr te)

let rec plan_tile_elems (s : t) (pl : tile_plan) : int =
  match pl with
  | Read r -> read_elems s r
  | Sum ts -> List.fold_left (fun acc t -> acc + plan_tile_elems s t) 0 ts
  | Max (a, b) -> max (plan_tile_elems s a) (plan_tile_elems s b)

(** Shared memory one block needs when its input tiles hold [in_elems]
    elements: the output tile plus (when staging reads) the input tiles of
    one branch of the body, double-buffered for the async-copy pipeline.
    [in_elems] is ignored when the schedule does not stage its reads. *)
let smem_bytes_of_elems (te : Te.t) (s : t) ~(in_elems : int) : int =
  let elem_bytes = Dtype.bytes te.Te.dtype in
  let out = tile_elems s * elem_bytes in
  let ins = if not s.cache_read_smem then 0 else in_elems * elem_bytes in
  out + (2 * ins)

(** {!smem_bytes_of_elems} for a one-off query: the plan is only resolved
    when the schedule stages its reads at all. *)
let smem_bytes (p : Program.t) (te : Te.t) (s : t) : int =
  let in_elems =
    if s.cache_read_smem then plan_tile_elems s (tile_plan p te) else 0
  in
  smem_bytes_of_elems te s ~in_elems

(** Bytes one full pass of a reduction TE loads through its tiles (the
    block-by-block traffic; anything beyond the unique footprint hits L2),
    given the per-block input-tile elements. *)
let tiled_load_bytes_of_elems (te : Te.t) (s : t) ~(in_elems : int) : int =
  in_elems * Dtype.bytes te.Te.dtype * grid_blocks te s

(** Registers per thread: accumulator fragment plus addressing/loop
    overhead. *)
let regs_per_thread (s : t) : int =
  let acc_per_thread = tile_elems s / max 1 s.threads_per_block in
  min 255 (16 + (2 * max 1 acc_per_thread))

let usage_of_elems (te : Te.t) (s : t) ~(in_elems : int) : Occupancy.usage =
  {
    Occupancy.threads_per_block = s.threads_per_block;
    smem_per_block = smem_bytes_of_elems te s ~in_elems;
    regs_per_thread = regs_per_thread s;
  }

let usage (p : Program.t) (te : Te.t) (s : t) : Occupancy.usage =
  {
    Occupancy.threads_per_block = s.threads_per_block;
    smem_per_block = smem_bytes p te s;
    regs_per_thread = regs_per_thread s;
  }

(** Structural tensor-core eligibility: a sum-reduction whose body is a
    product of two reads (GEMM-shaped).  The paper runs GEMMs in FP16 on
    tensor cores and everything else in FP32 (§7.1); batch-1 GEMV has too
    little parallelism per fragment row, so it stays on CUDA cores. *)
let tensor_core_eligible (te : Te.t) : bool =
  match te.Te.body with
  | Te.Reduce { op = Te.Sum; expr; _ } -> (
      let rec is_mul_of_reads = function
        | Expr.Binop (Expr.Mul, a, b) -> is_read_like a && is_read_like b
        | Expr.Select (_, a, b) -> is_mul_of_reads a && is_mul_of_reads b
        | _ -> false
      and is_read_like = function
        | Expr.Read _ -> true
        | Expr.Select (_, a, b) -> is_read_like a && is_read_like b
        | Expr.Const _ -> true
        | _ -> false
      in
      (* the wmma fragment tiles the two innermost output dims; batch
         dims may be small, GEMV-like outputs (a dim < 16) may not *)
      let r = Te.rank te in
      r >= 2
      && te.Te.out_shape.(r - 1) >= 16
      && te.Te.out_shape.(r - 2) >= 16
      && is_mul_of_reads expr)
  | _ -> false

(** Trivial schedule for memory-intensive TEs that stay un-fused: one
    256-thread block per 4096-element slab, no staging. *)
let default_elementwise (te : Te.t) : t =
  let shape = te.Te.out_shape in
  let rank = Array.length shape in
  let tile =
    Array.mapi
      (fun i d -> if i = rank - 1 then min d 4096 else 1)
      shape
  in
  {
    te_name = te.Te.name;
    tile = (if rank = 0 then [||] else tile);
    rtile = Array.map (fun d -> min d 64) (Te.reduce_axes te);
    rsplit = 1;
    threads_per_block = 256;
    use_tensor_core = false;
    cache_read_smem = false;
    compute_eff = 0.7;
  }

let pp ppf s =
  Fmt.pf ppf "sched(%s) tile=%a rtile=%a threads=%d%s%s eff=%.2f" s.te_name
    Fmt.(array ~sep:(any "x") int) s.tile
    Fmt.(array ~sep:(any "x") int) s.rtile
    s.threads_per_block
    (if s.use_tensor_core then " wmma" else "")
    (if s.cache_read_smem then " cache_read" else "")
    s.compute_eff
