(** Souffle: the end-to-end top-down compilation pipeline (§4, Algorithm 1).

    Typical use:
    {[
      let report = Souffle.compile (Lower.run graph) in
      Fmt.pr "%a@." Souffle.summary report
    ]} *)

(** Optimization levels reproducing Table 4's ablation.  Each level includes
    the previous ones. *)
type level =
  | V0  (** plain TVM+Ansor codegen: epilogue fusion only *)
  | V1  (** + horizontal TE transformation (§6.1) *)
  | V2  (** + vertical TE transformation (§6.2) *)
  | V3  (** + resource-aware partitioning with grid synchronization (§5.4, §6.4) *)
  | V4  (** + subprogram-level pipelining and LRU tensor reuse (§6.5) *)

val level_to_string : level -> string
val level_rank : level -> int

val level_of_rank : int -> level
(** Inverse of {!level_rank}; ranks above 4 clamp to {!V4}. *)

type config = {
  device : Device.t;
  level : level;
  ansor : Ansor.config;
      (** the cost-model configuration schedules are constructed under
          ([Construct]); a failing constructive pass is retried on the
          enumerative search's reduced candidate set before anything
          degrades *)
  batch : int;
      (** batch lanes to compile the program at ({!Batch.apply} runs before
          any analysis); 1 compiles the program exactly as given *)
  pos : int;
      (** sequence-position bucket the program was constructed at (KV-cache
          length of a decode step); 0 means "static shape".  Purely an
          artifact-identity discriminator — the pipeline never rewrites
          the program by position *)
  mega : bool;
      (** also lower the compiled program into one persistent task-graph
          kernel ({!Megakernel}); the report's [mega] field carries the
          verified graph and its simulation *)
}

val default_config : config
(** A100, level V4, default scheduler efficiency, batch 1, position 0,
    mega off. *)

val config :
  ?device:Device.t ->
  ?level:level ->
  ?ansor:Ansor.config ->
  ?batch:int ->
  ?pos:int ->
  ?mega:bool ->
  unit ->
  config

(** One step of the graceful-degradation ladder: [d_subject] (the whole
    program, or one subprogram's head TE) was retried at [d_to] after
    [d_pass] failed at [d_from]. *)
type degradation = {
  d_subject : string;
  d_pass : Diag.pass;
  d_from : level;
  d_to : level;
  d_reason : string;
}

val pp_degradation : Format.formatter -> degradation -> unit

(** The mega-kernelization of a compiled program: the verified persistent
    task graph ({!Kernel_ir.taskgraph}) and its solo simulation — one
    launch charge total, [Grid_sync] barriers replaced by graph edges,
    independent tasks overlapping under the multi-stream contention model.
    Present in a report only when the compile ran with [cfg.mega] and the
    lowering passed {!Verify_ir} feasibility and {!Dataflow} provenance
    re-verification; a rejected lowering degrades to the multi-kernel
    program with warning diagnostics. *)
type mega_result = { m_graph : Kernel_ir.taskgraph; m_sim : Sim.result }

(** Everything the pipeline produced, from the analyzed input program to the
    simulated execution. *)
type report = {
  cfg : config;
  original : Program.t;
  transformed : Program.t;  (** after horizontal + vertical transformation *)
  analysis : Analysis.t;
  partition : Partition.t option;  (** [None] below V3 *)
  groups : Emit.group list;        (** one subprogram-level group per kernel
                                       before any degradation splits *)
  prog : Kernel_ir.prog;
  sim : Sim.result;
  mega : mega_result option;
      (** the persistent-kernel lowering, when [cfg.mega] and verified *)
  scheds : (string, Sched.t) Hashtbl.t;
      (** the schedule table of the successful attempt, keyed by TE name —
          kept so downstream renderings ({!te_loop_nests}) never re-run the
          Ansor search *)
  hstats : Horizontal.stats;
  vstats : Vertical.stats;
  compile_s : float;  (** wall-clock seconds spent in Souffle's own passes *)
  diags : Diag.t list;  (** every diagnostic any pass reported, in order *)
  degraded : degradation list;
      (** recovery steps taken; empty on a clean compile *)
}

val ansor_groups : Program.t -> Emit.group list
(** TVM/Ansor-style kernel grouping (each reduction absorbs its
    one-relies-on-one consumers); the V0..V2 grouping, also used by the
    Ansor baseline. *)

val ansor_groups_of_tes : Te.t list -> Emit.group list
(** {!ansor_groups} over an explicit TE list — how a cooperative subprogram
    is re-grouped when it degrades below V3. *)

val dataflow_env : Program.t -> Dataflow.env
(** The cross-kernel dataflow verifier's view of a TE program: inputs are
    DRAM-resident from the start, every other tensor's byte footprint comes
    from its [tensor_info].  Built from the $(i,transformed) program when
    checking a compiled report. *)

val compile_result :
  ?cfg:config -> ?strict:bool -> Program.t -> (report, Diag.t list) result
(** Total compilation with per-subprogram graceful degradation: when a pass
    raises (or a fault is injected, or the kernel-IR verifier rejects an
    emitted kernel), the failing unit is retried one optimization level
    lower (V4 -> V3 -> ... -> V0) instead of aborting, and the step is
    recorded in the report's [degraded] / [diags].  Returns [Error] only
    for an invalid input program, a subprogram that still fails at V0, or —
    with [strict] (default false) — any degradation at all. *)

val compile : ?cfg:config -> Program.t -> report
(** {!compile_result} with failures raised.
    @raise Invalid_argument if the program fails {!Program.validate} or
    cannot be compiled even with full degradation. *)

val compile_graph : ?cfg:config -> Dgraph.t -> report
(** [compile] composed with {!Lower.run}. *)

val verify : ?rtol:float -> report -> (unit, string) result
(** Check that the transformed program computes the same outputs as the
    original, via the reference interpreter on random inputs.  Intended for
    tests and small programs (the interpreter walks every tensor element). *)

val time_ms : report -> float
(** Simulated end-to-end latency. *)

val num_kernels : report -> int

val summary : Format.formatter -> report -> unit
(** Human-readable compile summary (TE counts, kernels, traffic, time). *)

val kernel_report : report -> Kreport.row list
(** Per-kernel counter rows: the {!Kreport} join of the simulator's
    Nsight-style counters with kernel identity (subprogram index encoded in
    the kernel name, member TE names, launch configuration). *)

val kernel_report_json : ?model:string -> report -> string
(** {!kernel_report} as JSON, stamped with model name, optimization level,
    device, and degradation count — the machine-readable form behind the
    bench tables. *)

val pp_kernel_report : Format.formatter -> report -> unit
(** {!kernel_report} as an aligned text table (the [--profile] view). *)

val cuda_source : report -> string
(** The generated kernels rendered as CUDA-flavoured source (Fig. 2 step 5
    style); documentation output, the simulator runs the kernel IR. *)

val te_loop_nests : ?limit:int -> report -> string
(** Per-TE TensorIR loop nests (tile loops bound to blockIdx/threadIdx,
    reduction splits, shared-memory staging) for the first [limit] TEs. *)

(** Compile-once artifact store: reports memoized by (model name,
    optimization level, batch, position bucket, mega), shared across
    benchmark tables and serving requests so each shape-polymorphic
    variant is compiled exactly once. *)
module Artifacts : sig
  type t

  val create : unit -> t

  val find :
    t ->
    ?batch:int ->
    ?pos:int ->
    ?mega:bool ->
    name:string ->
    level:level ->
    unit ->
    report option

  val add :
    t ->
    ?batch:int ->
    ?pos:int ->
    ?mega:bool ->
    name:string ->
    level:level ->
    report ->
    unit

  val size : t -> int
  (** Number of distinct (name, level, batch, pos, mega) entries compiled
      so far. *)

  val get :
    t ->
    ?cfg:config ->
    ?strict:bool ->
    name:string ->
    (unit -> Program.t) ->
    (report, Diag.t list) result
  (** Cached compile: the stored report for (name, [cfg.level],
      [cfg.batch], [cfg.pos], [cfg.mega]) if present, otherwise
      {!compile_result} on [gen ()], storing the result.  Model names are
      case-insensitive,
      matching {!Zoo.find}. *)
end
