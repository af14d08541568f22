(** Kernel emission: turn a partitioned, scheduled TE program into the
    simulator's {!Kernel_ir.prog}.

    This layer realizes §6.3–§6.5: memory-intensive TEs are attached to the
    stages of their compute-intensive producers (schedule propagation),
    stages of one cooperative kernel are separated by [grid.sync], fused
    reductions produce block-local partials plus [atomicAdd], the §6.5 LRU
    shared-memory cache decides which intermediate tensors ever touch
    global memory, and pipelining overlaps loads with tensor-core math.

    Baselines reuse this emitter with different groupings and options, so
    every system is costed by the same model. *)

module SMap = Program.SMap
module SSet = Program.SSet

type group = {
  g_tes : string list;       (** member TE names, program order *)
  cooperative : bool;        (** single kernel with grid.sync allowed *)
  library_call : bool;       (** opaque vendor kernel (cuBLAS-style) *)
  eff_override : float option;
}

let group_of_subprogram (sp : Partition.subprogram) : group =
  {
    g_tes = Partition.te_names sp;
    cooperative = sp.Partition.cooperative;
    library_call = false;
    eff_override = None;
  }

type options = {
  attach_epilogue : bool;   (** one-relies-on-one TEs join producer stages *)
  attach_prologue : bool;   (** ... or the next anchor stage *)
  reuse_cache : bool;       (** §6.5 LRU shared-memory tensor cache *)
  pipeline : bool;          (** §6.5 cross-TE load/compute overlap *)
  mem_eff : float;          (** achieved DRAM bandwidth fraction *)
  movement_mem_eff : float; (** ... for strided layout stages *)
  cache_capacity_frac : float;
      (** fraction of aggregate shared memory usable as tensor cache *)
  concurrent_stages : bool;
      (** model a group of independent TEs as co-scheduled rTasks filling
          the device together (Rammer) rather than as sequential stages *)
}

let default_options =
  {
    attach_epilogue = true;
    attach_prologue = true;
    reuse_cache = true;
    pipeline = true;
    mem_eff = 0.85;
    movement_mem_eff = 0.45;
    cache_capacity_frac = 0.5;
    concurrent_stages = false;
  }

(* ------------------------------------------------------------------ *)

type stage_build = {
  sidx : int;                    (* position in the kernel's stage list *)
  anchor : Te.t;
  mutable smembers : Te.t list;  (* reverse order, includes anchor *)
}

(* Split a group's TEs into stages: every reduction anchors a stage;
   one-relies-on-one TEs attach to their producer's stage (epilogue) or are
   held for the next anchor (prologue). *)
let build_stages (opts : options) (tes : Te.t list) : Te.t list list =
  let stages : stage_build list ref = ref [] in  (* newest first *)
  let n_stages = ref 0 in
  let stage_of : (string, stage_build) Hashtbl.t = Hashtbl.create 16 in
  let pending = ref [] in
  let pending_names = ref SSet.empty in
  let new_stage (anchor : Te.t) =
    let absorbed = List.rev !pending in
    pending := [];
    pending_names := SSet.empty;
    let sb = { sidx = !n_stages; anchor; smembers = anchor :: List.rev absorbed } in
    incr n_stages;
    stages := sb :: !stages;
    List.iter
      (fun (te : Te.t) -> Hashtbl.replace stage_of te.Te.name sb)
      (anchor :: absorbed)
  in
  List.iter
    (fun (te : Te.t) ->
      if Te.has_reduction te then new_stage te
      else begin
        (* the latest stage holding one of the producers *)
        let producer_stage =
          List.fold_left
            (fun acc i ->
              match (Hashtbl.find_opt stage_of i, acc) with
              | Some sb, Some best when sb.sidx <= best.sidx -> acc
              | Some sb, _ -> Some sb
              | None, _ -> acc)
            None (Te.inputs te)
        in
        let producer_pending =
          List.exists (fun i -> SSet.mem i !pending_names) (Te.inputs te)
        in
        if producer_pending then begin
          pending := te :: !pending;
          pending_names := SSet.add te.Te.name !pending_names
        end
        else if opts.attach_epilogue && producer_stage <> None then begin
          let sb = Option.get producer_stage in
          (* compute_at only works when the consumer's iteration space is
             no larger than the producer's: a broadcast consumer (e.g. the
             squeeze-excite channel scale) cannot inline *)
          if Te.out_numel te <= Te.out_numel sb.anchor then begin
            sb.smembers <- te :: sb.smembers;
            Hashtbl.replace stage_of te.Te.name sb
          end
          else if opts.attach_prologue then begin
            pending := te :: !pending;
            pending_names := SSet.add te.Te.name !pending_names
          end
          else new_stage te
        end
        else if opts.attach_prologue then begin
          pending := te :: !pending;
          pending_names := SSet.add te.Te.name !pending_names
        end
        else new_stage te
      end)
    tes;
  (* leftover prologue TEs with no anchor behind them form a final stage *)
  (if !pending <> [] then
     match List.rev !pending with
     | first :: rest ->
         pending := List.rev rest;
         pending_names :=
           SSet.of_list (List.map (fun (te : Te.t) -> te.Te.name) rest);
         new_stage first
     | [] -> ());
  List.rev_map (fun sb -> List.rev sb.smembers) !stages

(* ------------------------------------------------------------------ *)

let tensor_bytes (p : Program.t) name =
  let info = Program.tensor_info_exn p name in
  Shape.numel info.Program.shape * Dtype.bytes info.Program.dtype

(** Emit the single kernel of one group ([index] numbers it within the
    program, for naming).  This is the unit the per-subprogram degradation
    ladder retries: every call re-derives its own state, so re-emitting one
    group under different options cannot disturb its neighbours. *)
let emit_kernel (dev : Device.t) (p : Program.t) (an : Analysis.t)
    (scheds : (string, Sched.t) Hashtbl.t) (opts : options) ~(index : int)
    (g : group) : Kernel_ir.kernel =
  let outputs = SSet.of_list p.Program.outputs in
  let consumers = Program.consumers p in
  let sched name =
    match Hashtbl.find_opt scheds name with
    | Some s -> s
    | None -> Sched.default_elementwise (Program.find_te_exn p name)
  in
  (* input-tile elements of a stage anchor; its tile plan is resolved once
     and serves both the L2 re-read traffic and the launch's shared
     memory *)
  let plans : (string, Sched.tile_plan) Hashtbl.t = Hashtbl.create 16 in
  let in_elems (te : Te.t) (s : Sched.t) =
    let plan =
      match Hashtbl.find_opt plans te.Te.name with
      | Some pl -> pl
      | None ->
          let pl = Sched.tile_plan p te in
          Hashtbl.add plans te.Te.name pl;
          pl
    in
    Sched.plan_tile_elems s plan
  in
  let smem_bytes (te : Te.t) (s : Sched.t) =
    Sched.smem_bytes_of_elems te s
      ~in_elems:(if s.Sched.cache_read_smem then in_elems te s else 0)
  in
  let cache =
    Reuse_cache.create
      ~capacity:
        (int_of_float
           (opts.cache_capacity_frac *. float_of_int (Device.total_smem dev)))
  in
  let kernel =
    let gi = index in
    (fun (g : group) ->
        let tes = List.map (Program.find_te_exn p) g.g_tes in
        let stages_tes =
          if opts.concurrent_stages then [ tes ] else build_stages opts tes
        in
        (* per-kernel state *)
        Reuse_cache.clear cache;
        let touched = ref SSet.empty in
        let stage_of : (string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iteri
          (fun si tl ->
            List.iter
              (fun (te : Te.t) -> Hashtbl.replace stage_of te.Te.name si)
              tl)
          stages_tes;
        (* every member sits in exactly one stage *)
        let is_member name = Hashtbl.mem stage_of name in
        (* whether [te]'s output is read outside this kernel (or is a
           program output), and whether a later stage of it reads it *)
        let consumed (te : Te.t) si =
          List.fold_left
            (fun (outside, later) (c : Te.t) ->
              match Hashtbl.find_opt stage_of c.Te.name with
              | Some sj -> (outside, later || sj > si)
              | None -> (true, later))
            (SSet.mem te.Te.name outputs, false)
            (Option.value ~default:[] (SMap.find_opt te.Te.name consumers))
        in
        let kstages =
          List.mapi
            (fun si stage_members ->
              let anchor = List.hd stage_members in
              let anchor =
                (* prefer a reduction anchor if present *)
                match List.find_opt Te.has_reduction stage_members with
                | Some r -> r
                | None -> anchor
              in
              let asched = sched anchor.Te.name in
              let instrs = ref [] in
              let push i = instrs := i :: !instrs in
              (* on-device intermediate (some TE produced it earlier in the
                 program, so it is already materialized): an L2 re-read when
                 it fits, a DRAM round trip when it does not — never a
                 first-touch ldg.  The armed mistag fault deliberately
                 breaks this classification so the dataflow verifier can be
                 exercised end to end. *)
              let push_ondevice ~tensor bytes =
                if bytes <= dev.Device.l2_bytes && not (Faultinject.mistag_load ())
                then push (Kernel_ir.ldl2 ~tensor bytes)
                else push (Kernel_ir.ldg ~tensor bytes)
              in
              (* dependent stages in a cooperative kernel synchronize *)
              if si > 0 && g.cooperative then begin
                let reads_earlier =
                  List.exists
                    (fun (te : Te.t) ->
                      List.exists
                        (fun i ->
                          match Hashtbl.find_opt stage_of i with
                          | Some sj -> sj < si
                          | None -> false)
                        (Te.inputs te))
                    stage_members
                in
                if reads_earlier then push Kernel_ir.Grid_sync
              end;
              List.iter
                (fun (te : Te.t) ->
                  let my_stage = Hashtbl.find stage_of te.Te.name in
                  (* ---- reads ---- *)
                  List.iter
                    (fun input ->
                      let bytes = tensor_bytes p input in
                      let input_stage = Hashtbl.find_opt stage_of input in
                      if input_stage = Some my_stage then
                        (* producer in the same fused stage: register/smem *)
                        push (Kernel_ir.lds ~tensor:input bytes)
                      else begin
                        let in_kernel = Option.is_some input_stage in
                        let produced = Program.producer p input <> None in
                        if
                          in_kernel && opts.reuse_cache
                          && Reuse_cache.touch cache input = Reuse_cache.Hit
                        then push (Kernel_ir.lds ~tensor:input bytes)
                        else if produced then
                          (* an earlier kernel/stage materialized it — this
                             also covers the reuse-cache bypass (a miss or
                             the cache disabled below V4), which must not
                             fall back to a DRAM first touch *)
                          push_ondevice ~tensor:input bytes
                        else if SSet.mem input !touched then begin
                          (* program input re-read within this kernel *)
                          if bytes <= dev.Device.l2_bytes then
                            push (Kernel_ir.ldl2 ~tensor:input bytes)
                          else push (Kernel_ir.ldg ~tensor:input bytes)
                        end
                        else begin
                          touched := SSet.add input !touched;
                          push (Kernel_ir.ldg ~tensor:input bytes)
                        end
                      end)
                    (Te.inputs te);
                  (* tiling re-reads of the anchor's inputs hit L2 *)
                  if te.Te.name = anchor.Te.name && Te.has_reduction te then begin
                    let unique =
                      List.fold_left
                        (fun acc i -> acc + tensor_bytes p i)
                        0 (Te.inputs te)
                    in
                    let extra =
                      Sched.tiled_load_bytes_of_elems te asched
                        ~in_elems:(in_elems te asched)
                      - unique
                    in
                    (* aggregate over several tensors: left untagged *)
                    if extra > 0 then push (Kernel_ir.ldl2 extra)
                  end;
                  (* ---- compute ---- *)
                  let evals = Te.out_numel te * max 1 (Te.reduce_domain te) in
                  let sfu = Expr.sfu_count (Te.body_expr te) * evals in
                  let total = Te.arith_ops te in
                  let mainline = max 0 (total - (4 * sfu)) in
                  if (sched te.Te.name).Sched.use_tensor_core then
                    push (Kernel_ir.Mma { flops = mainline })
                  else if mainline > 0 then
                    push (Kernel_ir.Fma { flops = mainline });
                  if sfu > 0 then push (Kernel_ir.Sfu { ops = sfu });
                  (* fused memory-side reductions reduce across blocks with
                     atomics (two-phase reduction, §6.3) *)
                  let te_sched = sched te.Te.name in
                  let is_fused_reduction =
                    Te.has_reduction te
                    && ((g.cooperative
                         && (Analysis.info an te.Te.name).Analysis.kind
                            = Intensity.Memory_intensive
                         && List.exists
                              is_member
                              (Te.inputs te))
                        || te_sched.Sched.rsplit > 1)
                  in
                  (* ---- writes ---- *)
                  let out_bytes = Te.out_numel te * Dtype.bytes te.Te.dtype in
                  let outside, later = consumed te my_stage in
                  if is_fused_reduction then begin
                    push
                      (Kernel_ir.atomic_add ~tensor:te.Te.name
                         (out_bytes * max 1 te_sched.Sched.rsplit));
                    if opts.reuse_cache && later then
                      ignore
                        (Reuse_cache.insert cache ~tensor:te.Te.name
                           ~bytes:out_bytes ~dirty:false)
                  end
                  else if outside then begin
                    push (Kernel_ir.stg ~tensor:te.Te.name out_bytes);
                    if opts.reuse_cache && later then
                      ignore
                        (Reuse_cache.insert cache ~tensor:te.Te.name
                           ~bytes:out_bytes ~dirty:false)
                  end
                  else if later then begin
                    if opts.reuse_cache then begin
                      match
                        Reuse_cache.insert cache ~tensor:te.Te.name
                          ~bytes:out_bytes ~dirty:true
                      with
                      | Reuse_cache.Inserted | Reuse_cache.Hit
                      | Reuse_cache.Miss -> ()
                      | Reuse_cache.Rejected ->
                          push (Kernel_ir.stg ~tensor:te.Te.name out_bytes)
                      | Reuse_cache.Spilled victims ->
                          (* write back dirty victims, with a barrier *)
                          List.iter
                            (fun (v, vbytes) ->
                              push (Kernel_ir.stg ~tensor:v vbytes))
                            victims;
                          push Kernel_ir.Block_sync
                    end
                    else push (Kernel_ir.stg ~tensor:te.Te.name out_bytes)
                  end
                  (* else: consumed only within this stage — never
                     materialized at all *))
                stage_members;
              let is_movement =
                (not (Te.has_reduction anchor))
                && Expr.is_data_movement (Te.body_expr anchor)
              in
              let compute_eff =
                match g.eff_override with
                | Some e -> e
                | None -> asched.Sched.compute_eff
              in
              let has_mma =
                List.exists
                  (function Kernel_ir.Mma _ -> true | _ -> false)
                  !instrs
              in
              Kernel_ir.stage
                ~pipelined:(opts.pipeline && has_mma)
                ~compute_eff
                ~mem_eff:
                  (if is_movement then opts.movement_mem_eff else opts.mem_eff)
                ~produces:
                  (List.map (fun (te : Te.t) -> te.Te.name) stage_members)
                ~sgrid:
                  (if opts.concurrent_stages then
                     List.fold_left
                       (fun acc (te : Te.t) ->
                         acc + Sched.grid_blocks te (sched te.Te.name))
                       0 stage_members
                   else Sched.grid_blocks anchor asched)
                ~label:anchor.Te.name (List.rev !instrs))
            stages_tes
        in
        (* launch configuration: the widest stage wins *)
        let grid, threads, smem, regs =
          List.fold_left
            (fun (g', t', s', r') tl ->
              let anchor =
                match List.find_opt Te.has_reduction tl with
                | Some r -> r
                | None -> List.hd tl
              in
              let s = sched anchor.Te.name in
              ( max g' (Sched.grid_blocks anchor s),
                max t' s.Sched.threads_per_block,
                max s' (smem_bytes anchor s),
                max r' (Sched.regs_per_thread s) ))
            (1, 32, 0, 16) stages_tes
        in
        (* fault injection: corrupted resource estimates must be caught by
           the kernel-IR verifier before launch; the additive term keeps the
           corruption visible even when the honest estimate is tiny *)
        let sf = Faultinject.smem_factor () in
        let smem = if sf = 1 then smem else (smem * sf) + (sf * 4096) in
        let gf = Faultinject.grid_factor () in
        let grid = if gf = 1 then grid else (grid * gf) + (gf * 4096) in
        Kernel_ir.kernel
          ~name:(Fmt.str "k%d_%s" gi (List.hd g.g_tes))
          ~grid_blocks:grid ~threads_per_block:threads ~smem_per_block:smem
          ~regs_per_thread:regs ~library_call:g.library_call kstages)
      g
  in
  kernel

(** Emit a whole grouping in one call (baselines, ablations, tests; the
    Souffle ladder drives {!emit_kernel_result} per group instead).  Each
    kernel is emitted under its own ["emit-kernel"] span — the same span
    name the ladder path opens — so per-phase profiles aggregate emission
    time identically whichever entry point ran. *)
let emit (dev : Device.t) (p : Program.t) (an : Analysis.t)
    (scheds : (string, Sched.t) Hashtbl.t) (opts : options)
    (groups : group list) : Kernel_ir.prog =
  Obs.span ~meta:[ ("groups", string_of_int (List.length groups)) ] "emit"
  @@ fun () ->
  {
    Kernel_ir.pname = "prog";
    kernels =
      List.mapi
        (fun gi g ->
          let subject =
            match g.g_tes with n :: _ -> n | [] -> "<empty group>"
          in
          Obs.span
            ~meta:
              [
                ("subprogram", subject);
                ("tes", string_of_int (List.length g.g_tes));
              ]
            "emit-kernel"
            (fun () -> emit_kernel dev p an scheds opts ~index:gi g))
        groups;
  }

(** {!emit_kernel} as a total function: fault-injection aware, exceptions
    converted to a typed diagnostic naming the failed group. *)
let emit_kernel_result dev p an scheds opts ~index (g : group) :
    (Kernel_ir.kernel, Diag.t) result =
  let subject = match g.g_tes with n :: _ -> n | [] -> "<empty group>" in
  Obs.span
    ~meta:
      [
        ("subprogram", subject); ("tes", string_of_int (List.length g.g_tes));
      ]
    "emit-kernel"
  @@ fun () ->
  Diag.guard ~subject Diag.Emit (fun () ->
      Faultinject.trip ~subject Diag.Emit;
      emit_kernel dev p an scheds opts ~index g)

(** {!emit} as a total function. *)
let emit_result dev p an scheds opts (groups : group list) :
    (Kernel_ir.prog, Diag.t) result =
  let rec go gi acc = function
    | [] -> Ok { Kernel_ir.pname = "prog"; kernels = List.rev acc }
    | g :: rest -> (
        match emit_kernel_result dev p an scheds opts ~index:gi g with
        | Ok k -> go (gi + 1) (k :: acc) rest
        | Error _ as e -> e)
  in
  go 0 [] groups
