(** The six baseline systems of §7.2, implemented as alternative
    fusion/grouping strategies over the same TE programs, costed by the
    same emitter and simulator as Souffle.  Each system reproduces the
    structural behaviours the paper attributes to it; where a system
    "Failed" in Table 3, the corresponding structural limitation is
    detected and reported. *)

module SSet = Program.SSet

type system = Xla | Ansor_tvm | Tensorrt | Rammer | Apollo | Iree

let all = [ Xla; Ansor_tvm; Tensorrt; Rammer; Apollo; Iree ]

let profile = function
  | Xla -> Profiles.xla
  | Ansor_tvm -> Profiles.ansor
  | Tensorrt -> Profiles.tensorrt
  | Rammer -> Profiles.rammer
  | Apollo -> Profiles.apollo
  | Iree -> Profiles.iree

let name s = (profile s).Profiles.sys_name

type success = {
  system : system;
  prog : Kernel_ir.prog;
  sim : Sim.result;
  groups : Emit.group list;
  compile_s : float;
}

let time_ms (s : success) = Sim.time_ms s.sim
let num_kernels (s : success) = List.length s.prog.Kernel_ir.kernels

(* ---------- shared helpers ------------------------------------------ *)

let is_library_op (te : Te.t) =
  List.mem te.Te.tag [ "matmul"; "batch_matmul"; "gemv"; "conv2d"; "dwconv2d" ]

let is_conv (te : Te.t) =
  te.Te.tag = "conv2d" || te.Te.tag = "dwconv2d"

let mk_group ?(cooperative = false) ?(library_call = false) ?eff_override tes
    =
  {
    Emit.g_tes = List.rev_map (fun (te : Te.t) -> te.Te.name) tes |> List.rev;
    cooperative;
    library_call;
    eff_override;
  }

(* group a run of TEs collected in reverse order *)
let flush_rev ?eff_override rev_tes acc =
  match rev_tes with
  | [] -> acc
  | tes -> mk_group ?eff_override (List.rev tes) :: acc

(* longest producer chain in the program *)
let longest_chain (p : Program.t) : int =
  Program.SMap.fold
    (fun _ d acc -> max d acc)
    (List.fold_left
       (fun acc (te : Te.t) ->
         let d =
           List.fold_left
             (fun m i ->
               match Program.SMap.find_opt i acc with
               | Some di -> max m (di + 1)
               | None -> m)
             0 (Te.inputs te)
         in
         Program.SMap.add te.Te.name d acc)
       Program.SMap.empty p.Program.tes)
    0

(* ---------- per-system grouping -------------------------------------- *)

(* XLA: GEMM/Conv become opaque library calls (cuBLAS/cuDNN); the rest is
   fused into elementwise+reduction clusters, but a cluster never holds two
   reductions (the paper: "XLA's fusion heuristic cannot fuse two
   consecutive reduction operators", §8.1). *)
let xla_groups (prof : Profiles.t) (p : Program.t) : Emit.group list =
  let rec go acc cur cur_has_red = function
    | [] -> List.rev (flush_rev cur acc)
    | (te : Te.t) :: rest ->
        if is_library_op te then begin
          let acc = flush_rev cur acc in
          let acc =
            mk_group ~library_call:true ?eff_override:prof.Profiles.library_eff
              [ te ]
            :: acc
          in
          go acc [] false rest
        end
        else if Te.has_reduction te && cur_has_red then
          go (flush_rev cur acc) [ te ] true rest
        else if Te.has_reduction te then go acc (te :: cur) true rest
        else go acc (te :: cur) cur_has_red rest
  in
  go [] [] false p.Program.tes

(* Ansor/TVM: classic epilogue fusion — every reduction starts a kernel and
   absorbs the one-relies-on-one TEs that consume it. *)
let ansor_groups (p : Program.t) : Emit.group list = Souffle.ansor_groups p

(* TensorRT: hand-crafted fusion rules.  Compute-intensive reductions start
   a kernel and absorb adjacent element-wise TEs; runs of memory-side TEs
   (softmax, layernorm, layout chains) are fused into single hand-written
   kernels — but never across a compute kernel boundary (§2.3). *)
let tensorrt_groups (an : Analysis.t) (prof : Profiles.t) (p : Program.t) :
    Emit.group list =
  let is_compute (te : Te.t) =
    (Analysis.info an te.Te.name).Analysis.kind = Intensity.Compute_intensive
  in
  let rec go acc cur cur_kind tes =
    match tes with
    | [] -> List.rev (flush_for cur_kind cur acc)
    | (te : Te.t) :: rest ->
        if is_compute te then begin
          let acc = flush_for cur_kind cur acc in
          go acc [ te ] `Compute rest
        end
        else if Te.has_reduction te then begin
          (* Reductions belonging to a composite operator TensorRT has a
             hand-written fused kernel for (softmax, layernorm, pooling)
             join a memory fusion run; any other reduction (GEMV, small
             GEMM below the compute threshold) is its own kernel. *)
          let composite =
            List.exists
              (fun prefix -> Astring_contains.contains te.Te.tag prefix)
              [ "softmax"; "layernorm"; "pool"; "reduce" ]
          in
          if composite then begin
            match cur_kind with
            | `Memory -> go acc (te :: cur) `Memory rest
            | `Compute | `None ->
                let acc = flush_for cur_kind cur acc in
                go acc [ te ] `Memory rest
          end
          else begin
            let acc = flush_for cur_kind cur acc in
            go acc [ te ] `Compute rest
          end
        end
        else begin
          (* element-wise: stays with whatever run is open *)
          match cur_kind with
          | `None -> go acc [ te ] `Memory rest
          | k -> go acc (te :: cur) k rest
        end
  and flush_for kind cur acc =
    match cur with
    | [] -> acc
    | tes ->
        let eff_override =
          match kind with
          | `Compute when is_conv (List.hd (List.rev tes)) ->
              prof.Profiles.conv_eff
          | _ -> None
        in
        mk_group ?eff_override (List.rev tes) :: acc
  in
  go [] [] `None p.Program.tes

(* Rammer: wavefront (rTask) scheduling — all operators at the same
   dependency depth share one kernel; no global synchronization, weights
   are re-loaded every wavefront (Fig. 7a, Table 6). *)
let rammer_groups (p : Program.t) : Emit.group list =
  let depth = Horizontal.depths p in
  let by_depth : (int, Te.t list) Hashtbl.t = Hashtbl.create 64 in
  let max_d = ref 0 in
  List.iteri
    (fun k (te : Te.t) ->
      let d = depth.(k) in
      max_d := max !max_d d;
      Hashtbl.replace by_depth d
        (te :: Option.value ~default:[] (Hashtbl.find_opt by_depth d)))
    p.Program.tes;
  List.init (!max_d + 1) (fun d ->
      match Hashtbl.find_opt by_depth d with
      | None -> None
      | Some tes -> Some (mk_group (List.rev tes)))
  |> List.filter_map Fun.id

(* Apollo: partition-based fusion of memory-bound operators; every
   compute-intensive reduction is its own kernel, every memory-side
   reduction is its own kernel (two reductions only fuse with equal tile
   sizes, which adjacent softmax/layernorm reductions do not have, §8.1),
   and runs of element-wise operators fuse. *)
let apollo_groups (an : Analysis.t) (p : Program.t) : Emit.group list =
  let is_compute (te : Te.t) =
    (Analysis.info an te.Te.name).Analysis.kind = Intensity.Compute_intensive
  in
  let rec go acc cur = function
    | [] -> List.rev (flush_rev cur acc)
    | (te : Te.t) :: rest ->
        if is_compute te || Te.has_reduction te then
          go (mk_group [ te ] :: flush_rev cur acc) [] rest
        else go acc (te :: cur) rest
  in
  go [] [] p.Program.tes

(* IREE: producer-consumer tile-and-fuse through linalg — epilogue and
   prologue fusion of element-wise operators, no fusion between
   compute-intensive operators (cannot fuse batch_matmuls, §8.1), conv
   through untuned direct codegen. *)
let iree_groups (prof : Profiles.t) (p : Program.t) : Emit.group list =
  List.map
    (fun (g : Emit.group) ->
      let anchor = Program.find_te_exn p (List.hd g.Emit.g_tes) in
      let anchor =
        match
          List.find_opt
            (fun n -> Te.has_reduction (Program.find_te_exn p n))
            g.Emit.g_tes
        with
        | Some n -> Program.find_te_exn p n
        | None -> anchor
      in
      if is_conv anchor then { g with Emit.eff_override = prof.Profiles.conv_eff }
      else g)
    (ansor_groups p)

(* ---------- compile-failure detection -------------------------------- *)

(* Table 3 reports Rammer failing on EfficientNet, Swin and MMoE, and
   Apollo failing on LSTM.  The structural causes stood in here: Rammer
   v0.4 has no kernel implementations for depthwise convolutions, shifted
   (rolled) windows, or mixture-of-expert gating; Apollo's layer-by-layer
   partitioning does not terminate on graphs with dependence chains
   thousands of operators deep (a fully unrolled LSTM). *)
let check_supported (s : system) (p : Program.t) : (unit, string) result =
  match s with
  | Rammer ->
      let bad (te : Te.t) =
        te.Te.tag = "dwconv2d"
        || Astring_contains.contains te.Te.name "moe_gate"
        || Astring_contains.contains te.Te.name "_roll"
      in
      (match List.find_opt bad p.Program.tes with
      | Some te ->
          Error
            (Fmt.str "Failed: no rTask kernel for operator %s (%s)"
               te.Te.name te.Te.tag)
      | None -> Ok ())
  | Apollo ->
      (* Apollo's partition search walks the graph layer by layer; on a
         fully unrolled 100-step LSTM (tens of thousands of operators) it
         does not come back (Table 3 "Failed"). *)
      let n = List.length p.Program.tes in
      if n > 10_000 then
        Error
          (Fmt.str "Failed: partition search diverges on %d operators" n)
      else Ok ()
  | Xla | Ansor_tvm | Tensorrt | Iree -> Ok ()

(* ---------- driver ---------------------------------------------------- *)

let emit_options (s : system) : Emit.options =
  let prof = profile s in
  let base =
    {
      Emit.default_options with
      Emit.reuse_cache = false;
      pipeline = false;
      mem_eff = prof.Profiles.mem_eff;
      movement_mem_eff = prof.Profiles.movement_mem_eff;
    }
  in
  match s with
  | Xla -> { base with Emit.attach_epilogue = true; attach_prologue = true }
  | Ansor_tvm -> { base with Emit.attach_epilogue = true; attach_prologue = false }
  | Tensorrt -> { base with Emit.attach_epilogue = true; attach_prologue = true }
  | Rammer ->
      { base with
        Emit.attach_epilogue = false;
        attach_prologue = false;
        concurrent_stages = true;
      }
  | Apollo -> { base with Emit.attach_epilogue = false; attach_prologue = false }
  | Iree -> { base with Emit.attach_epilogue = true; attach_prologue = true }

let run ?(device = Device.a100) (s : system) (p : Program.t) :
    (success, string) result =
  match check_supported s p with
  | Error m -> Error m
  | Ok () ->
      let t0 = Unix.gettimeofday () in
      let prof = profile s in
      (* Rammer replaces per-kernel launches with compile-time-scheduled
         rTask dispatches inside persistent workers, cutting the per-unit
         dispatch latency well below a cudaLaunchKernel (§7.2). *)
      let device =
        match s with
        | Rammer -> { device with Device.kernel_launch_us = 0.3 }
        | _ -> device
      in
      let an = Analysis.run p in
      let scheds =
        Ansor.schedule_program
          ~config:{ Ansor.eff_cap = prof.Profiles.eff_cap }
          device p
      in
      let groups =
        match s with
        | Xla -> xla_groups prof p
        | Ansor_tvm -> ansor_groups p
        | Tensorrt -> tensorrt_groups an prof p
        | Rammer -> rammer_groups p
        | Apollo -> apollo_groups an p
        | Iree -> iree_groups prof p
      in
      let opts = emit_options s in
      let prog = Emit.emit device p an scheds opts groups in
      let sim = Sim.run device prog in
      Ok { system = s; prog; sim; groups; compile_s = Unix.gettimeofday () -. t0 }
