(** Template-based auto-scheduler standing in for Ansor (§6.3).

    For each compute-intensive TE it enumerates tile/thread configurations,
    scores them with an analytical latency model (DRAM for unique bytes, L2
    for tile re-reads, the appropriate arithmetic pipeline for the flops)
    and returns the best schedule plus its resource usage — exactly the
    artifacts Souffle needs from its schedule optimizer ("get required
    resource", §5.4).

    The enumeration is the paper's Ansor/TVM stand-in: the baselines
    schedule with it, and it is the quality reference the constructive
    scheduler ([Construct]) is gated against.  {!schedule_program} runs any
    per-TE procedure over a whole program — enumeration here, construction
    in [Construct] — scheduling each distinct {!structural_key} once and
    consulting an optional {!store} first.  Candidates are built into a
    pre-sized array with infeasible tile/thread combinations rejected
    before a [Sched.t] is allocated, and the per-TE invariants of the cost
    model are hoisted out of the per-candidate estimator. *)

type config = {
  eff_cap : float;
      (** fraction of pipeline peak the code generator's inner loop
          achieves on large tiles; baseline profiles vary it *)
}

let default_config = { eff_cap = 0.60 }

(** Candidate-space selection: {!Reduced} is the fallback space the
    degradation ladder retries with after a scheduling failure — small
    enough to be near-instant, still covering the shapes that matter. *)
type space = Full | Reduced

(* Achieved efficiency: large tiles amortize prologue/epilogue and fill the
   pipelines; small tiles do not. *)
let efficiency cfg ~tensor_core (s : Sched.t) =
  let elems = Sched.tile_elems s in
  let full = if tensor_core then 128 * 128 else 4096 in
  let fill = Float.min 1. (float_of_int elems /. float_of_int full) in
  cfg.eff_cap *. Float.pow fill 0.25

(* ---- cost model ---------------------------------------------------- *)

(** Everything about (program, TE) the latency estimate needs but that does
    not depend on the candidate schedule — computed once per TE instead of
    once per candidate (the search visits hundreds of candidates per TE).
    [plan] is the body's input-tile footprint with every read's variable
    sets and size cap already resolved. *)
type cost_ctx = {
  unique_in_bytes : int;
  out_bytes : int;
  flops : int;
  plan : Sched.tile_plan;
}

let cost_ctx (p : Program.t) (te : Te.t) : cost_ctx =
  let unique_in_bytes =
    List.fold_left
      (fun acc name ->
        let info = Program.tensor_info_exn p name in
        acc + (Shape.numel info.Program.shape * Dtype.bytes info.Program.dtype))
      0 (Te.inputs te)
  in
  {
    unique_in_bytes;
    out_bytes = Te.out_numel te * Dtype.bytes te.Te.dtype;
    flops = Te.arith_ops te;
    plan = Sched.tile_plan p te;
  }

(* The latency model proper, given the candidate's input-tile elements and
   resource usage (both derived from [ctx.plan] by the callers). *)
let estimate_of_elems (dev : Device.t) (ctx : cost_ctx) (te : Te.t)
    (s : Sched.t) ~(in_elems : int) ~(usage : Occupancy.usage) : float =
  let grid = Sched.grid_blocks te s in
  let total_loaded = Sched.tiled_load_bytes_of_elems te s ~in_elems in
  let l2_extra = max 0 (total_loaded - ctx.unique_in_bytes) in
  let atomic_bytes = ctx.out_bytes * (max 1 s.Sched.rsplit - 1) in
  let dram_us =
    float_of_int (ctx.unique_in_bytes + ctx.out_bytes)
    /. (dev.Device.dram_bw_gbps *. 0.85 *. 1e3)
    +. (float_of_int atomic_bytes
        /. (dev.Device.dram_bw_gbps *. dev.Device.atomic_bw_factor *. 1e3))
  in
  let l2_us = float_of_int l2_extra /. (dev.Device.l2_bw_gbps *. 1e3) in
  let peak =
    if s.Sched.use_tensor_core then dev.Device.fp16_tc_tflops
    else dev.Device.fp32_tflops
  in
  (* under-occupancy: small grids leave SMs idle (mirrors the simulator) *)
  let sms = float_of_int dev.Device.num_sms in
  let util_c = Float.min 1. (float_of_int (max 1 grid) /. sms) in
  let util_m = Float.min 1. (4. *. float_of_int (max 1 grid) /. sms) in
  let comp_us =
    float_of_int ctx.flops /. (peak *. s.Sched.compute_eff *. util_c *. 1e6)
  in
  let mem_us = (dram_us +. l2_us) /. util_m in
  let overlap = dev.Device.overlap_default in
  let body =
    Float.max mem_us comp_us +. ((1. -. overlap) *. Float.min mem_us comp_us)
  in
  let waves = Occupancy.waves dev usage ~grid_blocks:grid in
  body +. (0.3 *. float_of_int (max 1 waves))

(** The latency estimate behind the feasibility check both schedulers
    apply to every candidate: [None] when the block cannot fit an SM.  The
    tile plan is evaluated once for both. *)
let feasible_cost_ctx (dev : Device.t) (ctx : cost_ctx) (te : Te.t)
    (s : Sched.t) : float option =
  let in_elems = Sched.plan_tile_elems s ctx.plan in
  let u = Sched.usage_of_elems te s ~in_elems in
  if
    u.Occupancy.smem_per_block <= dev.Device.max_smem_per_block
    && u.Occupancy.threads_per_block <= dev.Device.max_threads_per_block
    && Occupancy.blocks_per_sm dev u >= 1
  then Some (estimate_of_elems dev ctx te s ~in_elems ~usage:u)
  else None

(** Analytical latency (µs) of running [te] alone under schedule [s]. *)
let estimate_us (dev : Device.t) (p : Program.t) (te : Te.t) (s : Sched.t) :
    float =
  let ctx = cost_ctx p te in
  let in_elems = Sched.plan_tile_elems s ctx.plan in
  estimate_of_elems dev ctx te s ~in_elems
    ~usage:(Sched.usage_of_elems te s ~in_elems)

(* ---- candidate enumeration ----------------------------------------- *)

(* Candidate tile factors for one dimension.  A dimension smaller than
   every option still yields one exact-fit candidate: dims below 9 used to
   filter to the empty list, which emptied the whole cross-product and made
   the search silently fall back to the grid-1 elementwise schedule — fatal
   for single-token decode shapes like (1, hidden), whose reductions need
   an rsplit-driven grid to reach DRAM bandwidth. *)
let tile_candidates ~space d =
  let opts = match space with Full -> [ 16; 32; 64; 128 ] | Reduced -> [ 32; 128 ] in
  match
    List.filter (fun t -> t <= d || t / 2 < d) opts
    |> List.map (fun t -> min t d)
    |> List.sort_uniq compare
  with
  | [] -> [ max 1 d ]
  | cs -> cs

let rtile_candidates d =
  List.map (fun t -> min t d) [ 16; 32; 64 ] |> List.sort_uniq compare

let thread_candidates = function Full -> [ 128; 256 ] | Reduced -> [ 256 ]

(** Enumerate schedules for a reduction TE: tile the two innermost output
    dims, tile the first reduction axis, enumerate reduction splits and
    block sizes.  The space is built into one pre-sized array (no
    intermediate [concat_map] pyramid); when [dev] is given, combinations
    that cannot possibly fit the device — output tile alone over the
    shared-memory budget, block over the thread limit — are rejected
    before a [Sched.t] is allocated. *)
let candidates ?dev ?(space = Full) (te : Te.t) : Sched.t list =
  let shape = te.Te.out_shape in
  let rank = Array.length shape in
  let raxes = Te.reduce_axes te in
  let tc = Sched.tensor_core_eligible te in
  if rank = 0 then [ Sched.default_elementwise te ]
  else begin
    let last = rank - 1 in
    let snd_last = max 0 (rank - 2) in
    let opts_last = tile_candidates ~space shape.(last) in
    let opts_snd =
      if rank >= 2 then tile_candidates ~space shape.(snd_last) else [ 1 ]
    in
    (* batch/channel dims keep one block per index: the grid already scales
       with them, and reduction splits (rsplit) cover small outputs *)
    let opts_r =
      if Array.length raxes = 0 then [ [||] ]
      else
        List.map
          (fun t ->
            let r = Array.map (fun d -> min d 8) raxes in
            r.(0) <- min raxes.(0) t;
            r)
          (rtile_candidates raxes.(0))
    in
    (* two-phase reduction splits for reductions with few output points *)
    let opts_rsplit =
      if Array.length raxes = 0 || Shape.numel shape >= 16384 then [ 1 ]
      else
        List.filter
          (fun sfac -> sfac = 1 || sfac <= Array.fold_left ( * ) 1 raxes)
          [ 1; 4; 16; 64 ]
    in
    let opts_threads = thread_candidates space in
    let elem_bytes = Dtype.bytes te.Te.dtype in
    let max_smem, max_threads =
      match dev with
      | Some (d : Device.t) ->
          (d.Device.max_smem_per_block, d.Device.max_threads_per_block)
      | None -> (max_int, max_int)
    in
    let n_max =
      List.length opts_last * List.length opts_snd * List.length opts_r
      * List.length opts_rsplit * List.length opts_threads
    in
    let buf = Array.make (max 1 n_max) (Sched.default_elementwise te) in
    let n = ref 0 in
    List.iter
      (fun tl ->
        List.iter
          (fun ts ->
            (* early reject: the output tile alone must fit shared memory
               (staged inputs only add to it) *)
            let out_tile = tl * if rank >= 2 then ts else 1 in
            if out_tile * elem_bytes <= max_smem then
              List.iter
                (fun rt ->
                  List.iter
                    (fun rsplit ->
                      List.iter
                        (fun threads ->
                          if threads <= max_threads then begin
                            let tile = Array.make rank 1 in
                            tile.(last) <- tl;
                            if rank >= 2 then tile.(snd_last) <- ts;
                            buf.(!n) <-
                              {
                                Sched.te_name = te.Te.name;
                                tile;
                                rtile = rt;
                                rsplit;
                                threads_per_block = threads;
                                use_tensor_core = tc;
                                cache_read_smem = true;
                                compute_eff = 0.; (* filled by the search *)
                              };
                            incr n
                          end)
                        opts_threads)
                    opts_rsplit)
                opts_r)
          opts_snd)
      opts_last;
    Array.to_list (Array.sub buf 0 !n)
  end

(* ---- per-TE search -------------------------------------------------- *)

(** Search the candidate space for the lowest-latency feasible schedule.
    Deterministic tie-breaking: of equal-cost candidates the one enumerated
    first wins, so the result is a function of (config, dev, te, space)
    only. *)
let schedule_te ?(config = default_config) ?(space = Full) (dev : Device.t)
    (p : Program.t) (te : Te.t) : Sched.t =
  if not (Te.has_reduction te) then
    { (Sched.default_elementwise te) with compute_eff = config.eff_cap }
  else begin
    let ctx = cost_ctx p te in
    let best = ref None in
    List.iter
      (fun s ->
        let s =
          { s with
            Sched.compute_eff =
              efficiency config ~tensor_core:s.Sched.use_tensor_core s;
          }
        in
        match feasible_cost_ctx dev ctx te s with
        | None -> ()
        | Some c -> (
            match !best with
            | Some (_, bc) when bc <= c -> ()
            | _ -> best := Some (s, c)))
      (candidates ~dev ~space te);
    match !best with
    | None ->
        { (Sched.default_elementwise te) with compute_eff = config.eff_cap }
    | Some (s, _) -> s
  end

(* ---- structural keys and schedule stores ---------------------------- *)

(* The configuration part of every key, shared by all TEs of one
   [schedule_program] call. *)
let key_prefix ~config (dev : Device.t) : string =
  Printf.sprintf "%s|eff=%.4f|" dev.Device.name config.eff_cap

(* Append the TE part of the key to [buf], which already holds the prefix. *)
let add_te_key (buf : Buffer.t) (p : Program.t) (te : Te.t) : unit =
  let add_ints ~sep a =
    Array.iteri
      (fun i d ->
        if i > 0 then Buffer.add_string buf sep;
        Buffer.add_string buf (string_of_int d))
      a
  in
  let rec reads acc = function
    | Expr.Const _ | Expr.IdxVal _ -> acc
    | Expr.Read _ -> acc + 1
    | Expr.Unop (_, a) -> reads acc a
    | Expr.Binop (_, a, b) | Expr.Select (_, a, b) -> reads (reads acc a) b
  in
  Buffer.add_string buf "out=(";
  add_ints ~sep:", " te.Te.out_shape;
  Buffer.add_string buf ")|red=";
  add_ints ~sep:"x" (Te.reduce_axes te);
  Buffer.add_string buf "|tag=";
  Buffer.add_string buf te.Te.tag;
  Buffer.add_string buf "|ops=";
  Buffer.add_string buf (string_of_int (Te.arith_ops te));
  Buffer.add_string buf "|acc=";
  Buffer.add_string buf (string_of_int (reads 0 (Te.body_expr te)));
  Buffer.add_string buf "|dt=";
  Buffer.add_string buf (Dtype.to_string te.Te.dtype);
  Buffer.add_string buf "<-";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (match Program.tensor_info p name with
        | Some info -> Dtype.to_string info.Program.dtype
        | None -> "?"))
    (Te.inputs te)

(** Canonical structural key of a TE for schedule reuse: device, the
    scheduling-relevant part of the configuration ([eff_cap]), and the TE's
    structure (output shape, reduction axes, provenance tag, arithmetic
    ops, access count, output and input dtypes).  Two TEs with equal keys
    receive bit-identical schedules from the same per-TE procedure, which
    is what makes the per-program memo and the ladder's store sound. *)
let structural_key ?(config = default_config) (dev : Device.t) (p : Program.t)
    (te : Te.t) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (key_prefix ~config dev);
  add_te_key buf p te;
  Buffer.contents buf

(** A schedule store consulted before (and fed after) the per-key search —
    the hook Souffle's per-compile ladder memo plugs into without this
    library depending on it. *)
type store = {
  find : string -> Sched.t option;
  add : string -> Sched.t -> unit;
}

(* ---- whole-program scheduling --------------------------------------- *)

(** Schedule every TE of a program with [schedule_te] (default: the full
    enumeration, {!schedule_te}).  Identical structures are scheduled once
    (memoized on {!structural_key}, since models repeat identical layers
    many times); keys the [store] already knows skip the search, and every
    newly scheduled key is added to it.  A caller with a different per-TE
    procedure — construction, or the reduced space — passes it here and
    decides whether its results belong in the [store]. *)
let schedule_program
    ?(schedule_te =
      fun ~config dev p te -> schedule_te ~config dev p te)
    ?(config = default_config) ?store (dev : Device.t) (p : Program.t) :
    (string, Sched.t) Hashtbl.t =
  Obs.span ~meta:[ ("tes", string_of_int (List.length p.Program.tes)) ]
    "ansor"
  @@ fun () ->
  (* one key per reduction TE, built once; a TE without a reduction takes
     the default schedule directly — every scheduler returns exactly that
     for it, so there is nothing to search or store *)
  let prefix = key_prefix ~config dev in
  let buf = Buffer.create 128 in
  let keyed =
    List.map
      (fun (te : Te.t) ->
        if not (Te.has_reduction te) then (te, None)
        else begin
          Buffer.clear buf;
          Buffer.add_string buf prefix;
          add_te_key buf p te;
          (te, Some (Buffer.contents buf))
        end)
      p.Program.tes
  in
  (* resolve each unique key in first-occurrence program order: from the
     store when it has it, else by running [schedule_te] *)
  let resolved : (string, Sched.t) Hashtbl.t = Hashtbl.create 64 in
  let store_hits = ref 0 and searched = ref 0 in
  List.iter
    (fun ((te : Te.t), key) ->
      match key with
      | Some key when not (Hashtbl.mem resolved key) -> (
          match Option.bind store (fun st -> st.find key) with
          | Some s ->
              incr store_hits;
              Hashtbl.replace resolved key s
          | None ->
              incr searched;
              let s =
                Obs.span ~meta:[ ("te", te.Te.name) ] "ansor-search"
                  (fun () -> schedule_te ~config dev p te)
              in
              Option.iter (fun st -> st.add key s) store;
              Hashtbl.replace resolved key s)
      | _ -> ())
    keyed;
  Obs.annotate "store_hits" (string_of_int !store_hits);
  Obs.annotate "searched" (string_of_int !searched);
  (* the per-TE table, in program order *)
  let table = Hashtbl.create 64 in
  List.iter
    (fun ((te : Te.t), key) ->
      let s =
        match key with
        | None ->
            { (Sched.default_elementwise te) with
              Sched.compute_eff = config.eff_cap }
        | Some key ->
            { (Hashtbl.find resolved key) with Sched.te_name = te.Te.name }
      in
      Hashtbl.replace table te.Te.name s)
    keyed;
  table

(** {!schedule_program} as a total function: fault-injection aware,
    exceptions converted to a typed diagnostic. *)
let schedule_program_result ?schedule_te ?config ?store (dev : Device.t)
    (p : Program.t) : ((string, Sched.t) Hashtbl.t, Diag.t) result =
  Diag.guard Diag.Schedule (fun () ->
      Faultinject.trip Diag.Schedule;
      schedule_program ?schedule_te ?config ?store dev p)
