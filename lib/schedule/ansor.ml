(** Template-based auto-scheduler standing in for Ansor (§6.3).

    For each compute-intensive TE it enumerates tile/thread configurations,
    scores them with an analytical latency model (DRAM for unique bytes, L2
    for tile re-reads, the appropriate arithmetic pipeline for the flops)
    and returns the best schedule plus its resource usage — exactly the
    artifacts Souffle needs from its schedule optimizer ("get required
    resource", §5.4).

    Compile throughput (the production hot path) is addressed on three
    axes:

    - {b pruned enumeration}: candidates are built into a pre-sized array
      with infeasible tile/thread combinations rejected before a [Sched.t]
      is ever allocated, and all per-TE invariants of the cost model are
      hoisted out of the per-candidate estimator;
    - {b parallel search}: the unique structural keys of a program are
      partitioned across OCaml domains ({!config.search_domains}); the
      merged table is bit-identical to the serial search because each key
      is searched by the same deterministic procedure and merged by key,
      never by domain timing;
    - {b schedule reuse}: an optional {!store} (an in-memory ladder cache,
      a persistent cross-run cache, or both layered) is consulted under the
      canonical {!structural_key} before any candidate is enumerated — a
      warm store skips the search entirely. *)

type config = {
  eff_cap : float;
      (** fraction of pipeline peak the code generator's inner loop
          achieves on large tiles; baseline profiles vary it *)
  search_domains : int;
      (** domains to fan the candidate search over; [<= 1] searches
          serially.  Never affects the resulting schedules. *)
}

let default_config =
  { eff_cap = 0.60; search_domains = Domain.recommended_domain_count () }

(** How a schedule was produced.  {!Exhaustive} is this module's candidate
    enumeration; {!Construct} is the greedy construction-based scheduler
    ([Construct] in this library), which builds one schedule directly under
    the same cost model.  The mode is part of {!structural_key}, so cached
    and memoized schedules always record which procedure produced them and
    the two modes never alias each other's entries. *)
type mode = Construct | Exhaustive

let mode_tag = function Construct -> "construct" | Exhaustive -> "exhaustive"

let mode_of_string = function
  | "construct" -> Some Construct
  | "exhaustive" -> Some Exhaustive
  | _ -> None

(** Candidate-space selection: {!Reduced} is the fallback space the
    degradation ladder retries with after a search failure — small enough
    to be near-instant, still covering the shapes that matter.  Reduced
    results are never written to a {!store} (the determinism contract keys
    stored schedules to the full space). *)
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

(** Analytical latency (µs) of running [te] alone under schedule [s], with
    the per-TE invariants supplied as [ctx]. *)
let estimate_us_ctx (dev : Device.t) (ctx : cost_ctx) (te : Te.t)
    (s : Sched.t) : float =
  let in_elems = Sched.plan_tile_elems s ctx.plan in
  estimate_of_elems dev ctx te s ~in_elems
    ~usage:(Sched.usage_of_elems te s ~in_elems)

(** {!estimate_us_ctx} behind the feasibility check both schedulers apply
    to every candidate: [None] when the block cannot fit an SM.  The tile
    plan is evaluated once for both. *)
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
  estimate_us_ctx dev (cost_ctx p te) te s

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

(** Feasibility: the block must fit an SM. *)
let feasible (dev : Device.t) (p : Program.t) (te : Te.t) (s : Sched.t) =
  let u = Sched.usage p te s in
  u.Occupancy.smem_per_block <= dev.Device.max_smem_per_block
  && u.Occupancy.threads_per_block <= dev.Device.max_threads_per_block
  && Occupancy.blocks_per_sm dev u >= 1

(* ---- per-TE search -------------------------------------------------- *)

(** Search the candidate space for the lowest-latency feasible schedule.
    Deterministic tie-breaking: of equal-cost candidates the one enumerated
    first wins, so the result is a function of (config, dev, te, space)
    only — never of timing, domain count, or table iteration order. *)
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

(** Canonical structural key of a TE for schedule reuse: device, the
    scheduling mode that produced the schedule, the scheduling-relevant
    part of the search configuration ([eff_cap] — and deliberately {e not}
    [search_domains], which never changes results), and the TE's structure
    (output shape, reduction axes, provenance tag, arithmetic ops, access
    count, output and input dtypes).  Two TEs with equal keys receive
    bit-identical schedules, which is what makes both the per-program memo
    table and the persistent cross-run cache sound. *)
(* The configuration part of every key, shared by all TEs of one
   [schedule_program] call. *)
let key_prefix ~mode ~config (dev : Device.t) : string =
  Printf.sprintf "%s|mode=%s|eff=%.4f|" dev.Device.name (mode_tag mode)
    config.eff_cap

(* Append the TE part of the key to [buf], which already holds the prefix.
   The text is byte-for-byte what persisted schedule caches were keyed
   with, so it must not change. *)
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
    scheduling mode that produced the schedule, the scheduling-relevant
    part of the search configuration ([eff_cap] — and deliberately {e not}
    [search_domains], which never changes results), and the TE's structure
    (output shape, reduction axes, provenance tag, arithmetic ops, access
    count, output and input dtypes).  Two TEs with equal keys receive
    bit-identical schedules, which is what makes both the per-program memo
    table and the persistent cross-run cache sound. *)
let structural_key ?(mode = Exhaustive) ?(config = default_config)
    (dev : Device.t) (p : Program.t) (te : Te.t) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (key_prefix ~mode ~config dev);
  add_te_key buf p te;
  Buffer.contents buf

(** A pluggable schedule store consulted before (and fed after) the
    candidate search — the hook the in-memory ladder cache and the
    persistent cross-run cache ({!Scache} in [lib/cache]) plug into
    without this library depending on them. *)
type store = {
  find : string -> Sched.t option;
  add : string -> Sched.t -> unit;
}

(* ---- whole-program scheduling --------------------------------------- *)

(* Fan-out is only worth a domain spawn when several keys actually need
   searching... *)
let min_parallel_keys = 2

(* ...and when the total work is large enough to amortize spawn + join
   overhead (~100µs per domain).  Work is measured in candidate
   evaluations: an exhaustive key visits the full cross-product (a few
   hundred evaluations, ~1µs each), a constructed key a few dozen, so the
   threshold corresponds to several milliseconds of serial search — below
   that, spawning was measured to win ~nothing (the 1.05x "speedup" of the
   zoo bench) and can even lose. *)
let min_parallel_work = 8192

(* Approximate candidate evaluations one key costs under each mode. *)
let evals_hint = function Exhaustive -> 384 | Construct -> 50

(* Split [items] into [n] contiguous chunks whose concatenation is
   [items]. *)
let chunk n items =
  let len = List.length items in
  let base = len / n and extra = len mod n in
  let rec take k acc l =
    if k = 0 then (List.rev acc, l)
    else
      match l with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go i l =
    if i >= n || l = [] then []
    else
      let size = base + if i < extra then 1 else 0 in
      let c, rest = take size [] l in
      if c = [] then go (i + 1) rest else c :: go (i + 1) rest
  in
  go 0 items

(** The per-TE procedure {!schedule_program} runs for every unresolved key,
    together with the {!mode} tag recorded in those keys.  The default is
    this module's exhaustive search; [Construct.scheduler] plugs the
    construction-based one in without this module depending on it. *)
type scheduler = {
  s_mode : mode;
  s_schedule :
    config:config -> space:space -> Device.t -> Program.t -> Te.t -> Sched.t;
}

let exhaustive_scheduler : scheduler =
  {
    s_mode = Exhaustive;
    s_schedule =
      (fun ~config ~space dev p te -> schedule_te ~config ~space dev p te);
  }

(** Schedule every TE of a program.  Identical structures are searched once
    (memoized on {!structural_key}, since models repeat identical layers
    many times); keys the [store] already knows skip the search entirely;
    the remaining keys are searched across [config.search_domains] domains.
    The resulting table is bit-identical regardless of domain count or
    store warmth built from {!Full}-space searches of the same
    [scheduler]. *)
let schedule_program ?(scheduler = exhaustive_scheduler)
    ?(config = default_config) ?(space = Full) ?store (dev : Device.t)
    (p : Program.t) : (string, Sched.t) Hashtbl.t =
  Obs.span ~meta:[ ("tes", string_of_int (List.length p.Program.tes)) ]
    "ansor"
  @@ fun () ->
  let mode = scheduler.s_mode in
  let schedule_one te = scheduler.s_schedule ~config ~space dev p te in
  (* one key per reduction TE, built once; a TE without a reduction takes
     the default schedule directly — every scheduler returns exactly that
     for it, so there is nothing to search or store *)
  let prefix = key_prefix ~mode ~config dev in
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
  (* the unique structural keys, in first-occurrence program order *)
  let key_of = Hashtbl.create 64 in
  let uniq = ref [] in
  List.iter
    (fun (te, key) ->
      match key with
      | Some key when not (Hashtbl.mem key_of key) ->
          Hashtbl.add key_of key ();
          uniq := (key, te) :: !uniq
      | _ -> ())
    keyed;
  let uniq = List.rev !uniq in
  (* resolve what we can from the store before searching anything *)
  let resolved : (string, Sched.t) Hashtbl.t = Hashtbl.create 64 in
  let missing =
    List.filter
      (fun (key, _) ->
        match Option.bind store (fun st -> st.find key) with
        | Some s ->
            Hashtbl.replace resolved key s;
            false
        | None -> true)
      uniq
  in
  let store_hits = List.length uniq - List.length missing in
  let searched = List.length missing in
  (* search the remaining keys, serially or fanned over domains *)
  let domains =
    min config.search_domains (max 1 searched)
  in
  let parallel =
    searched >= min_parallel_keys
    && domains > 1
    && searched * evals_hint mode >= min_parallel_work
  in
  if parallel then begin
    (* Workers must not touch the Obs collector (single-domain state), so
       per-key timings are measured locally and re-emitted as marker spans
       after the join.  The program's name index is primed first: workers
       only ever read it. *)
    Program.prime_index p;
    let search_chunk part () =
      List.map
        (fun (key, te) ->
          let t0 = Unix.gettimeofday () in
          let s = schedule_one te in
          (key, te, s, (Unix.gettimeofday () -. t0) *. 1e6))
        part
    in
    let spawned =
      List.map (fun part -> Domain.spawn (search_chunk part))
        (chunk domains missing)
    in
    let joined =
      List.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned
    in
    List.iter
      (fun r ->
        match r with
        | Ok results ->
            List.iter
              (fun (key, (te : Te.t), s, dur_us) ->
                (* marker span: the search ran on a worker domain; its
                   measured duration rides in the metadata *)
                Obs.span
                  ~meta:
                    [
                      ("te", te.Te.name);
                      ("search_us", Fmt.str "%.1f" dur_us);
                    ]
                  "ansor-search"
                  (fun () -> ());
                Hashtbl.replace resolved key s)
              results
        | Error _ -> ())
      joined;
    (* re-raise the first worker failure only after every domain joined *)
    List.iter (function Error e -> raise e | Ok _ -> ()) joined
  end
  else
    List.iter
      (fun (key, te) ->
        let s =
          Obs.span ~meta:[ ("te", te.Te.name) ] "ansor-search" (fun () ->
              schedule_one te)
        in
        Hashtbl.replace resolved key s)
      missing;
  (* feed the store — full-space results only, so cached schedules always
     reproduce the serial full search *)
  (match (store, space) with
  | Some st, Full ->
      List.iter
        (fun (key, _) ->
          match Hashtbl.find_opt resolved key with
          | Some s -> st.add key s
          | None -> ())
        missing
  | _ -> ());
  Obs.annotate "store_hits" (string_of_int store_hits);
  Obs.annotate "searched" (string_of_int searched);
  Obs.annotate "domains" (string_of_int (if parallel then domains else 1));
  Obs.annotate "mode" (mode_tag mode);
  (* merge into the per-TE table in program order *)
  let table = Hashtbl.create 64 in
  List.iter
    (fun ((te : Te.t), key) ->
      let s =
        match key with
        | None ->
            { (Sched.default_elementwise te) with
              Sched.compute_eff = config.eff_cap }
        | Some key -> (
            match Hashtbl.find_opt resolved key with
            | Some s -> { s with Sched.te_name = te.Te.name }
            | None -> assert false)
      in
      Hashtbl.replace table te.Te.name s)
    keyed;
  table

(** {!schedule_program} as a total function: fault-injection aware,
    exceptions converted to a typed diagnostic. *)
let schedule_program_result ?scheduler ?config ?space ?store (dev : Device.t)
    (p : Program.t) : ((string, Sched.t) Hashtbl.t, Diag.t) result =
  Diag.guard Diag.Schedule (fun () ->
      Faultinject.trip Diag.Schedule;
      schedule_program ?scheduler ?config ?space ?store dev p)
