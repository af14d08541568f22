(* The V4 pipeline replayed from outside, one public entry point per layer,
   with a span around each call and the layer's work counted where it
   happens.  The replay follows [Souffle.compile_result]'s clean path (no
   degradation ladder), so on a clean compile its kernels and simulated
   times must equal [Souffle.compile]'s bit for bit; [matches] checks
   that. *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  Hashtbl.replace counts name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let count_int name v = count name (float_of_int v)
let counted () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []

type t = {
  prog : Kernel_ir.prog;
  sim : Sim.result;
  mega : (Kernel_ir.taskgraph * Sim.result) option;
}

(* [Souffle]'s emission options at V4 *)
let v4_emit_opts =
  {
    Emit.default_options with
    Emit.reuse_cache = true;
    pipeline = true;
    attach_epilogue = true;
    attach_prologue = true;
  }

(* a schedule store owned by the benchmark: the same per-compile memo
   [Souffle] layers over its (absent) persistent cache, with lookups and
   hits counted *)
let counting_store () : Ansor.store =
  let memo : (string, Sched.t) Hashtbl.t = Hashtbl.create 64 in
  {
    Ansor.find =
      (fun key ->
        count "schedule.store_lookups" 1.;
        let hit = Hashtbl.find_opt memo key in
        if hit <> None then count "schedule.store_hits" 1.;
        hit);
    Ansor.add = (fun key s -> Hashtbl.replace memo key s);
  }

let ( let* ) = Result.bind

let diag_error (r : ('a, Diag.t) result) : ('a, string) result =
  Result.map_error Diag.to_string r

let diags_error (r : ('a, Diag.t list) result) : ('a, string) result =
  Result.map_error
    (fun ds -> String.concat "; " (List.map Diag.to_string ds))
    r

(* Replay one compile of [p] (already lowered) under [cfg], which must be
   level V4 with no persistent schedule cache.  Every span belongs to
   [group]. *)
let run ~group (cfg : Souffle.config) (p : Program.t) : (t, string) result =
  let dev = cfg.Souffle.device in
  let span name f = Span.with_span ~group name f in
  let p = Batch.apply ~batch:cfg.Souffle.batch p in
  let* p1, hs = diag_error (span "horizontal" (fun () -> Horizontal.apply_result p)) in
  count_int "horizontal.groups_merged" hs.Horizontal.groups_merged;
  count_int "horizontal.tes_eliminated" hs.Horizontal.tes_eliminated;
  let* p2, vs =
    diag_error
      (span "vertical" (fun () ->
           Vertical.apply_result ~fold_into_reduce:true p1))
  in
  count_int "vertical.chains_fused" vs.Vertical.chains_fused;
  count_int "vertical.movement_folded" vs.Vertical.movement_folded;
  count_int "vertical.tes_out" (List.length p2.Program.tes);
  let an = span "analysis" (fun () -> Analysis.run p2) in
  let* scheds =
    diag_error
      (span "schedule" (fun () ->
           Construct.schedule_program_result ~config:cfg.Souffle.ansor
             ~store:(counting_store ()) dev p2))
  in
  let* part =
    diag_error (span "partition" (fun () -> Partition.run_result dev an scheds))
  in
  count_int "partition.subprograms" (Partition.num_subprograms part);
  let groups = List.map Emit.group_of_subprogram part.Partition.subprograms in
  let reject ds =
    count_int "verify.rejects" (List.length ds);
    Error (String.concat "; " (List.map Diag.to_string ds))
  in
  let rec emit_all index acc = function
    | [] -> Ok (List.rev acc)
    | g :: rest -> (
        let* k =
          diag_error
            (span "emit" (fun () ->
                 Emit.emit_kernel_result dev p2 an scheds v4_emit_opts ~index g))
        in
        count_int "emit.kernels" 1;
        count_int "emit.stages" (List.length k.Kernel_ir.stages);
        match span "verify" (fun () -> Verify_ir.check dev k) with
        | Ok () -> emit_all (index + 1) (k :: acc) rest
        | Error ds -> reject ds)
  in
  let* kernels = emit_all 0 [] groups in
  let prog = { Kernel_ir.pname = "prog"; kernels } in
  let env = Souffle.dataflow_env p2 in
  let* () =
    match span "verify" (fun () -> Dataflow.check_result dev env prog) with
    | Ok () -> Ok ()
    | Error ds -> reject ds
  in
  let* sim = diag_error (span "sim" (fun () -> Sim.run_result dev prog)) in
  let tot = sim.Sim.total in
  count_int "sim.launches" tot.Counters.kernel_launches;
  count_int "sim.grid_syncs" tot.Counters.grid_syncs;
  let* mega =
    if not cfg.Souffle.mega then Ok None
    else
      let tg = span "megakernel" (fun () -> Megakernel.lower prog) in
      let* () =
        diags_error
          (span "megakernel" (fun () -> Megakernel.verify dev env tg))
      in
      let msim = span "megakernel" (fun () -> Sim.run_mega dev tg) in
      count_int "megakernel.tasks" (Kernel_ir.num_tasks tg);
      count_int "megakernel.edges" (Kernel_ir.num_edges tg);
      count_int "megakernel.launches_elided" (Kernel_ir.launches_elided tg);
      Ok (Some (tg, msim))
  in
  Ok { prog; sim; mega }

let time_us (s : Sim.result) = s.Sim.total.Counters.time_us

(* What a replay must reproduce of the library's own compile: its kernels
   and its simulated multi-kernel and persistent-kernel times. *)
type expect = {
  e_prog : Kernel_ir.prog;
  e_us : float;
  e_mega : (Kernel_ir.taskgraph * float) option;
}

let expect (r : Souffle.report) =
  {
    e_prog = r.Souffle.prog;
    e_us = time_us r.Souffle.sim;
    e_mega =
      Option.map
        (fun (m : Souffle.mega_result) -> (m.Souffle.m_graph, time_us m.Souffle.m_sim))
        r.Souffle.mega;
  }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* bit-identity of a replay with a compile *)
let matches (t : t) (e : expect) : bool =
  t.prog = e.e_prog
  && same_bits (time_us t.sim) e.e_us
  &&
  match (t.mega, e.e_mega) with
  | None, None -> true
  | Some (tg, ms), Some (g, us) -> tg = g && same_bits (time_us ms) us
  | _ -> false
