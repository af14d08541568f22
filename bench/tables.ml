(** Reproduction of every table and figure of the paper's evaluation
    (§2 Table 1, §8 Tables 3-6, Figures 5-7, §8.5), printed side by side
    with the numbers the paper reports.  Absolute values come from the
    analytical A100 model, so the claim being reproduced is the *shape*:
    who wins, by roughly what factor, and where the structural gaps
    (kernel counts, memory traffic, pipeline utilization) come from. *)

let dev = Device.a100

let section title =
  Fmt.pr "@.=== %s ===@." title

let note fmt = Fmt.pr ("    " ^^ fmt ^^ "@.")

(* memoized full-size lowered programs: each model lowers once per bench
   process, in tens of milliseconds *)
let program_cache : (string, Program.t) Hashtbl.t = Hashtbl.create 8

let program_of (e : Zoo.entry) =
  match Hashtbl.find_opt program_cache e.Zoo.name with
  | Some p -> p
  | None ->
      let p = Lower.run (e.Zoo.full ()) in
      Hashtbl.replace program_cache e.Zoo.name p;
      p

(* every Souffle compile the harness performs is recorded here, so the run
   can report which table rows were measured on degraded kernels and (with
   --strict-bench) fail the process over it *)
let runlog = Runlog.create ()

(** Compile and record the outcome: any degradation step or error-severity
    diagnostic is surfaced immediately on stderr and remembered in
    {!runlog} for the end-of-run summary / exit code. *)
let compile_recorded ?cfg ~name (p : Program.t) : Souffle.report =
  match Souffle.compile_result ?cfg p with
  | Ok r ->
      let errors = List.length (List.filter Diag.is_error r.Souffle.diags) in
      Runlog.record runlog ~model:name
        ~degraded_steps:(List.length r.Souffle.degraded)
        ~errors;
      if r.Souffle.degraded <> [] then begin
        Fmt.epr "  !! %s compiled degraded:@." name;
        List.iter
          (fun d -> Fmt.epr "     %a@." Souffle.pp_degradation d)
          r.Souffle.degraded
      end;
      r
  | Error ds ->
      Runlog.record runlog ~model:name ~degraded_steps:0
        ~errors:(List.length ds);
      List.iter (fun d -> Fmt.epr "  !! %s: %a@." name Diag.pp d) ds;
      failwith
        (Fmt.str "%s failed to compile: %s" name
           (String.concat "; " (List.map Diag.to_string ds)))

(* compile-once artifact store shared by every section: each (model, level)
   pair is compiled exactly once per bench run and the report is reused
   across table3, table4, table5, overhead, and the serving benchmark *)
let artifacts = Souffle.Artifacts.create ()

let souffle_at ?name level (e : Zoo.entry) : Souffle.report =
  match Souffle.Artifacts.find artifacts ~name:e.Zoo.name ~level () with
  | Some r -> r
  | None ->
      let r =
        compile_recorded
          ~name:(Option.value name ~default:e.Zoo.name)
          ~cfg:(Souffle.config ~level ()) (program_of e)
      in
      Souffle.Artifacts.add artifacts ~name:e.Zoo.name ~level r;
      r

let souffle_of (e : Zoo.entry) = souffle_at Souffle.V4 e

let baseline_cache : (string * string, (Baseline.success, string) result) Hashtbl.t =
  Hashtbl.create 32

let baseline_of (s : Baseline.system) (e : Zoo.entry) =
  let key = (Baseline.name s, e.Zoo.name) in
  match Hashtbl.find_opt baseline_cache key with
  | Some r -> r
  | None ->
      let r = Baseline.run ~device:dev s (program_of e) in
      Hashtbl.replace baseline_cache key r;
      r

(* ------------------------------------------------------------------ *)
(* Table 1 + Fig. 1: the motivating BERT attention subgraph            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1 — BERT attention subgraph (Fig. 1), TensorRT vs Apollo vs Souffle";
  let p = Lower.run (Bert.attention_subgraph ()) in
  let run_baseline s =
    match Baseline.run ~device:dev s p with
    | Ok r -> r
    | Error m -> failwith m
  in
  let trt = run_baseline Baseline.Tensorrt in
  let apollo = run_baseline Baseline.Apollo in
  let ours = compile_recorded ~name:"BERT-attention" p in
  let row name total compute memory kernels mb =
    Fmt.pr "  %-34s %10.2f %10.2f %10.2f %8.0f %8.2f@." name total compute
      memory kernels mb
  in
  Fmt.pr "  %-34s %10s %10s %10s %8s %8s@." "" "total(us)" "compute" "memory"
    "#kernels" "MB_ld";
  let of_baseline (r : Baseline.success) =
    ( r.Baseline.sim.Sim.total.Counters.time_us,
      r.Baseline.sim.Sim.total_compute_us,
      r.Baseline.sim.Sim.total_memory_us,
      Baseline.num_kernels r,
      Counters.mb (Counters.global_load_bytes r.Baseline.sim.Sim.total) )
  in
  let t1, c1, m1, k1, b1 = of_baseline trt in
  row "TensorRT (measured)" t1 c1 m1 (float_of_int k1) b1;
  row "TensorRT (paper)" 62.34 31.29 31.0 7. 16.52;
  let t2, c2, m2, k2, b2 = of_baseline apollo in
  row "Apollo (measured)" t2 c2 m2 (float_of_int k2) b2;
  row "Apollo (paper)" 179.07 61.1 117.97 14. 27.78;
  let st = ours.Souffle.sim.Sim.total.Counters.time_us in
  row "Souffle (measured)" st ours.Souffle.sim.Sim.total_compute_us
    ours.Souffle.sim.Sim.total_memory_us
    (float_of_int (Souffle.num_kernels ours))
    (Counters.mb (Counters.global_load_bytes ours.Souffle.sim.Sim.total));
  row "Souffle (paper)" 57.73 41.77 15.96 1. 8.87;
  note "shape check: Souffle < TensorRT < Apollo on time, and Souffle moves the least data";
  note "paper measures one attention sub-block; ours is the full attention layer of one encoder"

(* ------------------------------------------------------------------ *)
(* Table 3: end-to-end latency across systems                          *)
(* ------------------------------------------------------------------ *)

let paper_table3 =
  (* model, XLA, Ansor, TRT, Rammer, Apollo, IREE, Souffle; None = Failed *)
  [
    ("BERT", [ Some 2.55; Some 2.31; Some 1.30; Some 2.19; Some 3.29; Some 2.22; Some 1.22 ]);
    ("ResNeXt", [ Some 8.91; Some 20.50; Some 24.82; Some 11.69; Some 22.80; Some 314.8; Some 4.43 ]);
    ("LSTM", [ Some 10.57; Some 6.78; Some 6.30; Some 1.72; None; Some 16.0; Some 0.80 ]);
    ("EfficientNet", [ Some 2.96; Some 0.91; Some 1.21; None; Some 2.3; Some 12.33; Some 0.66 ]);
    ("SwinTrans.", [ Some 6.43; Some 5.81; Some 1.74; None; Some 10.78; Some 18.1; Some 1.55 ]);
    ("MMoE", [ Some 0.29; Some 0.034; Some 0.070; None; Some 0.049; Some 0.088; Some 0.014 ]);
  ]

let measured_table3 () =
  List.map
    (fun (e : Zoo.entry) ->
      let baselines =
        List.map
          (fun s ->
            match baseline_of s e with
            | Ok r -> Some (Baseline.time_ms r)
            | Error _ -> None)
          Baseline.all
      in
      let ours = Souffle.time_ms (souffle_of e) in
      (e.Zoo.name, baselines @ [ Some ours ]))
    Zoo.all

let geomean l =
  match l with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (List.length l))

let table3 () =
  section "Table 3 — end-to-end model runtime (ms), lower is better";
  let header =
    "  %-14s" ^^ "%9s%9s%9s%9s%9s%9s%9s@."
  in
  let cell ppf = function
    | Some v -> Fmt.pf ppf "%9.3f" v
    | None -> Fmt.pf ppf "%9s" "Failed"
  in
  let print_rows tag rows =
    Fmt.pr header tag "XLA" "Ansor" "TRT" "Rammer" "Apollo" "IREE" "Ours";
    List.iter
      (fun (name, cells) ->
        Fmt.pr "  %-14s" name;
        List.iter (fun c -> Fmt.pr "%a" cell c) cells;
        Fmt.pr "@.")
      rows
  in
  let measured = measured_table3 () in
  print_rows "MEASURED" measured;
  Fmt.pr "@.";
  print_rows "PAPER" paper_table3;
  (* geometric-mean speedups of Souffle over each baseline *)
  Fmt.pr "@.  geomean speedup of Souffle over each system (measured | paper):@.";
  List.iteri
    (fun i s ->
      let ratios rows =
        List.filter_map
          (fun (_, cells) ->
            match (List.nth cells i, List.nth cells 6) with
            | Some b, Some ours -> Some (b /. ours)
            | _ -> None)
          rows
      in
      Fmt.pr "    vs %-9s %6.2fx | %6.2fx@." (Baseline.name s)
        (geomean (ratios measured))
        (geomean (ratios paper_table3)))
    Baseline.all;
  note "shape check: Souffle fastest everywhere; failures match (Rammer x3, Apollo on LSTM)"

(* ------------------------------------------------------------------ *)
(* Table 4: ablation V0..V4                                            *)
(* ------------------------------------------------------------------ *)

let paper_table4 =
  [
    ("BERT", [ 3.1; 2.12; 1.53; 1.41; 1.22 ]);
    ("ResNeXt", [ 29.0; 5.90; 4.43; 4.43; 4.43 ]);
    ("LSTM", [ 6.78; 1.60; 1.21; 0.8; 0.8 ]);
    ("EfficientNet", [ 4.2; 0.91; 0.72; 0.63; 0.63 ]);
    ("SwinTrans.", [ 5.81; 4.88; 2.09; 1.78; 1.55 ]);
    ("MMoE", [ 0.05; 0.019; 0.016; 0.014; 0.014 ]);
  ]

let table4 () =
  section "Table 4 — execution time (ms) with Souffle optimizations enabled incrementally";
  Fmt.pr "  %-14s %8s %8s %8s %8s %8s@." "" "V0" "V1" "V2" "V3" "V4";
  List.iter
    (fun (e : Zoo.entry) ->
      Fmt.pr "  %-14s" e.Zoo.name;
      List.iter
        (fun level ->
          let r =
            souffle_at
              ~name:(Fmt.str "%s@V%d" e.Zoo.name (Souffle.level_rank level))
              level e
          in
          Fmt.pr " %8.3f" (Souffle.time_ms r))
        [ Souffle.V0; V1; V2; V3; V4 ];
      Fmt.pr "@.")
    Zoo.all;
  Fmt.pr "@.  paper:@.";
  List.iter
    (fun (name, vs) ->
      Fmt.pr "  %-14s" name;
      List.iter (fun v -> Fmt.pr " %8.3f" v) vs;
      Fmt.pr "@.")
    paper_table4;
  note "shape check: time is non-increasing V0 -> V4 for every model"

(* ------------------------------------------------------------------ *)
(* Table 5: kernel counts and global-memory transfer                   *)
(* ------------------------------------------------------------------ *)

let paper_table5 =
  (* model, (TRT, Apollo, XLA, Ours) kernels, (TRT, Apollo, Ours) MB *)
  [
    ("BERT", (Some 120, Some 240, Some 216, 24), (Some 361.8, Some 880.5, 226.8));
    ("ResNeXt", (Some 2406, Some 1226, Some 526, 105), (Some 622.2, Some 436.1, 470.2));
    ("LSTM", (Some 662, None, Some 3363, 1), (Some 126.8, None, 10.6));
    ("EfficientNet", (Some 187, Some 273, Some 332, 66), (Some 96.4, Some 127.4, 86.6));
    ("SwinTrans.", (Some 716, Some 1014, Some 3188, 53), (Some 831.5, Some 1309.0, 282.9));
    ("MMoE", (Some 20, Some 10, Some 7, 1), (Some 0.061, Some 0.063, 0.058));
  ]

let table5 () =
  section "Table 5 — number of GPU kernel calls and global memory transfer (MB)";
  Fmt.pr "  %-14s | %8s %8s %8s %8s | %10s %10s %10s@." "" "TRT" "Apollo"
    "XLA" "Ours" "TRT_MB" "Apollo_MB" "Ours_MB";
  let opt_kernels s e =
    match baseline_of s e with
    | Ok r -> Some (Baseline.num_kernels r)
    | Error _ -> None
  in
  let opt_mb s e =
    match baseline_of s e with
    | Ok r ->
        Some (Counters.mb (Counters.global_load_bytes r.Baseline.sim.Sim.total))
    | Error _ -> None
  in
  let pr_int ppf = function
    | Some k -> Fmt.pf ppf "%8d" k
    | None -> Fmt.pf ppf "%8s" "Failed"
  in
  let pr_mb ppf = function
    | Some v -> Fmt.pf ppf "%10.1f" v
    | None -> Fmt.pf ppf "%10s" "Failed"
  in
  List.iter
    (fun (e : Zoo.entry) ->
      let ours = souffle_of e in
      Fmt.pr "  %-14s | %a %a %a %8d | %a %a %10.1f@." e.Zoo.name pr_int
        (opt_kernels Baseline.Tensorrt e)
        pr_int
        (opt_kernels Baseline.Apollo e)
        pr_int
        (opt_kernels Baseline.Xla e)
        (Souffle.num_kernels ours) pr_mb
        (opt_mb Baseline.Tensorrt e)
        pr_mb
        (opt_mb Baseline.Apollo e)
        (Counters.mb (Counters.global_load_bytes ours.Souffle.sim.Sim.total)))
    Zoo.all;
  Fmt.pr "@.  paper:@.";
  List.iter
    (fun (name, (kt, ka, kx, ko), (mt, ma, mo)) ->
      Fmt.pr "  %-14s | %a %a %a %8d | %a %a %10.1f@." name pr_int kt pr_int
        ka pr_int kx ko pr_mb mt pr_mb ma mo)
    paper_table5;
  note "shape check: Souffle launches far fewer kernels and moves the least memory"

(* ------------------------------------------------------------------ *)
(* Fig. 5 + Fig. 6: EfficientNet sub-module latency breakdown          *)
(* ------------------------------------------------------------------ *)

(* the four versions of Fig. 5: each TE its own kernel; Ansor's fusion;
   one kernel with global sync but no reuse; full Souffle *)
let compile_submodule_variant ~name variant (p : Program.t) : float =
  match variant with
  | `Unfused ->
      let an = Analysis.run p in
      let scheds = Ansor.schedule_program dev p in
      let groups =
        List.map
          (fun (te : Te.t) ->
            { Emit.g_tes = [ te.Te.name ]; cooperative = false;
              library_call = false; eff_override = None })
          p.Program.tes
      in
      let opts =
        { Emit.default_options with
          Emit.attach_epilogue = false; attach_prologue = false;
          reuse_cache = false; pipeline = false }
      in
      (Sim.run dev (Emit.emit dev p an scheds opts groups)).Sim.total
        .Counters.time_us
  | `Fused ->
      compile_recorded ~name:(name ^ "@fig6-fused")
        ~cfg:(Souffle.config ~level:Souffle.V0 ()) p
      |> fun r -> r.Souffle.sim.Sim.total.Counters.time_us
  | `Global_sync ->
      compile_recorded ~name:(name ^ "@fig6-gsync")
        ~cfg:(Souffle.config ~level:Souffle.V3 ()) p
      |> fun r -> r.Souffle.sim.Sim.total.Counters.time_us
  | `Data_reuse ->
      compile_recorded ~name:(name ^ "@fig6-reuse")
        ~cfg:(Souffle.config ~level:Souffle.V4 ()) p
      |> fun r -> r.Souffle.sim.Sim.total.Counters.time_us

let fig6 () =
  section "Fig. 6 — EfficientNet sub-module speedup over unfused (M0..M9)";
  Fmt.pr "  %-6s %10s %10s %12s %12s@." "" "unfused" "fused" "global-sync"
    "data-reuse";
  let speedups =
    List.map
      (fun (name, g) ->
        let p = Lower.run g in
        let t v = compile_submodule_variant ~name v p in
        let base = t `Unfused in
        let fused = base /. t `Fused in
        let gs = base /. t `Global_sync in
        let dr = base /. t `Data_reuse in
        Fmt.pr "  %-6s %10.2f %10.2f %12.2f %12.2f@." name 1.0 fused gs dr;
        (fused, gs, dr))
      Efficientnet.sub_modules
  in
  let avg f = geomean (List.map f speedups) in
  Fmt.pr "  %-6s %10.2f %10.2f %12.2f %12.2f@." "AVG" 1.0
    (avg (fun (a, _, _) -> a))
    (avg (fun (_, b, _) -> b))
    (avg (fun (_, _, c) -> c));
  note "paper: global-sync averages 1.31x over unfused; data-reuse lifts it to 1.84x";
  note "shape check: unfused <= fused <= global-sync <= data-reuse on average"

(* ------------------------------------------------------------------ *)
(* Fig. 7 + Table 6: the LSTM case study                               *)
(* ------------------------------------------------------------------ *)

let table6 () =
  section "Table 6 — LSTM: Rammer vs Souffle (Fig. 7)";
  let e = Option.get (Zoo.find "LSTM") in
  (match baseline_of Baseline.Rammer e with
  | Error m -> Fmt.pr "  Rammer failed: %s@." m
  | Ok rammer ->
      let ours = souffle_of e in
      let row name v_rammer v_ours =
        Fmt.pr "  %-42s %12s %12s@." name v_rammer v_ours
      in
      row "" "Rammer" "Souffle";
      row "GPU global memory transactions (measured)"
        (Fmt.str "%.1f MB"
           (Counters.mb (Counters.global_load_bytes rammer.Baseline.sim.Sim.total)))
        (Fmt.str "%.1f MB"
           (Counters.mb (Counters.global_load_bytes ours.Souffle.sim.Sim.total)));
      row "GPU global memory transactions (paper)" "1911.0 MB" "21.11 MB";
      row "Pipeline utilization LSU (measured)"
        (Fmt.str "%.1f%%"
           (100. *. Counters.lsu_utilization rammer.Baseline.sim.Sim.total))
        (Fmt.str "%.1f%%"
           (100. *. Counters.lsu_utilization ours.Souffle.sim.Sim.total));
      row "Pipeline utilization LSU (paper)" "20.2%" "35.4%";
      row "Pipeline utilization FMA (measured)"
        (Fmt.str "%.1f%%"
           (100. *. Counters.fma_utilization rammer.Baseline.sim.Sim.total))
        (Fmt.str "%.1f%%"
           (100. *. Counters.fma_utilization ours.Souffle.sim.Sim.total));
      row "Pipeline utilization FMA (paper)" "8.0%" "19.0%";
      row "End-to-end (ms, measured)"
        (Fmt.str "%.3f" (Baseline.time_ms rammer))
        (Fmt.str "%.3f" (Souffle.time_ms ours));
      row "End-to-end (ms, paper)" "1.72" "0.80";
      Fmt.pr "@.  kernel mapping (Fig. 7): Rammer launches one kernel per wavefront (%d),@."
        (Baseline.num_kernels rammer);
      Fmt.pr "  reloading every cell's weights each step; Souffle compiles the whole@.";
      Fmt.pr "  unrolled model into %d kernel(s) with %d grid syncs, loading weights once.@."
        (Souffle.num_kernels ours)
        ours.Souffle.sim.Sim.total.Counters.grid_syncs);
  note "shape check: ~100x traffic gap and higher LSU/FMA utilization for Souffle"

(* ------------------------------------------------------------------ *)
(* §8.5: compilation overhead                                          *)
(* ------------------------------------------------------------------ *)

let overhead () =
  section "Sec. 8.5 — compilation overhead of Souffle's own passes (seconds)";
  let total = ref 0. in
  List.iter
    (fun (e : Zoo.entry) ->
      let p = program_of e in
      let r = souffle_at ~name:(e.Zoo.name ^ "@overhead") Souffle.V4 e in
      total := !total +. r.Souffle.compile_s;
      Fmt.pr "  %-14s %6.2f s  (%d TEs -> %d kernels)@." e.Zoo.name
        r.Souffle.compile_s
        (List.length p.Program.tes)
        (Souffle.num_kernels r))
    Zoo.all;
  Fmt.pr "  %-14s %6.2f s@." "TOTAL" !total;
  note "paper: Souffle adds up to 63 s on top of Ansor's hours of schedule search";
  note "shape check: our analysis/transform/partition passes stay within that budget"
