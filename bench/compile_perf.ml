(* Compile-throughput benchmark: one cold compile per zoo model through
   Souffle's one scheduling path (constructive scheduling, the per-compile
   ladder memo, no other store), checked for kernel quality against the
   enumerative search.

   Each compile runs under [Obs.record], so besides end-to-end wall time we
   report the schedule-phase time ("ansor" spans), the number of per-key
   schedule constructions performed ("ansor-search" spans), and a per-phase
   breakdown of host time and of words allocated on the compiling domain
   ("emit-kernel" is the span the emitter actually opens per kernel — both
   the Souffle ladder and the whole-grouping [Emit.emit] entry point emit
   it).

   Gates recorded in the runlog, so --strict-bench fails the run:
     - every compiled artifact must be dataflow-clean;
     - constructed schedules must hold kernel quality: on every reduction
       TE of the transformed program, [Construct.schedule_te] and the
       enumerative [Ansor.schedule_te] are scored by [Ansor.estimate_us];
       the constructed total may exceed the enumerated one by at most
       [quality_tol];
     - the whole zoo must cold-compile within [budget_s] end to end;
     - on the full-size zoo, the cold-compile geomean speedup over the
       pre-overhaul baseline (the [prepr_cold_s] constants, measured at
       the commit before constructive scheduling and the non-search phase
       work landed) must be at least [min_geomean].

   Results land in BENCH_compile.json / BENCH_compile_smoke.json. *)

let spans_named (t : Obs.trace) (name : string) : int =
  let n = ref 0 in
  Obs.iter (fun s ~depth:_ -> if s.Obs.sname = name then incr n) t;
  !n

(* the pipeline phases broken out per run, in pipeline order; each is an
   Obs span the compiler actually emits (emission opens one "emit-kernel"
   span per kernel — there is no aggregate "emit" span on the ladder path) *)
let phase_names =
  [
    "validate"; "horizontal"; "vertical"; "analysis"; "ansor"; "partition";
    "emit-kernel"; "verify-ir"; "verify-dataflow"; "simulate";
  ]

(* constructed schedules may not cost more than this fraction of estimated
   latency, summed over a program's reduction TEs, vs the enumerative
   search *)
let quality_tol = 0.05

(* cold/construct full-zoo geomean speedup the overhaul must hold over the
   pre-overhaul compiler *)
let min_geomean = 2.0

(* full-size cold/serial compile seconds at the commit before this overhaul
   (exhaustive search, quadratic toposort, per-kernel consumer rebuilds) —
   the denominator of the geomean gate *)
let prepr_cold_s =
  [
    ("BERT", 0.054); ("ResNeXt", 2.191); ("LSTM", 2.453);
    ("EfficientNet", 0.017); ("SwinTrans.", 0.275); ("MMoE", 0.002);
    ("GPT", 0.013);
  ]

type run = {
  label : string;
  compile_s : float;     (* end-to-end wall seconds *)
  ansor_us : float;      (* schedule-phase ("ansor" spans) microseconds *)
  searches : int;        (* "ansor-search" spans: keys scheduled *)
  phases : (string * float) list;  (* per-phase microseconds, {!phase_names} *)
  phases_alloc : (string * float) list;
      (* per-phase allocated Mwords, {!phase_names} *)
  sim : Sim.result;
  quality : float * (string * float);
      (* constructed vs enumerated estimated latency: the program-total
         relative gap, and the worst single TE with its gap *)
}

(* Kernel-quality oracle: score both schedulers on every reduction TE of
   the transformed program under the shared cost model. *)
let quality_gap (p : Program.t) : float * (string * float) =
  let dev = Tables.dev in
  let sum_c = ref 0. and sum_e = ref 0. and worst = ref ("-", 0.) in
  List.iter
    (fun (te : Te.t) ->
      if Te.has_reduction te then begin
        let c = Ansor.estimate_us dev p te (Construct.schedule_te dev p te)
        and e = Ansor.estimate_us dev p te (Ansor.schedule_te dev p te) in
        sum_c := !sum_c +. c;
        sum_e := !sum_e +. e;
        let rel = if e > 0. then (c -. e) /. e else 0. in
        if rel > snd !worst then worst := (te.Te.name, rel)
      end)
    p.Program.tes;
  ((if !sum_e > 0. then (!sum_c -. !sum_e) /. !sum_e else 0.), !worst)

let measure ~model ~label (p : Program.t) : run =
  let t0 = Unix.gettimeofday () in
  let r, trace =
    Obs.record (fun () ->
        Tables.compile_recorded ~name:(model ^ "/" ^ label) p)
  in
  (* artifact-quality check: the compiled program must be dataflow-clean
     (every re-read of an on-device tensor classified as L2/shared, bytes
     reconciling with tensor footprints) — recorded in the runlog so
     --strict-bench fails over a violation *)
  (match
     Dataflow.check_prog Tables.dev
       (Souffle.dataflow_env r.Souffle.transformed)
       r.Souffle.prog
   with
  | Ok () -> ()
  | Error ds ->
      Fmt.epr "  !! %s/%s: compiled artifact is not dataflow-clean:@." model
        label;
      List.iter (fun d -> Fmt.epr "     %a@." Diag.pp d) ds;
      Runlog.record Tables.runlog
        ~model:(model ^ "/" ^ label ^ "@dataflow")
        ~degraded_steps:0 ~errors:(List.length ds));
  let compile_s = Unix.gettimeofday () -. t0 in
  {
    label;
    compile_s;
    ansor_us = Obs.total_us trace "ansor";
    searches = spans_named trace "ansor-search";
    phases = List.map (fun n -> (n, Obs.total_us trace n)) phase_names;
    phases_alloc =
      List.map
        (fun n -> (n, Obs.total_alloc_words trace n /. 1e6))
        phase_names;
    sim = r.Souffle.sim;
    quality = quality_gap r.Souffle.transformed;
  }

(* a failed determinism or quality gate is a bench error, not just noise on
   stderr: record it so --strict-bench fails the run *)
let gate_failure ~model ~gate fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "  !! %s: %s@." model msg;
      Runlog.record Tables.runlog
        ~model:(model ^ "@" ^ gate)
        ~degraded_steps:0 ~errors:1)
    fmt

let bench_model ~graph_of (e : Zoo.entry) : string * run =
  let p = Lower.run (graph_of e) in
  let construct = measure ~model:e.Zoo.name ~label:"cold/construct" p in
  let rel, (worst_te, worst_rel) = construct.quality in
  if rel > quality_tol then
    gate_failure ~model:e.Zoo.name ~gate:"quality"
      "constructed schedules cost %.1f%% estimated latency vs the \
       enumerative search (tolerance %.0f%%; worst TE %s at %+.2f%%)"
      (100. *. rel) (100. *. quality_tol) worst_te (100. *. worst_rel);
  (e.Zoo.name, construct)

let json_of_run (r : run) : Jsonlite.t =
  Jsonlite.Obj
    [
      ("label", Jsonlite.Str r.label);
      ("compile_s", Jsonlite.Num r.compile_s);
      ("sim_time_ms", Jsonlite.Num (Sim.time_ms r.sim));
      ("ansor_us", Jsonlite.Num r.ansor_us);
      ("searches", Jsonlite.Num (float_of_int r.searches));
      ( "phases_us",
        Jsonlite.Obj
          (List.map (fun (n, us) -> (n, Jsonlite.Num us)) r.phases) );
      ( "phases_alloc_mw",
        Jsonlite.Obj
          (List.map (fun (n, mw) -> (n, Jsonlite.Num mw)) r.phases_alloc) );
    ]

let ratio num den = if den > 0. then num /. den else 0.

let run_with ~graph_of ~out ~budget_s ~geomean_gate () =
  Tables.section "Compile throughput — constructive scheduling";
  let results = List.map (bench_model ~graph_of) Zoo.all in
  Fmt.pr "  %-14s %-16s %12s %12s %12s %10s@." "model" "run" "compile(s)"
    "sim(ms)" "ansor(ms)" "searches";
  List.iter
    (fun (model, r) ->
      Fmt.pr "  %-14s %-16s %12.3f %12.3f %12.2f %10d@." model r.label
        r.compile_s (Sim.time_ms r.sim) (r.ansor_us /. 1e3) r.searches)
    results;
  (* where the cold/construct compile goes, phase by phase: host ms, then
     Mwords allocated on the compiling domain *)
  let phase_table title value =
    Fmt.pr "  %s@." title;
    Fmt.pr "  %-14s%a@." "model"
      Fmt.(list ~sep:nop (fun ppf n -> pf ppf " %11s" n))
      phase_names;
    List.iter
      (fun (model, r) ->
        Fmt.pr "  %-14s%a@." model
          Fmt.(list ~sep:nop (fun ppf (_, v) -> pf ppf " %11.3f" v))
          (value r))
      results
  in
  phase_table "cold/construct per phase, ms:" (fun r ->
      List.map (fun (n, us) -> (n, us /. 1e3)) r.phases);
  phase_table "cold/construct per phase, Mword allocated:" (fun r ->
      r.phases_alloc);
  let cold_s = List.fold_left (fun a (_, r) -> a +. r.compile_s) 0. results in
  let worst_quality, (worst_model, (worst_te, worst_te_rel)) =
    List.fold_left
      (fun (acc, worst) (model, r) ->
        let rel, te = r.quality in
        ( max acc rel,
          if snd te > snd (snd worst) then (model, te) else worst ))
      (0., ("-", ("-", 0.)))
      results
  in
  (* full-zoo cold-compile budget: the constructive pipeline must compile
     the whole zoo cold within budget_s *)
  if cold_s > budget_s then
    gate_failure ~model:"zoo" ~gate:"cold-budget"
      "full-zoo cold compile took %.3f s (budget %.3f s)" cold_s budget_s;
  (* geomean speedup vs the pre-overhaul compiler (full-size zoo only: the
     prepr_cold_s constants were measured on full-size models) *)
  let speedups =
    if not geomean_gate then []
    else
      List.filter_map
        (fun (model, r) ->
          match List.assoc_opt model prepr_cold_s with
          | None -> None
          | Some base -> Some (model, ratio base r.compile_s))
        results
  in
  let geomean =
    match speedups with
    | [] -> 0.
    | l ->
        exp
          (List.fold_left (fun a (_, s) -> a +. log s) 0. l
          /. float_of_int (List.length l))
  in
  if geomean_gate then begin
    if List.length speedups <> List.length results then
      gate_failure ~model:"zoo" ~gate:"speedup-baseline"
        "pre-overhaul baseline constants missing for %d model(s)"
        (List.length results - List.length speedups);
    if geomean < min_geomean then
      gate_failure ~model:"zoo" ~gate:"speedup-geomean"
        "cold-compile geomean speedup %.2fx vs pre-overhaul baseline is \
         below the %.1fx gate"
        geomean min_geomean
  end;
  Fmt.pr "  ---@.";
  Fmt.pr
    "  kernel quality: worst construct-vs-enumeration program gap %.2f%% \
     (tol %.0f%%); %s@."
    (100. *. worst_quality) (100. *. quality_tol)
    (if worst_te_rel > 0. then
       Fmt.str "worst TE %s/%s at %+.2f%%" worst_model worst_te
         (100. *. worst_te_rel)
     else "no TE worse than enumeration");
  Fmt.pr "  cold budget:    %.3f s of %.3f s@." cold_s budget_s;
  if geomean_gate then
    Fmt.pr "  vs pre-overhaul: %.2fx geomean cold speedup (gate %.1fx)@."
      geomean min_geomean;
  let json =
    Jsonlite.Obj
      [
        ("bench", Jsonlite.Str "compile-perf");
        ("device", Jsonlite.Str Tables.dev.Device.name);
        ( "models",
          Jsonlite.Obj
            (List.map
               (fun (model, r) -> (model, Jsonlite.Arr [ json_of_run r ]))
               results) );
        ( "summary",
          Jsonlite.Obj
            ([
               ("quality_worst_rel", Jsonlite.Num worst_quality);
               ("quality_tol", Jsonlite.Num quality_tol);
               ("cold_total_s", Jsonlite.Num cold_s);
               ("cold_budget_s", Jsonlite.Num budget_s);
             ]
            @
            if geomean_gate then
              [
                ("geomean_vs_pre_overhaul", Jsonlite.Num geomean);
                ("geomean_gate", Jsonlite.Num min_geomean);
                ( "speedup_vs_pre_overhaul",
                  Jsonlite.Obj
                    (List.map
                       (fun (m, s) -> (m, Jsonlite.Num s))
                       speedups) );
              ]
            else []) );
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Jsonlite.to_string json));
  Fmt.pr "  wrote %s@." out

(* full-size models: the measurement run.  Budget: the whole zoo, cold, in
   2.5 s — half of what the pre-overhaul compiler needed. *)
let run () =
  run_with
    ~graph_of:(fun e -> e.Zoo.full ())
    ~out:"BENCH_compile.json" ~budget_s:2.5 ~geomean_gate:true ()

(* tiny models: the @bench-smoke alias — the same gates (budget scaled to
   the tiny configurations, no pre-overhaul baseline) in well under a
   second of compile time *)
let smoke () =
  run_with
    ~graph_of:(fun e -> e.Zoo.tiny ())
    ~out:"BENCH_compile_smoke.json" ~budget_s:1.0 ~geomean_gate:false ()
