(* Serving benchmark: the multi-stream engine against serial one-at-a-time
   execution of the same compiled artifacts.

   The workload is a traffic-weighted mix over the whole zoo: cheap
   models field most of the traffic (as production serving mixes do), so
   request counts are weighted inversely to model cost rather than
   uniformly — a uniform mix would measure little besides ResNeXt, whose
   full-device compute stages honestly cannot overlap.

   Four measurements over that mix:

     equality    a lone request served on one stream must reproduce the
                 solo simulator latency bit-for-bit (the contention model
                 collapses exactly when there is no contention)
     saturation  a closed batch of requests at increasing concurrency;
                 throughput must saturate, and the saturated throughput
                 must be >= 2x the serial (one-stream) baseline
     curve       open-loop Poisson arrivals at fractions of the saturated
                 throughput: the latency/throughput curve
     policy      FIFO vs shortest-expected-latency tail latency at the
                 same offered load
     batching    the same closed batch with continuous batching on
                 (power-of-two buckets up to 8 lanes, shape-polymorphic
                 artifacts): batched saturated throughput must strictly
                 beat the unbatched 8-stream point

   Results land in BENCH_serve.json (full models) or BENCH_serve_smoke.json
   (tiny models, the @bench-smoke alias).  Equality mismatches, a sub-2x
   saturation speedup, a batched run that fails to beat the unbatched
   baseline, and degraded batched compiles are all recorded in the runlog,
   so --strict-bench fails the run over them.  The smoke run adds two
   host-time scaling gates ([scaling_gate]: open loop, and a closed batch
   that queues its whole backlog), printed but kept out of the JSON so the
   file stays deterministic. *)

let dev = Tables.dev

type mart = {
  entry : Zoo.entry;
  art : Scheduler.artifact;
  report : Souffle.report;
  exact : bool;  (* single-stream serving == solo Sim latency *)
}

(* a lone request on one stream: service time and end-to-end latency must
   equal the artifact's solo simulated latency exactly *)
let check_single_stream (a : Scheduler.artifact) (r : Souffle.report) : bool =
  let reqs =
    Workload.generate ~seed:1 ~rate_rps:0. ~requests:1
      [ (a.Scheduler.art_model, 1.) ]
  in
  let o =
    Scheduler.run dev
      (Scheduler.cfg ~policy:Scheduler.Fifo ~max_streams:1 ())
      ~artifacts:[ a ] reqs
  in
  match o.Scheduler.o_completed with
  | [ c ] ->
      c.Scheduler.c_service_us = r.Souffle.sim.Sim.total.Counters.time_us
      && Scheduler.latency_us c = r.Souffle.sim.Sim.total.Counters.time_us
  | _ -> false

let mart_of ~(souffle_of : Zoo.entry -> Souffle.report) (e : Zoo.entry) : mart =
  let r = souffle_of e in
  let art =
    Scheduler.artifact_of_prog dev ~model:e.Zoo.name
      ~degraded:(List.length r.Souffle.degraded)
      r.Souffle.prog
  in
  let exact = check_single_stream art r in
  if not exact then begin
    Fmt.epr "  !! %s: single-stream serving latency differs from solo Sim@."
      e.Zoo.name;
    Runlog.record Tables.runlog
      ~model:(e.Zoo.name ^ "@serve-equality")
      ~degraded_steps:0 ~errors:1
  end;
  { entry = e; art; report = r; exact }

(* requests per model, proportional — cheap models serve most queries *)
let mix_weight (e : Zoo.entry) : float =
  match String.lowercase_ascii e.Zoo.name with
  | "mmoe" -> 16.
  | "lstm" -> 8.
  | "efficientnet" -> 4.
  | "resnext" -> 1.
  | _ -> 2. (* BERT, SwinTransformer *)

let num n v = (n, Jsonlite.Num v)

let point_json extra (s : Serve_report.summary) : Jsonlite.t =
  Jsonlite.Obj (extra @ [ ("summary", Serve_report.summary_json s) ])

let run_with ~label ~souffle_of ~souffle_batched ~requests ~out () =
  Tables.section
    (Fmt.str "Serving — multi-stream engine vs serial execution (%s)" label);
  let marts = List.map (mart_of ~souffle_of) Zoo.all in
  List.iter
    (fun m ->
      Fmt.pr "  %-14s solo %12.2f us  %2d kernel(s)  %s@." m.entry.Zoo.name
        m.art.Scheduler.art_solo_us
        (List.length m.report.Souffle.prog.Kernel_ir.kernels)
        (if m.exact then "single-stream exact" else "MISMATCH"))
    marts;
  let artifacts = List.map (fun m -> m.art) marts in
  let mix = List.map (fun m -> (m.entry.Zoo.name, mix_weight m.entry)) marts in
  let batch = Workload.generate ~seed:11 ~rate_rps:0. ~requests mix in
  let run_at ?(policy = Scheduler.Fifo) c reqs =
    Scheduler.run dev (Scheduler.cfg ~policy ~max_streams:c ()) ~artifacts reqs
  in
  (* saturation: a closed batch at increasing concurrency *)
  let serial = Serve_report.summarize (run_at 1 batch) in
  let sweep =
    List.map (fun c -> (c, Serve_report.summarize (run_at c batch))) [ 2; 4; 8; 16 ]
  in
  Fmt.pr "@.  closed batch of %d requests:@." requests;
  Fmt.pr "  %8s %14s %10s %10s %10s %9s@." "streams" "thr(req/s)" "p50(ms)"
    "p95(ms)" "slowdown" "resident";
  let row c (s : Serve_report.summary) =
    Fmt.pr "  %8d %14.1f %10.3f %10.3f %10.2f %9.2f@." c s.Serve_report.s_throughput_rps
      s.Serve_report.s_p50_ms s.Serve_report.s_p95_ms
      s.Serve_report.s_mean_slowdown s.Serve_report.s_avg_resident
  in
  row 1 serial;
  List.iter (fun (c, s) -> row c s) sweep;
  let sat_streams, sat =
    List.fold_left
      (fun (bc, bs) (c, s) ->
        if
          s.Serve_report.s_throughput_rps
          > bs.Serve_report.s_throughput_rps
        then (c, s)
        else (bc, bs))
      (1, serial) sweep
  in
  let speedup =
    if serial.Serve_report.s_throughput_rps > 0. then
      sat.Serve_report.s_throughput_rps /. serial.Serve_report.s_throughput_rps
    else 0.
  in
  Fmt.pr "  saturation: %.1f req/s at %d streams — %.2fx over serial@."
    sat.Serve_report.s_throughput_rps sat_streams speedup;
  if speedup < 2. then begin
    Fmt.epr
      "  !! serving speedup %.2fx at saturation is below the 2x target@."
      speedup;
    Runlog.record Tables.runlog ~model:("serve-speedup@" ^ label)
      ~degraded_steps:0 ~errors:1
  end;
  (* open-loop latency/throughput curve at the saturating concurrency *)
  let sat_rps = sat.Serve_report.s_throughput_rps in
  let curve =
    List.map
      (fun frac ->
        let rate = frac *. sat_rps in
        let reqs = Workload.generate ~seed:17 ~rate_rps:rate ~requests mix in
        (frac, rate, Serve_report.summarize (run_at sat_streams reqs)))
      [ 0.25; 0.5; 0.75; 0.9 ]
  in
  Fmt.pr "@.  open-loop Poisson arrivals (%d streams):@." sat_streams;
  Fmt.pr "  %8s %14s %14s %10s %10s@." "load" "offered" "served" "p50(ms)"
    "p99(ms)";
  List.iter
    (fun (frac, rate, (s : Serve_report.summary)) ->
      Fmt.pr "  %7.0f%% %14.1f %14.1f %10.3f %10.3f@." (100. *. frac) rate
        s.Serve_report.s_throughput_rps s.Serve_report.s_p50_ms
        s.Serve_report.s_p99_ms)
    curve;
  (* scheduling policy: tail latency under the same near-saturation load *)
  let policy_reqs =
    Workload.generate ~seed:23 ~rate_rps:(0.9 *. sat_rps) ~requests mix
  in
  let fifo =
    Serve_report.summarize (run_at ~policy:Scheduler.Fifo sat_streams policy_reqs)
  in
  let sel =
    Serve_report.summarize (run_at ~policy:Scheduler.Sel sat_streams policy_reqs)
  in
  Fmt.pr "@.  policy at 90%% load: fifo p95 %.3f ms, sel p95 %.3f ms@."
    fifo.Serve_report.s_p95_ms sel.Serve_report.s_p95_ms;
  (* continuous batching: the same closed batch, with shape-polymorphic
     bucket artifacts (x2/x4/x8) so dispatches can coalesce *)
  let max_batch = 8 in
  let batched_arts =
    List.concat_map
      (fun m ->
        List.map
          (fun b ->
            let r = souffle_batched m.entry b in
            Scheduler.artifact_of_prog dev ~model:m.entry.Zoo.name ~batch:b
              ~degraded:(List.length r.Souffle.degraded)
              r.Souffle.prog)
          [ 2; 4; 8 ])
      marts
  in
  let run_batched c reqs =
    Scheduler.run dev
      (Scheduler.cfg ~policy:Scheduler.Fifo ~max_streams:c ~max_batch ())
      ~artifacts:(artifacts @ batched_arts) reqs
  in
  let bsweep =
    List.map
      (fun c -> (c, Serve_report.summarize (run_batched c batch)))
      [ 1; 2; 4; 8 ]
  in
  Fmt.pr "@.  continuous batching (buckets up to x%d), same closed batch:@."
    max_batch;
  Fmt.pr "  %8s %14s %10s %10s %10s %9s@." "streams" "thr(req/s)" "p50(ms)"
    "p95(ms)" "slowdown" "bucket";
  List.iter
    (fun (c, (s : Serve_report.summary)) ->
      Fmt.pr "  %8d %14.1f %10.3f %10.3f %10.2f %9.2f@." c
        s.Serve_report.s_throughput_rps s.Serve_report.s_p50_ms
        s.Serve_report.s_p95_ms s.Serve_report.s_mean_slowdown
        s.Serve_report.s_mean_batch)
    bsweep;
  let bsat_streams, bsat =
    List.fold_left
      (fun (bc, bs) (c, s) ->
        if
          s.Serve_report.s_throughput_rps > bs.Serve_report.s_throughput_rps
        then (c, s)
        else (bc, bs))
      (List.hd bsweep) (List.tl bsweep)
  in
  (* the win the batcher must deliver: beat the unbatched engine at its
     widest sweep point on the same workload *)
  let unbatched_8 = List.assoc 8 sweep in
  let batched_gain =
    if unbatched_8.Serve_report.s_throughput_rps > 0. then
      bsat.Serve_report.s_throughput_rps
      /. unbatched_8.Serve_report.s_throughput_rps
    else 0.
  in
  Fmt.pr
    "  batched saturation: %.1f req/s at %d streams — %.2fx over unbatched \
     8-stream (%.1f req/s)@."
    bsat.Serve_report.s_throughput_rps bsat_streams batched_gain
    unbatched_8.Serve_report.s_throughput_rps;
  if
    bsat.Serve_report.s_throughput_rps
    <= unbatched_8.Serve_report.s_throughput_rps
  then begin
    Fmt.epr
      "  !! batched throughput %.1f req/s does not beat the unbatched \
       8-stream baseline %.1f req/s@."
      bsat.Serve_report.s_throughput_rps
      unbatched_8.Serve_report.s_throughput_rps;
    Runlog.record Tables.runlog
      ~model:("serve-batched@" ^ label)
      ~degraded_steps:0 ~errors:1
  end;
  let json =
    Jsonlite.Obj
      [
        ("bench", Jsonlite.Str "serve-perf");
        ("device", Jsonlite.Str dev.Device.name);
        ("mode", Jsonlite.Str label);
        num "requests" (float_of_int requests);
        ( "models",
          Jsonlite.Arr
            (List.map
               (fun m ->
                 Jsonlite.Obj
                   [
                     ("name", Jsonlite.Str m.entry.Zoo.name);
                     num "mix_weight" (mix_weight m.entry);
                     num "solo_us" m.art.Scheduler.art_solo_us;
                     num "kernels"
                       (float_of_int
                          (List.length m.report.Souffle.prog.Kernel_ir.kernels));
                     num "degraded_steps"
                       (float_of_int m.art.Scheduler.art_degraded);
                     ("single_stream_exact", Jsonlite.Bool m.exact);
                   ])
               marts) );
        ("serial", Serve_report.summary_json serial);
        ( "saturation",
          Jsonlite.Arr
            (List.map
               (fun (c, s) -> point_json [ num "streams" (float_of_int c) ] s)
               sweep) );
        num "speedup_at_saturation" speedup;
        num "saturating_streams" (float_of_int sat_streams);
        ( "curve",
          Jsonlite.Arr
            (List.map
               (fun (frac, rate, s) ->
                 point_json
                   [
                     num "load_frac" frac;
                     num "rate_rps" rate;
                     num "streams" (float_of_int sat_streams);
                   ]
                   s)
               curve) );
        ( "policy_at_90pct",
          Jsonlite.Obj
            [
              ("fifo", Serve_report.summary_json fifo);
              ("sel", Serve_report.summary_json sel);
            ] );
        ( "batched",
          Jsonlite.Obj
            [
              num "max_batch" (float_of_int max_batch);
              ( "sweep",
                Jsonlite.Arr
                  (List.map
                     (fun (c, s) ->
                       point_json [ num "streams" (float_of_int c) ] s)
                     bsweep) );
              num "throughput_rps" bsat.Serve_report.s_throughput_rps;
              num "saturating_streams" (float_of_int bsat_streams);
              num "unbatched_8stream_rps"
                unbatched_8.Serve_report.s_throughput_rps;
              num "gain_vs_unbatched" batched_gain;
            ] );
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Jsonlite.to_string json));
  Fmt.pr "  wrote %s@." out

(* batched compiles are memoized per (model, bucket) and recorded in the
   runlog like every other bench compile, so a degraded batched compile
   fails --strict-bench *)
let batched_memo ~tag ~graph_of : Zoo.entry -> int -> Souffle.report =
  let cache : (string * int, Souffle.report) Hashtbl.t = Hashtbl.create 32 in
  fun (e : Zoo.entry) batch ->
    match Hashtbl.find_opt cache (e.Zoo.name, batch) with
    | Some r -> r
    | None ->
        let r =
          Tables.compile_recorded
            ~cfg:(Souffle.config ~batch ())
            ~name:(Fmt.str "%s@%s-batch%d" e.Zoo.name tag batch)
            (Lower.run (graph_of e))
        in
        Hashtbl.replace cache (e.Zoo.name, batch) r;
        r

(* full-size models: the measurement run, reusing the artifacts the tables
   compiled (each model compiles once per bench process) *)
let run () =
  run_with ~label:"full" ~souffle_of:Tables.souffle_of
    ~souffle_batched:
      (batched_memo ~tag:"serve" ~graph_of:(fun (e : Zoo.entry) -> e.Zoo.full ()))
    ~requests:48 ~out:"BENCH_serve.json" ()

(* Host-time scaling of the serving loop: [Scheduler.run] over one fixed
   MMoE/LSTM mix (FIFO, 8 slots, no batching) at [rate] req/s, at [n] and
   at [4n] requests in this process, median of three runs each.  A loop
   whose cost grows with the history already served, or with the backlog
   (at [rate = 0] every request arrives at once and the whole batch
   queues), shows a per-request cost at [4n] well above that at [n]; more
   than 2x is recorded in the runlog, so --strict-bench fails.  The
   reference is the [n]-point of the same run, never a stored constant. *)
let scaling_gate ~(souffle_of : Zoo.entry -> Souffle.report) ~rate ~n =
  let entries =
    List.map (fun (k, w) -> (Option.get (Zoo.find k), w))
      [ ("mmoe", 16.); ("lstm", 8.) ]
  in
  let artifacts =
    List.map
      (fun ((e : Zoo.entry), _) ->
        let r = souffle_of e in
        Scheduler.artifact_of_prog dev ~model:e.Zoo.name
          ~degraded:(List.length r.Souffle.degraded)
          r.Souffle.prog)
      entries
  in
  let mix = List.map (fun ((e : Zoo.entry), w) -> (e.Zoo.name, w)) entries in
  let cfg = Scheduler.cfg ~policy:Scheduler.Fifo ~max_streams:8 () in
  let run requests =
    let reqs = Workload.generate ~seed:29 ~rate_rps:rate ~requests mix in
    fun () ->
      (* every run starts from a compacted heap, untimed, so the garbage
         of earlier bench sections is not charged to one point *)
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      ignore (Scheduler.run dev cfg ~artifacts reqs);
      1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int requests
  in
  (* the two points alternate, so a noisy stretch of the host hits both *)
  let run_small = run n and run_large = run (4 * n) in
  let pairs = List.init 3 (fun _ -> (run_small (), run_large ())) in
  let median xs = List.nth (List.sort compare xs) 1 in
  let small = median (List.map fst pairs) in
  let large = median (List.map snd pairs) in
  let ratio = large /. small in
  let what =
    if rate > 0. then Fmt.str "open loop at %.0f req/s" rate
    else "closed batch"
  in
  Fmt.pr
    "@.  host scaling (%s): Scheduler.run %.1f us/request at %d requests, \
     %.1f at %d — %.2fx (gate 2x)@."
    what small n large (4 * n) ratio;
  if ratio > 2. then begin
    Fmt.epr
      "  !! serving host time per request (%s) grows %.2fx from %d to %d \
       requests@."
      what ratio n (4 * n);
    Runlog.record Tables.runlog
      ~model:
        (if rate > 0. then "serve-host-scaling" else "serve-closed-scaling")
      ~degraded_steps:0 ~errors:1
  end

(* tiny models: the @bench-smoke alias — seconds, not minutes *)
let smoke () =
  let cache : (string, Souffle.report) Hashtbl.t = Hashtbl.create 8 in
  let souffle_of (e : Zoo.entry) =
    match Hashtbl.find_opt cache e.Zoo.name with
    | Some r -> r
    | None ->
        let r =
          Tables.compile_recorded
            ~name:(e.Zoo.name ^ "@serve-smoke")
            (Lower.run (e.Zoo.tiny ()))
        in
        Hashtbl.replace cache e.Zoo.name r;
        r
  in
  run_with ~label:"smoke" ~souffle_of
    ~souffle_batched:
      (batched_memo ~tag:"serve-smoke"
         ~graph_of:(fun (e : Zoo.entry) -> e.Zoo.tiny ()))
    ~requests:24 ~out:"BENCH_serve_smoke.json" ();
  scaling_gate ~souffle_of ~rate:3000. ~n:2000;
  scaling_gate ~souffle_of ~rate:0. ~n:2000
