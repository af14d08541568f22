(* The two serving workloads: open loops of Poisson arrivals in simulated
   time, served by [Scheduler.run] over [Sim.Multi].  Arrivals are
   simulated timestamps fixed before the run, so the generator is never
   late, and each request is timed from its scheduled arrival.  The
   artifacts compile once in set-up; the timed part is the host cost of
   generating, serving and summarizing every rate. *)

let dev = Souffle.default_config.Souffle.device

type spec = {
  rates : float list;   (* offered load in req/s; each pass serves every rate *)
  report_rate : float;  (* the rate whose latencies are the headline *)
  requests : int;       (* per rate *)
  streams : int;
  max_batch : int;
  gen : int;            (* tokens generated per request; 0 = one-shot *)
  mix : (string * float) list;
  setup_reps : int;     (* set-ups per run; setup_s is their median *)
}

(* serve-mix: the serving bench's traffic-weighted full zoo, 8 slots, FIFO,
   continuous batching up to 8 lanes; 1000 requests per rate leave ten
   samples beyond p99 *)
let mix_spec =
  {
    rates = [ 1000.; 2000.; 3000.; 4000.; 5000. ];
    report_rate = 3000.;
    requests = 1000;
    streams = 8;
    max_batch = 8;
    gen = 0;
    setup_reps = 3;
    mix =
      [
        ("MMoE", 16.);
        ("LSTM", 8.);
        ("EfficientNet", 4.);
        ("BERT", 2.);
        ("SwinTrans.", 2.);
        ("GPT", 2.);
        ("ResNeXt", 1.);
      ];
  }

(* serve-decode: GPT generation with a 64-token prompt (the smallest KV
   bucket) and 16 new tokens, so decode walks the 64 and 128 buckets;
   4 slots, FIFO, multi-kernel artifacts *)
let decode_spec =
  {
    rates = [ 800. ];
    report_rate = 800.;
    requests = 100;
    streams = 4;
    max_batch = 1;
    gen = 16;
    setup_reps = 7;
    mix = [ ("GPT", 1.) ];
  }

let prompt = List.hd Gpt.buckets
let slo_ms = 10.

(* one artifact to compile: its label, graph, compile configuration and
   serving identity *)
type build = {
  label : string;
  gkey : string;  (* builds with one key share one lowered graph *)
  graph : unit -> Dgraph.t;
  cfg : Souffle.config;
  model : string;
}

(* the KV buckets a generation walks: step t reads a cache of
   prompt + t - 1 entries and runs the smallest bucket that holds it *)
let decode_buckets gen =
  List.init gen (fun t -> prompt + t)
  |> List.filter_map (fun c -> List.find_opt (fun b -> b >= c) Gpt.buckets)
  |> List.sort_uniq compare

let builds (spec : spec) : build list =
  if spec.gen > 0 then
    let gpt = { Gpt.base with Gpt.seq = prompt } in
    {
      label = "GPT@prefill";
      gkey = "GPT@prefill";
      graph = (fun () -> Gpt.create ~cfg:gpt ());
      cfg = Souffle.config ();
      model = "GPT";
    }
    :: List.map
         (fun pos ->
           {
             label = Fmt.str "GPT@d%d" pos;
             gkey = Fmt.str "GPT@d%d" pos;
             graph = (fun () -> Gpt.decode ~pos ());
             cfg = Souffle.config ~pos ();
             model = "GPT";
           })
         (decode_buckets spec.gen)
  else
    List.concat_map
      (fun (name, _) ->
        let e = Option.get (Zoo.find name) in
        List.map
          (fun batch ->
            {
              label = Fmt.str "%s@x%d" e.Zoo.name batch;
              gkey = e.Zoo.name;
              graph = e.Zoo.full;
              cfg = Souffle.config ~batch ();
              model = e.Zoo.name;
            })
          (List.filter (fun b -> b <= spec.max_batch) [ 1; 2; 4; 8 ]))
      spec.mix

(* --- set-up ------------------------------------------------------------- *)

(* a compiled artifact with what its replay must reproduce; [expect] is
   [None] when the compile failed *)
type built = {
  b : build;
  program : Program.t;
  clean : bool;  (* no degradation, no error diagnostic *)
  expect : Replay.expect option;
  art : Scheduler.artifact option;
}

let compile_all (bs : build list) : built list =
  let graphs = Hashtbl.create 8 in
  List.map
    (fun b ->
      (* graphs of one model are built once and shared by its buckets *)
      let program =
        match Hashtbl.find_opt graphs b.gkey with
        | Some p -> p
        | None ->
            let p = Lower.run (b.graph ()) in
            Hashtbl.replace graphs b.gkey p;
            p
      in
      match Souffle.compile_result ~cfg:b.cfg program with
      | Ok r ->
          let art =
            Scheduler.artifact_of_prog dev ~model:b.model
              ~batch:b.cfg.Souffle.batch ~pos:b.cfg.Souffle.pos
              ~degraded:(List.length r.Souffle.degraded)
              r.Souffle.prog
          in
          {
            b;
            program;
            clean =
              r.Souffle.degraded = []
              && not (List.exists Diag.is_error r.Souffle.diags);
            expect = Some (Replay.expect r);
            art = Some art;
          }
      | Error _ -> { b; program; clean = false; expect = None; art = None })
    bs

(* --- correctness checks (outside the timed part) ----------------------- *)

(* A lone request (or a lone full batch) on one stream must reproduce each
   artifact's solo simulated latency exactly: as its latency for one-shot
   requests, as its service time for each phase of a generation (a decode
   step's latency is a difference of absolute times, exact only to the
   last bits). *)
let check_solo (t : Run.tally) (spec : spec) (arts : Scheduler.artifact list) =
  let run ~max_batch ~gen_prompt artifacts reqs =
    Scheduler.run dev
      (Scheduler.cfg ~policy:Scheduler.Fifo ~max_streams:1 ~max_batch ~gen_prompt ())
      ~artifacts reqs
  in
  if spec.gen > 0 then begin
    (* prefill, then one decode step per compiled KV bucket *)
    let steps = List.length arts - 1 in
    let reqs =
      Workload.generate ~seed:1 ~rate_rps:0. ~requests:1 ~gen:steps
        [ ("GPT", 1.) ]
    in
    let o = run ~max_batch:1 ~gen_prompt:prompt arts reqs in
    let prefill, decodes =
      List.partition (fun (a : Scheduler.artifact) -> a.Scheduler.art_pos = 0) arts
    in
    let solo = function
      | Scheduler.Decode t ->
          (List.find
             (fun (a : Scheduler.artifact) -> a.Scheduler.art_pos >= prompt + t - 1)
             decodes)
            .Scheduler.art_solo_us
      | _ -> (List.hd prefill).Scheduler.art_solo_us
    in
    Run.op t ~name:"solo-exact:GPT"
      (List.length o.Scheduler.o_completed = steps + 1
      && List.for_all
           (fun (c : Scheduler.completed) ->
             Replay.same_bits c.Scheduler.c_service_us (solo c.Scheduler.c_phase))
           o.Scheduler.o_completed)
  end
  else
    List.iter
      (fun (a : Scheduler.artifact) ->
        let m = a.Scheduler.art_model and b = a.Scheduler.art_batch in
        let base =
          List.find
            (fun (x : Scheduler.artifact) ->
              x.Scheduler.art_model = m && x.Scheduler.art_batch = 1)
            arts
        in
        let reqs =
          Workload.generate ~seed:1 ~rate_rps:0. ~requests:b [ (m, 1.) ]
        in
        let o =
          run ~max_batch:b ~gen_prompt:0
            (if b = 1 then [ a ] else [ base; a ])
            reqs
        in
        Run.op t
          ~name:(Fmt.str "solo-exact:%s@x%d" m b)
          (List.length o.Scheduler.o_completed = b
          && List.for_all
               (fun (c : Scheduler.completed) ->
                 c.Scheduler.c_batch = b
                 && Replay.same_bits (Scheduler.latency_us c) a.Scheduler.art_solo_us)
               o.Scheduler.o_completed))
      arts

(* --- the timed part ---------------------------------------------------- *)

type point = {
  rate : float;
  sent : int;
  outcome : Scheduler.outcome;
  summary : Serve_report.summary;
}

(* how a layer call is wrapped: directly, or inside a span *)
type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

let serve_rate ?(wrap = untraced) ~seed (spec : spec) artifacts i rate =
  let reqs =
    wrap.span "workload" (fun () ->
        Workload.generate ~seed:((seed * 7919) + i) ~rate_rps:rate
          ~requests:spec.requests ~gen:spec.gen spec.mix)
  in
  let cfg =
    Scheduler.cfg ~policy:Scheduler.Fifo ~max_streams:spec.streams
      ~max_batch:spec.max_batch
      ~gen_prompt:(if spec.gen > 0 then prompt else 0)
      ()
  in
  let outcome = wrap.span "scheduler" (fun () -> Scheduler.run dev cfg ~artifacts reqs) in
  let summary = wrap.span "serve_report" (fun () -> Serve_report.summarize outcome) in
  { rate; sent = List.length reqs; outcome; summary }

let serve_pass ~seed spec artifacts =
  List.mapi (serve_rate ~seed spec artifacts) spec.rates

let terminal (p : point) =
  List.filter Scheduler.is_terminal p.outcome.Scheduler.o_completed

(* simulated queue wait of a job: dispatch minus the moment it was queued *)
let queue_wait_us (c : Scheduler.completed) =
  c.Scheduler.c_dispatch_us -. c.Scheduler.c_issue_us

(* Growing backlog: the last tenth of arrivals waited longer in the queue
   than the middle tenth, by more than a tenth of the latency limit. *)
let backlog_grows (p : point) =
  let by_arrival =
    List.sort
      (fun (a : Scheduler.completed) (b : Scheduler.completed) ->
        Float.compare a.Scheduler.c_req.Workload.rq_arrival_us
          b.Scheduler.c_req.Workload.rq_arrival_us)
      (terminal p)
    |> Array.of_list
  in
  let n = Array.length by_arrival in
  let window lo hi =
    Stat.mean
      (List.init (hi - lo) (fun k -> queue_wait_us by_arrival.(lo + k)))
  in
  n >= 20
  && window (9 * n / 10) n > window (9 * n / 20) (11 * n / 20) +. (slo_ms *. 100.)

let meets_limit (p : point) =
  p.summary.Serve_report.s_p99_ms <= slo_ms
  && List.length (terminal p) = p.sent
  && not (backlog_grows p)

let fingerprint (ps : point list) =
  List.map
    (fun p ->
      List.map
        (fun (c : Scheduler.completed) ->
          (c.Scheduler.c_req.Workload.rq_id, Int64.bits_of_float c.Scheduler.c_finish_us))
        p.outcome.Scheduler.o_completed)
    ps

let percentile_ms q xs = Stat.quantile q (List.map (fun us -> us /. 1e3) xs)

let run ~(spec : spec) ~seed ~seconds ~trace : Run.t =
  let tally = Run.tally () in
  let bs = builds spec in
  let built, setup_s = Stat.repeat_median spec.setup_reps (fun () -> compile_all bs) in
  List.iter (fun x -> Run.op tally ~name:("compile:" ^ x.b.label) x.clean) built;
  let artifacts = List.filter_map (fun x -> x.art) built in
  check_solo tally spec artifacts;
  (* only the last pass's outcomes are kept; earlier passes leave their
     fingerprint *)
  let last = ref [] in
  let keep ps =
    last := ps;
    fingerprint ps
  in
  let runs, heap_mb =
    Stat.passes ~keep ~seconds ~min_passes:3 (fun _ -> serve_pass ~seed spec artifacts)
  in
  let host_s = Stat.median (List.map snd runs) in
  let last = !last in
  (* simulated results must be identical on every pass *)
  List.iter
    (fun (fp, _) -> Run.op tally ~name:"deterministic" (fp = fingerprint last))
    runs;
  (* every request is accounted for, and completes *)
  List.iter
    (fun p ->
      let o = p.outcome in
      let done_ = List.length (terminal p) in
      Run.op tally ~name:"accounting"
        (done_ + List.length o.Scheduler.o_dropped + List.length o.Scheduler.o_failed
        = p.sent);
      Run.ops tally ~name:"request-completed" ~attempted:p.sent
        ~failed:(p.sent - done_);
      if spec.gen > 0 then
        Run.op tally ~name:"tokens"
          (p.summary.Serve_report.s_decodes = p.sent * spec.gen))
    last;
  let head = List.find (fun p -> p.rate = spec.report_rate) last in
  let all_completed = List.concat_map (fun p -> p.outcome.Scheduler.o_completed) last in
  let layers =
    if not trace then []
    else begin
      (* set-up replayed layer by layer; must match the set-up compiles *)
      Hashtbl.reset Replay.counts;
      List.iter
        (fun x ->
          let ok =
            match x.expect with
            | None -> false
            | Some e -> (
                Span.with_span ~group:x.b.label "compile" (fun () ->
                    match Replay.run ~group:x.b.label x.b.cfg x.program with
                    | Ok t -> Replay.matches t e
                    | Error _ -> false))
          in
          Run.op tally ~name:("replay-identical:" ^ x.b.label) ok)
        built;
      let compile_spans = Span.take () in
      let wall f = snd (Stat.time (fun () -> ignore (f ()))) in
      let passes, overhead =
        Stat.interleaved ~seconds
          ~untraced:(fun () -> wall (fun () -> serve_pass ~seed spec artifacts))
          ~traced:(fun () ->
            wall (fun () ->
                List.mapi
                  (fun i rate ->
                    let group = Fmt.str "r%.0f" rate in
                    Span.with_span ~group "serve" (fun () ->
                        serve_rate
                          ~wrap:{ span = (fun name f -> Span.with_span ~group name f) }
                          ~seed spec artifacts i rate))
                  spec.rates))
      in
      let serve_spans = Span.take () in
      let serve_times = Run.layer_times ~passes serve_spans in
      let sched_us =
        Option.value ~default:0. (List.assoc_opt "scheduler.us" serve_times)
      in
      let jobs = float_of_int (List.length all_completed) in
      let batched = List.map (fun p -> p.summary.Serve_report.s_batched) last in
      let nbatched = float_of_int (List.fold_left ( + ) 0 batched) in
      let per_rate =
        List.concat_map
          (fun p ->
            let r = Fmt.str "r%.0f" p.rate in
            [
              ("scheduler.p99_ms." ^ r, p.summary.Serve_report.s_p99_ms);
              ("scheduler.served_rps." ^ r, p.summary.Serve_report.s_throughput_rps);
            ])
          last
      in
      let mean_of f = Stat.mean (List.map (fun p -> f p.summary) last) in
      Run.layer_times ~passes:1 compile_spans
      @ serve_times
      @ Replay.counted ()
      @ per_rate
      @ [
          ("scheduler.jobs", jobs);
          ("scheduler.us_per_job", sched_us /. jobs);
          ( "scheduler.queue_wait_p99_us",
            Stat.quantile 0.99 (List.map queue_wait_us all_completed) );
          ("scheduler.batched_share", nbatched /. jobs);
          ( "scheduler.mean_batch",
            if nbatched = 0. then 1.
            else
              Stat.sum
                (List.map
                   (fun p ->
                     float_of_int p.summary.Serve_report.s_batched
                     *. p.summary.Serve_report.s_mean_batch)
                   last)
              /. nbatched );
          ("multi.slowdown_mean", mean_of (fun s -> s.Serve_report.s_mean_slowdown));
          ("multi.avg_resident", mean_of (fun s -> s.Serve_report.s_avg_resident));
          ("multi.avg_sm_demand", mean_of (fun s -> s.Serve_report.s_avg_sm_demand));
          ("trace.overhead_pct", overhead);
          ( "trace.unattributed_pct",
            Span.unattributed_pct (compile_spans @ serve_spans) );
        ]
    end
  in
  let e2e =
    let common =
      [ ("setup_s", setup_s, "s"); ("serve_host_s", host_s, "s") ]
    in
    let mix_metrics () =
      let good =
        List.fold_left
          (fun acc p -> if meets_limit p then Float.max acc p.rate else acc)
          0. last
      in
      [
        ("p50_ms", head.summary.Serve_report.s_p50_ms, "sim_ms");
        ("p99_ms", head.summary.Serve_report.s_p99_ms, "sim_ms");
        ("goodput_rps", good, "req/s");
      ]
    in
    let decode_metrics () =
      let prefills =
        List.filter
          (fun (c : Scheduler.completed) -> c.Scheduler.c_phase = Scheduler.Prefill)
          head.outcome.Scheduler.o_completed
      in
      let ttft = List.map Scheduler.latency_us prefills in
      let itl =
        List.filter_map
          (fun (c : Scheduler.completed) ->
            match c.Scheduler.c_phase with
            | Scheduler.Decode _ -> Some (Scheduler.phase_latency_us c)
            | _ -> None)
          head.outcome.Scheduler.o_completed
      in
      [
        ("ttft_p50_ms", percentile_ms 0.5 ttft, "sim_ms");
        ("ttft_p90_ms", percentile_ms 0.9 ttft, "sim_ms");
        ("itl_p50_ms", percentile_ms 0.5 itl, "sim_ms");
        ("itl_p99_ms", percentile_ms 0.99 itl, "sim_ms");
        ("tok_per_s", head.summary.Serve_report.s_tokens_per_s, "tok/sim_s");
      ]
    in
    common
    @ (if spec.gen > 0 then decode_metrics () else mix_metrics ())
    @ [
        ("peak_heap_mb", heap_mb, "MB");
        ("fail_share", Run.fail_share tally, "ratio");
      ]
  in
  {
    Run.host_s;
    e2e;
    layers;
    attempted = tally.Run.attempted;
    failed = tally.Run.failed;
    checks_failed = List.rev tally.Run.failures;
  }
