(* Serving-layer tests: workload determinism, scheduler policies, and the
   multi-stream contention model's sanity contracts (fixed seeds
   throughout):

   - one stream reproduces the solo simulated latency exactly,
   - per-request service time is monotonically non-decreasing in the
     concurrency bound,
   - throughput saturates once the device's SMs are covered instead of
     growing without bound,
   - two identical runs produce byte-identical outcomes. *)

let dev = Device.a100

let ok_or_fail what = function
  | Ok r -> r
  | Error ds ->
      Alcotest.failf "%s: %s" what
        (String.concat "; " (List.map Diag.to_string ds))

let tiny_report (e : Zoo.entry) : Souffle.report =
  ok_or_fail e.Zoo.name (Souffle.compile_result (Lower.run (e.Zoo.tiny ())))

let artifact_of ~model (r : Souffle.report) : Scheduler.artifact =
  Scheduler.artifact_of_prog dev ~model
    ~degraded:(List.length r.Souffle.degraded)
    r.Souffle.prog

let run_batch ?(policy = Scheduler.Fifo) ?queue_cap ?drop ?retries ?backoff_us
    ?deadline_us ?chaos ?max_batch ~streams artifacts reqs =
  Scheduler.run dev
    (Scheduler.cfg ?queue_cap ?drop ?retries ?backoff_us ?deadline_us ?chaos
       ?max_batch ~policy ~max_streams:streams ())
    ~artifacts reqs

(* n identical zero-time arrivals of one model *)
let batch_of model n =
  Workload.generate ~seed:3 ~rate_rps:0. ~requests:n [ (model, 1.) ]

(* one busy compute kernel that demands half the device's SMs (216 blocks
   at 4 blocks/SM residency = 54 SMs) with a stage that dwarfs the launch
   latency, so two streams cover the machine and further concurrency only
   stretches execution *)
let synthetic_artifact () : Scheduler.artifact =
  let k =
    Kernel_ir.kernel ~name:"busy" ~grid_blocks:216 ~threads_per_block:256
      ~smem_per_block:(40 * 1024)
      [ Kernel_ir.stage ~label:"s0" [ Kernel_ir.Fma { flops = 500_000_000 } ] ]
  in
  Scheduler.artifact_of_prog dev ~model:"busy"
    { Kernel_ir.pname = "busy"; kernels = [ k ] }

(* ---- contention-model sanity ---- *)

let test_single_stream_equals_solo () =
  List.iter
    (fun (e : Zoo.entry) ->
      let r = tiny_report e in
      let solo = r.Souffle.sim.Sim.total.Counters.time_us in
      let a = artifact_of ~model:e.Zoo.name r in
      Alcotest.(check bool)
        (e.Zoo.name ^ ": artifact solo latency is the Sim latency")
        true
        (a.Scheduler.art_solo_us = solo);
      let o = run_batch ~streams:1 [ a ] (batch_of e.Zoo.name 1) in
      match o.Scheduler.o_completed with
      | [ c ] ->
          Alcotest.(check bool)
            (e.Zoo.name ^ ": served service time is the solo Sim latency")
            true
            (c.Scheduler.c_service_us = solo);
          Alcotest.(check bool)
            (e.Zoo.name ^ ": end-to-end latency is the solo Sim latency")
            true
            (Scheduler.latency_us c = solo)
      | cs -> Alcotest.failf "expected 1 completion, got %d" (List.length cs))
    Zoo.all

let test_service_monotone_in_concurrency () =
  let a = synthetic_artifact () in
  let reqs = batch_of "busy" 16 in
  let mean_service streams =
    (Serve_report.summarize (run_batch ~streams [ a ] reqs))
      .Serve_report.s_mean_service_ms
  in
  let rec check prev = function
    | [] -> ()
    | c :: rest ->
        let m = mean_service c in
        Alcotest.(check bool)
          (Fmt.str "mean service at %d streams >= at fewer" c)
          true
          (m >= prev -. 1e-9);
        check m rest
  in
  check (mean_service 1) [ 2; 4; 8; 16 ]

let test_throughput_saturates () =
  let a = synthetic_artifact () in
  let reqs = batch_of "busy" 32 in
  let thr streams =
    (Serve_report.summarize (run_batch ~streams [ a ] reqs))
      .Serve_report.s_throughput_rps
  in
  let t1 = thr 1 and t4 = thr 4 and t8 = thr 8 and t16 = thr 16 in
  Alcotest.(check bool) "4 streams at least double serial throughput" true
    (t4 >= 2. *. t1);
  Alcotest.(check bool) "throughput saturates past full SM coverage" true
    (t16 <= 1.05 *. t8);
  Alcotest.(check bool) "saturated throughput still beats serial 2x" true
    (t8 >= 2. *. t1)

let test_identical_runs_byte_identical () =
  let outcome () =
    let arts =
      List.map
        (fun name ->
          artifact_of ~model:name (tiny_report (Option.get (Zoo.find name))))
        [ "bert"; "mmoe"; "lstm" ]
    in
    let reqs =
      Workload.generate ~seed:9 ~rate_rps:120000. ~requests:24
        [ ("BERT", 2.); ("MMoE", 1.); ("LSTM", 1.) ]
    in
    Jsonlite.to_string
      (Serve_report.outcome_json ~label:"determinism"
         (run_batch ~policy:Scheduler.Sel ~streams:4 arts reqs))
  in
  Alcotest.(check string) "byte-identical outcomes" (outcome ()) (outcome ())

(* ---- the engine over a long stream history ---- *)

(* a two-stage kernel on half the device's SMs (216 blocks at 4 blocks/SM)
   that mixes compute with DRAM traffic, so two resident streams contend
   on both resources; [heavy] adds a second, longer kernel so that streams
   of different lengths overlap at shifting offsets *)
let history_profiles ~heavy : Sim.kernel_profile list =
  let k name ~flops ~bytes =
    Kernel_ir.kernel ~name ~grid_blocks:216 ~threads_per_block:256
      ~smem_per_block:(40 * 1024)
      [
        Kernel_ir.stage ~label:"s0"
          [ Kernel_ir.Fma { flops }; Kernel_ir.ldg bytes ];
        Kernel_ir.stage ~label:"s1"
          [ Kernel_ir.Fma { flops = flops / 4 }; Kernel_ir.stg (bytes / 4) ];
      ]
  in
  let kernels =
    k "a" ~flops:20_000_000 ~bytes:8_000_000
    :: (if heavy then [ k "b" ~flops:60_000_000 ~bytes:2_000_000 ] else [])
  in
  Sim.profile_prog dev { Kernel_ir.pname = "history"; kernels }

let history_streams = 2000
let history_cancelled = 700 (* cancelled mid-kernel *)
let history_faulted = 1300 (* struck by an armed Kernel_fault *)

(* [history_streams] streams through one engine, topped up to at most two
   resident after every completion, in the shape of the serving loop *)
let run_history () : Sim.Multi.t =
  Faultinject.Runtime.reset ();
  let light = history_profiles ~heavy:false
  and heavy = history_profiles ~heavy:true in
  let eng = Sim.Multi.create dev in
  let next = ref 0 in
  let top_up () =
    while !next < history_streams && List.length (Sim.Multi.active eng) < 2 do
      let i = !next in
      incr next;
      let faults =
        if i = history_faulted then
          [ Faultinject.Kernel_fault { kernel = 0; stage = 1 } ]
        else []
      in
      ignore
        (Sim.Multi.launch eng ~faults
           (if i mod 3 = 0 then heavy else light))
    done
  in
  let rec loop () =
    top_up ();
    if !next < history_streams then begin
      let now = Sim.Multi.now_us eng in
      if !next = history_cancelled + 1 then begin
        ignore (Sim.Multi.advance eng ~until:(now +. 5.));
        List.iter
          (fun (s : Sim.Multi.stream) ->
            if s.Sim.Multi.st_id = history_cancelled then Sim.Multi.cancel eng s)
          (Sim.Multi.active eng)
      end;
      ignore (Sim.Multi.advance eng ~until:infinity);
      loop ()
    end
  in
  loop ();
  Sim.Multi.drain eng;
  Faultinject.Runtime.reset ();
  eng

(* FNV-1a over the finish times' IEEE bits, in launch order *)
let finish_digest (ss : Sim.Multi.stream list) : int64 =
  List.fold_left
    (fun h (s : Sim.Multi.stream) ->
      let bits =
        Int64.bits_of_float (Option.value ~default:nan s.Sim.Multi.st_finish_us)
      in
      Int64.mul (Int64.logxor h bits) 0x100000001b3L)
    0xcbf29ce484222325L ss

(* finish-time bits recorded before the engine kept a resident set: the
   resident-set loop must reproduce the full-history scan bit for bit *)
let history_expected_digest = 8667395098554764972L

let history_expected_bits =
  [
    (0, 4627102614784478094L);
    (1, 4624329235580398360L);
    (699, 4662711854251252785L);
    (history_cancelled, 4662707786908472001L);
    (history_faulted, 4666792746294462167L);
    (history_streams - 1, 4669790221661529064L);
  ]

let test_engine_long_history () =
  let eng = run_history () in
  let ss = Sim.Multi.streams eng in
  Alcotest.(check (list int)) "streams is the full history, in launch order"
    (List.init history_streams Fun.id)
    (List.map (fun (s : Sim.Multi.stream) -> s.Sim.Multi.st_id) ss);
  Alcotest.(check int) "no stream active after drain" 0
    (List.length (Sim.Multi.active eng));
  Alcotest.(check int) "at most two streams ever resident" 2
    (Sim.Multi.peak_resident eng);
  let outcome i = (List.nth ss i).Sim.Multi.st_outcome in
  Alcotest.(check string) "cancelled mid-kernel" "cancelled"
    (Sim.Multi.outcome_to_string (outcome history_cancelled));
  Alcotest.(check string) "armed fault struck" "faulted"
    (Sim.Multi.outcome_to_string (outcome history_faulted));
  Alcotest.(check int) "every other stream finished" (history_streams - 2)
    (List.length
       (List.filter
          (fun (s : Sim.Multi.stream) -> s.Sim.Multi.st_outcome = Sim.Multi.Finished)
          ss));
  List.iter
    (fun (i, bits) ->
      Alcotest.(check int64)
        (Fmt.str "stream %d finish bits" i)
        bits
        (Int64.bits_of_float (Option.get (List.nth ss i).Sim.Multi.st_finish_us)))
    history_expected_bits;
  Alcotest.(check int64) "finish-time digest over every stream"
    history_expected_digest (finish_digest ss)

(* identical streams launched together cross every phase boundary at the
   same instant: the completions come back in launch order, the order the
   serving loop's completion handling and slot reuse depend on *)
let test_engine_simultaneous_completions_in_launch_order () =
  let eng = Sim.Multi.create dev in
  let profs = history_profiles ~heavy:false in
  let ids =
    List.init 3 (fun _ -> (Sim.Multi.launch eng profs).Sim.Multi.st_id)
  in
  match Sim.Multi.advance eng ~until:infinity with
  | `Completed done_ ->
      Alcotest.(check (list int)) "completed in launch order" ids
        (List.map (fun (s : Sim.Multi.stream) -> s.Sim.Multi.st_id) done_)
  | _ -> Alcotest.fail "expected the three streams to complete together"

(* seven streams through one engine under a throttle window (15-40 us at
   half capacity): stream 1 hangs 3x in its first kernel's second stage,
   stream 3 faults there, stream 4 is cancelled mid-kernel at 20 us; up to
   six are on the device at once *)
let run_contention () : Sim.Multi.t =
  Faultinject.Runtime.reset ();
  let light = history_profiles ~heavy:false
  and heavy = history_profiles ~heavy:true in
  let eng = Sim.Multi.create dev in
  Sim.Multi.throttle eng ~start_us:15. ~dur_us:25. ~capacity:0.5;
  let launch ?(faults = []) profs = Sim.Multi.launch eng ~faults profs in
  ignore (launch heavy);
  ignore
    (launch
       ~faults:
         [ Faultinject.Kernel_hang { kernel = 0; stage = 1; factor = 3. } ]
       light);
  ignore (Sim.Multi.advance eng ~until:10.);
  ignore (launch heavy);
  ignore
    (launch
       ~faults:[ Faultinject.Kernel_fault { kernel = 0; stage = 1 } ]
       light);
  let victim = launch heavy in
  ignore (Sim.Multi.advance eng ~until:14.);
  ignore (launch light);
  ignore (Sim.Multi.advance eng ~until:20.);
  Sim.Multi.cancel eng victim;
  ignore (launch heavy);
  Sim.Multi.drain eng;
  Faultinject.Runtime.reset ();
  eng

(* recorded on the engine that kept a per-event occupancy timeline, with
   the integrals folded over it the way the serving report did: running
   integrals must reproduce that fold bit for bit *)
let contention_expected_digest = -7118356528266872909L
let contention_expected_sm_bits = 4669281375121949453L
let contention_expected_resident_bits = 4643481400365528565L

let test_engine_contention_pinned () =
  let eng = run_contention () in
  let ss = Sim.Multi.streams eng in
  Alcotest.(check (list string)) "outcomes"
    [ "finished"; "finished"; "finished"; "faulted"; "cancelled"; "finished";
      "finished" ]
    (List.map
       (fun (s : Sim.Multi.stream) ->
         Sim.Multi.outcome_to_string s.Sim.Multi.st_outcome)
       ss);
  Alcotest.(check int64) "finish-time digest" contention_expected_digest
    (finish_digest ss);
  Alcotest.(check int64) "SM-demand integral bits" contention_expected_sm_bits
    (Int64.bits_of_float (Sim.Multi.sm_demand_us eng));
  Alcotest.(check int64) "resident integral bits"
    contention_expected_resident_bits
    (Int64.bits_of_float (Sim.Multi.resident_us eng));
  Alcotest.(check int) "peak resident" 6 (Sim.Multi.peak_resident eng)

(* an outcome holds its completions plus a few aggregates: nothing that
   grows with the number of engine events *)
let test_outcome_retention () =
  let arts =
    List.map
      (fun k ->
        let e = Option.get (Zoo.find k) in
        artifact_of ~model:e.Zoo.name (tiny_report e))
      [ "mmoe"; "lstm" ]
  in
  let reqs =
    Workload.generate ~seed:29 ~rate_rps:3000. ~requests:200
      [ ("MMoE", 2.); ("LSTM", 1.) ]
  in
  let o = run_batch ~streams:8 arts reqs in
  let words = Obj.reachable_words (Obj.repr o)
  and completed = Obj.reachable_words (Obj.repr o.Scheduler.o_completed) in
  Alcotest.(check bool)
    (Fmt.str "outcome %d words < 2x its completions' %d" words completed)
    true
    (words < 2 * completed)

(* ---- scheduler policies ---- *)

let test_sel_prefers_shortest () =
  let bert = artifact_of ~model:"BERT" (tiny_report (Option.get (Zoo.find "bert"))) in
  let mmoe = artifact_of ~model:"MMoE" (tiny_report (Option.get (Zoo.find "mmoe"))) in
  Alcotest.(check bool) "mmoe is the shorter model" true
    (mmoe.Scheduler.art_solo_us < bert.Scheduler.art_solo_us);
  let reqs =
    [
      { Workload.rq_id = 0; rq_model = "BERT"; rq_arrival_us = 0.; rq_slo_us = None; rq_gen = 0 };
      { Workload.rq_id = 1; rq_model = "MMoE"; rq_arrival_us = 0.; rq_slo_us = None; rq_gen = 0 };
    ]
  in
  let first policy =
    match
      (run_batch ~policy ~streams:1 [ bert; mmoe ] reqs).Scheduler.o_completed
    with
    | c :: _ -> c.Scheduler.c_model
    | [] -> Alcotest.fail "no completions"
  in
  Alcotest.(check string) "fifo serves arrival order" "BERT"
    (first Scheduler.Fifo);
  Alcotest.(check string) "sel serves the shortest first" "MMoE"
    (first Scheduler.Sel)

let test_unknown_model_rejected () =
  let bert = artifact_of ~model:"BERT" (tiny_report (Option.get (Zoo.find "bert"))) in
  let reqs =
    [ { Workload.rq_id = 0; rq_model = "nope"; rq_arrival_us = 0.; rq_slo_us = None; rq_gen = 0 } ]
  in
  Alcotest.check_raises "unknown model"
    (Invalid_argument "Scheduler.run: no artifact for model nope") (fun () ->
      ignore (run_batch ~streams:1 [ bert ] reqs))

(* ---- workload generator ---- *)

let test_parse_mix () =
  (match Workload.parse_mix "bert=2, mmoe" with
  | Ok [ ("bert", 2.); ("mmoe", 1.) ] -> ()
  | Ok m ->
      Alcotest.failf "unexpected mix (%d entries)" (List.length m)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  Alcotest.(check bool) "bad weight rejected" true
    (Result.is_error (Workload.parse_mix "bert=-1"));
  Alcotest.(check bool) "empty mix rejected" true
    (Result.is_error (Workload.parse_mix "  "))

let test_workload_deterministic_and_sorted () =
  let gen () =
    Workload.generate ~seed:5 ~rate_rps:1000. ~requests:64
      [ ("a", 1.); ("b", 3.) ]
  in
  let w1 = gen () and w2 = gen () in
  Alcotest.(check bool) "same seed, same workload" true (w1 = w2);
  let rec sorted = function
    | a :: (b : Workload.request) :: rest ->
        a.Workload.rq_arrival_us <= b.Workload.rq_arrival_us && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "arrivals non-decreasing" true (sorted w1);
  let batch = Workload.generate ~seed:5 ~rate_rps:0. ~requests:8 [ ("a", 1.) ] in
  Alcotest.(check bool) "zero rate means a closed batch at t=0" true
    (List.for_all (fun (r : Workload.request) -> r.Workload.rq_arrival_us = 0.) batch)

(* ---- compile-once artifact store ---- *)

let test_artifacts_compile_once () =
  let store = Souffle.Artifacts.create () in
  let compiles = ref 0 in
  let gen () =
    incr compiles;
    Lower.run (Mmoe.create ~cfg:Mmoe.tiny ())
  in
  let r1 = ok_or_fail "first get" (Souffle.Artifacts.get store ~name:"MMoE" gen) in
  let r2 = ok_or_fail "second get" (Souffle.Artifacts.get store ~name:"mmoe" gen) in
  Alcotest.(check int) "compiled exactly once" 1 !compiles;
  Alcotest.(check bool) "same report returned" true (r1 == r2);
  Alcotest.(check int) "one entry stored" 1 (Souffle.Artifacts.size store);
  (* a different level is a different artifact *)
  let r3 =
    ok_or_fail "v0 get"
      (Souffle.Artifacts.get store
         ~cfg:(Souffle.config ~level:Souffle.V0 ())
         ~name:"mmoe" gen)
  in
  Alcotest.(check int) "second level compiles again" 2 !compiles;
  Alcotest.(check bool) "distinct reports per level" true (not (r1 == r3));
  Alcotest.(check int) "two entries stored" 2 (Souffle.Artifacts.size store)

(* ---- fault tolerance: chaos, deadlines, retries, shedding ---- *)

(* a kernel light enough (8 blocks -> 2 SMs) that several streams run
   entirely uncontended: stretch stays 1, so one stream's fate cannot move
   another stream's finish time *)
let light_artifact () : Scheduler.artifact =
  let k =
    Kernel_ir.kernel ~name:"light" ~grid_blocks:8 ~threads_per_block:256
      ~smem_per_block:(4 * 1024)
      [ Kernel_ir.stage ~label:"s0" [ Kernel_ir.Fma { flops = 50_000_000 } ] ]
  in
  Scheduler.artifact_of_prog dev ~model:"light"
    { Kernel_ir.pname = "light"; kernels = [ k ] }

let outcome_bytes o = Jsonlite.to_string (Serve_report.outcome_json o)

let test_zero_fault_chaos_is_baseline () =
  let a = synthetic_artifact () in
  let reqs = batch_of "busy" 12 in
  let base = run_batch ~streams:4 [ a ] reqs in
  let chaos = run_batch ~streams:4 ~chaos:Faultinject.chaos_zero [ a ] reqs in
  Alcotest.(check string) "zero-fault chaos run is byte-identical to baseline"
    (outcome_bytes base) (outcome_bytes chaos)

let test_fault_retries_without_perturbing_others () =
  let a = light_artifact () in
  let stages = [| 1 |] in
  let n = 4 in
  (* pick a chaos seed whose plan faults exactly one request's first
     attempt and leaves every retry clean — derivable without running the
     engine because plans depend only on (seed, request, attempt) *)
  let plan c rq attempt = Faultinject.chaos_plan c ~rq_id:rq ~attempt ~stages in
  let chaos =
    let rec search seed =
      if seed > 5000 then Alcotest.fail "no suitable chaos seed found"
      else
        let c =
          { Faultinject.chaos_zero with
            Faultinject.ch_seed = seed;
            ch_fault_rate = 0.3 }
        in
        let faulted_first =
          List.filter
            (fun rq ->
              List.exists
                (function Faultinject.Kernel_fault _ -> true | _ -> false)
                (plan c rq 0))
            (List.init n Fun.id)
        in
        let retry_clean rq = plan c rq 1 = [] in
        match faulted_first with
        | [ rq ] when retry_clean rq -> (c, rq)
        | _ -> search (seed + 1)
    in
    search 0
  in
  let c, faulted_rq = chaos in
  let reqs = batch_of "light" n in
  let base = run_batch ~streams:n [ a ] reqs in
  let out = run_batch ~streams:n ~retries:1 ~chaos:c [ a ] reqs in
  Alcotest.(check int) "every request still completes" n
    (List.length out.Scheduler.o_completed);
  Alcotest.(check int) "no request failed" 0 (List.length out.Scheduler.o_failed);
  Alcotest.(check int) "exactly one aborted attempt" 1
    (List.length out.Scheduler.o_aborted);
  Alcotest.(check bool) "the fault tripped the runtime registry" true
    (Faultinject.Runtime.total_trips () >= 1);
  let finish o rq =
    match
      List.find_opt
        (fun (c : Scheduler.completed) -> c.Scheduler.c_req.Workload.rq_id = rq)
        o.Scheduler.o_completed
    with
    | Some c -> c.Scheduler.c_finish_us
    | None -> Alcotest.failf "request %d did not complete" rq
  in
  List.iter
    (fun rq ->
      if rq <> faulted_rq then
        Alcotest.(check bool)
          (Fmt.str "request %d finish time unperturbed by the fault" rq)
          true
          (finish base rq = finish out rq))
    (List.init n Fun.id);
  let retried =
    List.find
      (fun (c : Scheduler.completed) ->
        c.Scheduler.c_req.Workload.rq_id = faulted_rq)
      out.Scheduler.o_completed
  in
  Alcotest.(check int) "the faulted request completed on its retry" 1
    retried.Scheduler.c_retries

(* The documented backoff contract: the k-th retry (1-based) is dispatched
   exactly [k * backoff_us] after the fault that triggered it.  Pin the
   schedule so chaos-bench recovery numbers stay reproducible against the
   spec. *)
let test_retry_backoff_schedule () =
  let a = light_artifact () in
  let stages = [| 1 |] in
  let plan c attempt = Faultinject.chaos_plan c ~rq_id:0 ~attempt ~stages in
  let faulty c attempt =
    List.exists
      (function Faultinject.Kernel_fault _ -> true | _ -> false)
      (plan c attempt)
  in
  let chaos =
    let rec search seed =
      if seed > 20000 then Alcotest.fail "no suitable chaos seed found"
      else
        let c =
          { Faultinject.chaos_zero with
            Faultinject.ch_seed = seed;
            ch_fault_rate = 0.5 }
        in
        if faulty c 0 && faulty c 1 && plan c 2 = [] then c
        else search (seed + 1)
    in
    search 0
  in
  let backoff = 50. in
  let reqs = batch_of "light" 1 in
  let o =
    run_batch ~streams:1 ~retries:2 ~backoff_us:backoff ~chaos [ a ] reqs
  in
  match (o.Scheduler.o_aborted, o.Scheduler.o_completed) with
  | [ ab0; ab1 ], [ c ] ->
      Alcotest.(check int) "completed on the second retry" 2
        c.Scheduler.c_retries;
      Alcotest.(check (float 1e-6)) "retry 1 dispatches 1 * backoff after its fault"
        (ab0.Scheduler.a_end_us +. (1. *. backoff))
        ab1.Scheduler.a_dispatch_us;
      Alcotest.(check (float 1e-6)) "retry 2 dispatches 2 * backoff after its fault"
        (ab1.Scheduler.a_end_us +. (2. *. backoff))
        c.Scheduler.c_dispatch_us
  | abs, cs ->
      Alcotest.failf "expected 2 aborted + 1 completed, got %d + %d"
        (List.length abs) (List.length cs)

(* Nearest-rank percentile edge cases: tiny samples, exact rank
   boundaries, and NaN hygiene. *)
let test_percentile_edges () =
  let p = Serve_report.percentile in
  Alcotest.(check (float 0.)) "n=1 p50" 7. (p [ 7. ] 50.);
  Alcotest.(check (float 0.)) "n=1 p99" 7. (p [ 7. ] 99.);
  Alcotest.(check (float 0.)) "n=2 p50 is the lower sample" 1. (p [ 2.; 1. ] 50.);
  Alcotest.(check (float 0.)) "n=2 p95 is the upper sample" 2. (p [ 2.; 1. ] 95.);
  let hundred = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p50 of 1..100 is 50" 50. (p hundred 50.);
  Alcotest.(check (float 0.)) "p99 of 1..100 is 99" 99. (p hundred 99.);
  Alcotest.(check (float 0.)) "p100 of 1..100 is 100" 100. (p hundred 100.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (p [] 50.));
  Alcotest.(check bool) "all-NaN is nan" true (Float.is_nan (p [ nan ] 50.));
  Alcotest.(check (float 0.)) "NaN samples are dropped, not sorted" 3.
    (p [ nan; 3.; nan; 1. ] 95.)

let test_deadline_frees_slot_for_next_request () =
  let a = synthetic_artifact () in
  let solo = a.Scheduler.art_solo_us in
  let reqs =
    [
      { Workload.rq_id = 0; rq_model = "busy"; rq_arrival_us = 0.;
        rq_slo_us = Some (solo /. 2.); rq_gen = 0 };
      { Workload.rq_id = 1; rq_model = "busy"; rq_arrival_us = 0.;
        rq_slo_us = None; rq_gen = 0 };
    ]
  in
  let o = run_batch ~streams:1 [ a ] reqs in
  (match o.Scheduler.o_aborted with
  | [ ab ] ->
      Alcotest.(check bool) "request 0 cancelled at its deadline" true
        (ab.Scheduler.a_reason = Scheduler.Deadline
        && ab.Scheduler.a_req.Workload.rq_id = 0
        && ab.Scheduler.a_end_us = solo /. 2.)
  | abs -> Alcotest.failf "expected 1 aborted attempt, got %d" (List.length abs));
  match o.Scheduler.o_completed with
  | [ c ] ->
      Alcotest.(check bool) "request 1 dispatched the moment the slot freed"
        true
        (c.Scheduler.c_req.Workload.rq_id = 1
        && c.Scheduler.c_dispatch_us = solo /. 2.
        && c.Scheduler.c_finish_us = (solo /. 2.) +. solo)
  | cs -> Alcotest.failf "expected 1 completion, got %d" (List.length cs)

let test_queue_cap_sheds_deterministically () =
  let a = synthetic_artifact () in
  let reqs = batch_of "busy" 16 in
  let go () = run_batch ~streams:2 ~queue_cap:4 [ a ] reqs in
  let o = go () in
  Alcotest.(check int) "cap 4 on 2 streams admits 4 of 16" 4
    (List.length o.Scheduler.o_completed);
  Alcotest.(check int) "the overflow is rejected" 12
    (List.length o.Scheduler.o_dropped);
  Alcotest.(check bool) "rejects are queue-full" true
    (List.for_all
       (fun (d : Scheduler.dropped) -> d.Scheduler.d_reason = Scheduler.Queue_full)
       o.Scheduler.o_dropped);
  Alcotest.(check string) "overloaded run reproduces byte-identically"
    (outcome_bytes o)
    (outcome_bytes (go ()))

let test_chaos_run_deterministic () =
  let a = light_artifact () in
  let chaos =
    { Faultinject.chaos_zero with
      Faultinject.ch_seed = 7;
      ch_fault_rate = 0.2;
      ch_hang_rate = 0.05 }
  in
  let go () =
    outcome_bytes
      (run_batch ~streams:3 ~retries:2 ~deadline_us:1e6 ~chaos [ a ]
         (batch_of "light" 24))
  in
  Alcotest.(check string) "same (seed, chaos, workload) triple, same bytes"
    (go ()) (go ())

(* ---- continuous batching ---- *)

let light_prog () : Kernel_ir.prog =
  let k =
    Kernel_ir.kernel ~name:"light" ~grid_blocks:8 ~threads_per_block:256
      ~smem_per_block:(4 * 1024)
      [ Kernel_ir.stage ~label:"s0" [ Kernel_ir.Fma { flops = 50_000_000 } ] ]
  in
  { Kernel_ir.pname = "light"; kernels = [ k ] }

(* bucket artifacts for the scheduler tests: the same kernel program tagged
   at several batch shapes (attribution is what is under test; the compile
   path of batched programs is covered by the batch suite) *)
let light_buckets buckets : Scheduler.artifact list =
  List.map
    (fun b -> Scheduler.artifact_of_prog dev ~model:"light" ~batch:b (light_prog ()))
    buckets

let test_max_batch_without_buckets_is_baseline () =
  (* batching enabled but no batched artifact supplied: every bucket falls
     back to 1, and the outcome must be byte-identical to batching off *)
  let a = synthetic_artifact () in
  let reqs = batch_of "busy" 12 in
  let off = run_batch ~streams:4 [ a ] reqs in
  let on_ = run_batch ~streams:4 ~max_batch:8 [ a ] reqs in
  Alcotest.(check string)
    "max_batch without bucket artifacts is byte-identical to the baseline"
    (outcome_bytes off) (outcome_bytes on_)

let test_bucket_rounding_deterministic () =
  let arts = light_buckets [ 1; 2; 4 ] in
  let reqs = batch_of "light" 7 in
  let go () = run_batch ~streams:1 ~max_batch:8 arts reqs in
  let o = go () in
  Alcotest.(check int) "all 7 requests complete" 7
    (List.length o.Scheduler.o_completed);
  let buckets =
    List.map (fun (c : Scheduler.completed) -> c.Scheduler.c_batch)
      o.Scheduler.o_completed
  in
  (* 7 queued requests on one stream round down the power-of-two ladder:
     a 4-bucket, then a 2-bucket, then a singleton *)
  Alcotest.(check (list int)) "buckets round down: 4, then 2, then 1"
    [ 4; 4; 4; 4; 2; 2; 1 ] buckets;
  let four =
    List.filter (fun (c : Scheduler.completed) -> c.Scheduler.c_batch = 4)
      o.Scheduler.o_completed
  in
  (match four with
  | c0 :: rest ->
      List.iter
        (fun (c : Scheduler.completed) ->
          Alcotest.(check int) "batch members share one stream"
            c0.Scheduler.c_stream c.Scheduler.c_stream;
          Alcotest.(check bool) "batch members share the finish instant" true
            (c.Scheduler.c_finish_us = c0.Scheduler.c_finish_us))
        rest
  | [] -> Alcotest.fail "no 4-bucket completions");
  Alcotest.(check string) "bucketed run reproduces byte-identically"
    (outcome_bytes o)
    (outcome_bytes (go ()))

let test_batch_fault_retries_members_individually () =
  let arts = light_buckets [ 1; 2 ] in
  let stages = [| 1 |] in
  (* four same-model requests on two streams at max_batch 2: dispatch pairs
     (0,1) and (2,3).  Find a chaos seed that faults the first pair's
     stream (plans derive from the lead request) and leaves the second
     pair and every retry clean. *)
  let plan c rq attempt = Faultinject.chaos_plan c ~rq_id:rq ~attempt ~stages in
  let has_fault p =
    List.exists
      (function Faultinject.Kernel_fault _ -> true | _ -> false)
      p
  in
  let chaos =
    let rec search seed =
      if seed > 5000 then Alcotest.fail "no suitable chaos seed found"
      else
        let c =
          { Faultinject.chaos_zero with
            Faultinject.ch_seed = seed;
            ch_fault_rate = 0.3 }
        in
        if
          has_fault (plan c 0 0)
          && plan c 2 0 = []
          && plan c 0 1 = []
          && plan c 1 1 = []
        then c
        else search (seed + 1)
    in
    search 0
  in
  let reqs = batch_of "light" 4 in
  let o = run_batch ~streams:2 ~max_batch:2 ~retries:1 ~chaos arts reqs in
  Alcotest.(check int) "all 4 requests complete" 4
    (List.length o.Scheduler.o_completed);
  Alcotest.(check int) "no request failed" 0 (List.length o.Scheduler.o_failed);
  (* the fault aborts both members of the batched stream... *)
  Alcotest.(check int) "both members of the faulted stream aborted" 2
    (List.length o.Scheduler.o_aborted);
  let find rq =
    List.find
      (fun (c : Scheduler.completed) -> c.Scheduler.c_req.Workload.rq_id = rq)
      o.Scheduler.o_completed
  in
  (* ...and each retries individually: attempt 1 never re-batches *)
  List.iter
    (fun rq ->
      let c = find rq in
      Alcotest.(check int)
        (Fmt.str "request %d completed on its retry" rq)
        1 c.Scheduler.c_retries;
      Alcotest.(check int)
        (Fmt.str "request %d retried unbatched" rq)
        1 c.Scheduler.c_batch)
    [ 0; 1 ];
  (* the second pair rode its batched stream to completion untouched *)
  List.iter
    (fun rq ->
      let c = find rq in
      Alcotest.(check int)
        (Fmt.str "request %d completed first-try" rq)
        0 c.Scheduler.c_retries;
      Alcotest.(check int)
        (Fmt.str "request %d stayed batched" rq)
        2 c.Scheduler.c_batch)
    [ 2; 3 ]

let test_batched_service_attribution () =
  let arts = light_buckets [ 1; 2; 4 ] in
  let reqs = batch_of "light" 4 in
  let o = run_batch ~streams:1 ~max_batch:4 arts reqs in
  match o.Scheduler.o_completed with
  | (c :: _ as cs) when List.length cs = 4 ->
      let solo = (List.hd arts).Scheduler.art_solo_us in
      Alcotest.(check bool) "per-member service is the stream's 1/4 share"
        true
        (List.for_all
           (fun (x : Scheduler.completed) ->
             x.Scheduler.c_service_us = c.Scheduler.c_service_us)
           cs);
      Alcotest.(check bool) "solo estimate stays the unbatched latency" true
        (c.Scheduler.c_solo_us = solo);
      Alcotest.(check bool) "batched members beat their solo estimate" true
        (c.Scheduler.c_service_us < solo);
      let s = Serve_report.summarize o in
      Alcotest.(check int) "summary counts the batched completions" 4
        s.Serve_report.s_batched;
      Alcotest.(check bool) "summary mean bucket is 4" true
        (s.Serve_report.s_mean_batch = 4.)
  | cs -> Alcotest.failf "expected 4 completions, got %d" (List.length cs)

(* ---- generation: prefill/decode lifecycle ---- *)

(* a prefill artifact plus two decode position buckets of the same model;
   all share one light kernel so timing stays uncontended and exact *)
let gen_artifacts () =
  [
    Scheduler.artifact_of_prog dev ~model:"lm" (light_prog ());
    Scheduler.artifact_of_prog dev ~model:"lm" ~pos:4 (light_prog ());
    Scheduler.artifact_of_prog dev ~model:"lm" ~pos:8 (light_prog ());
  ]

let gen_request ?(id = 0) gen =
  { Workload.rq_id = id; rq_model = "lm"; rq_arrival_us = 0.; rq_slo_us = None;
    rq_gen = gen }

let run_gen ?retries ?chaos reqs =
  Scheduler.run dev
    (Scheduler.cfg ?retries ?chaos ~gen_prompt:4 ~policy:Scheduler.Fifo
       ~max_streams:1 ())
    ~artifacts:(gen_artifacts ()) reqs

let test_generation_lifecycle () =
  let o = run_gen [ gen_request 3 ] in
  Alcotest.(check int) "nothing failed or dropped" 0
    (List.length o.Scheduler.o_failed + List.length o.Scheduler.o_dropped);
  let cs =
    List.sort
      (fun (a : Scheduler.completed) b ->
        compare a.Scheduler.c_finish_us b.Scheduler.c_finish_us)
      o.Scheduler.o_completed
  in
  Alcotest.(check int) "1 prefill + 3 decode completions" 4 (List.length cs);
  (match List.map (fun (c : Scheduler.completed) -> c.Scheduler.c_phase) cs with
  | [ Scheduler.Prefill; Scheduler.Decode 1; Scheduler.Decode 2;
      Scheduler.Decode 3 ] ->
      ()
  | ps ->
      Alcotest.failf "unexpected phase sequence: %s"
        (String.concat ", " (List.map Scheduler.phase_to_string ps)));
  (* each decode step enters the queue the instant the previous phase
     finishes — the carried KV state is handed off, never recomputed *)
  let rec chain = function
    | (a : Scheduler.completed) :: (b : Scheduler.completed) :: rest ->
        Alcotest.(check (float 0.)) "next phase issued at previous finish"
          a.Scheduler.c_finish_us b.Scheduler.c_issue_us;
        chain (b :: rest)
    | _ -> ()
  in
  chain cs;
  (* only the last decode step is the request's terminal completion *)
  Alcotest.(check (list bool))
    "terminal only at the last decode step"
    [ false; false; false; true ]
    (List.map Scheduler.is_terminal cs);
  let s = Serve_report.summarize o in
  Alcotest.(check int) "summary counts one request" 1 s.Serve_report.s_requests;
  Alcotest.(check int) "one prefill" 1 s.Serve_report.s_prefills;
  Alcotest.(check int) "three decode steps" 3 s.Serve_report.s_decodes;
  Alcotest.(check bool) "positive decode throughput" true
    (s.Serve_report.s_tokens_per_s > 0.);
  Alcotest.(check string) "generation run reproduces byte-identically"
    (outcome_bytes o)
    (outcome_bytes (run_gen [ gen_request 3 ]))

let test_decode_fault_retries_same_position () =
  let stages = [| 1 |] in
  let plan c rq attempt = Faultinject.chaos_plan c ~rq_id:rq ~attempt ~stages in
  let has_fault p =
    List.exists
      (function Faultinject.Kernel_fault _ -> true | _ -> false)
      p
  in
  (* decode step t of request 0 draws its chaos plan from rq_id + 7919*t:
     find a seed that faults decode step 1's first attempt only, leaving
     the prefill, the retry, and decode step 2 clean *)
  let d1 = 7919 and d2 = 2 * 7919 in
  let chaos =
    let rec search seed =
      if seed > 20000 then Alcotest.fail "no suitable chaos seed found"
      else
        let c =
          { Faultinject.chaos_zero with
            Faultinject.ch_seed = seed;
            ch_fault_rate = 0.3 }
        in
        if
          plan c 0 0 = []
          && has_fault (plan c d1 0)
          && plan c d1 1 = []
          && plan c d2 0 = []
        then c
        else search (seed + 1)
    in
    search 0
  in
  let o = run_gen ~retries:1 ~chaos [ gen_request 2 ] in
  Alcotest.(check int) "no failures" 0 (List.length o.Scheduler.o_failed);
  Alcotest.(check int) "prefill + 2 decode completions" 3
    (List.length o.Scheduler.o_completed);
  (* the fault hit decode step 1 and only decode step 1 *)
  (match o.Scheduler.o_aborted with
  | [ ab ] ->
      Alcotest.(check string) "aborted attempt was decode step 1" "decode:1"
        (Scheduler.phase_to_string ab.Scheduler.a_phase);
      Alcotest.(check int) "it was the first attempt" 0 ab.Scheduler.a_try
  | abs -> Alcotest.failf "expected 1 aborted attempt, got %d" (List.length abs));
  (* the retry re-ran the SAME step at the same KV position: the completed
     decode 1 carries one retry, and its issue instant is unchanged from
     the original hand-off (KV is immutable input, nothing re-issues) *)
  let find_phase p =
    List.find
      (fun (c : Scheduler.completed) -> c.Scheduler.c_phase = p)
      o.Scheduler.o_completed
  in
  let pre = find_phase Scheduler.Prefill in
  let dec1 = find_phase (Scheduler.Decode 1) in
  let dec2 = find_phase (Scheduler.Decode 2) in
  Alcotest.(check int) "decode 1 completed on its retry" 1
    dec1.Scheduler.c_retries;
  Alcotest.(check (float 0.)) "retried step still issued at the prefill finish"
    pre.Scheduler.c_finish_us dec1.Scheduler.c_issue_us;
  Alcotest.(check int) "decode 2 rode through clean" 0 dec2.Scheduler.c_retries;
  Alcotest.(check (float 0.)) "decode 2 issued at decode 1's (retried) finish"
    dec1.Scheduler.c_finish_us dec2.Scheduler.c_issue_us;
  Alcotest.(check bool) "terminal completion is decode 2" true
    (Scheduler.is_terminal dec2 && not (Scheduler.is_terminal dec1))

let suite =
  [
    Alcotest.test_case "single stream equals solo Sim" `Quick
      test_single_stream_equals_solo;
    Alcotest.test_case "service monotone in concurrency" `Quick
      test_service_monotone_in_concurrency;
    Alcotest.test_case "throughput saturates" `Quick test_throughput_saturates;
    Alcotest.test_case "identical runs byte-identical" `Quick
      test_identical_runs_byte_identical;
    Alcotest.test_case "engine keeps a long stream history" `Quick
      test_engine_long_history;
    Alcotest.test_case "engine completes ties in launch order" `Quick
      test_engine_simultaneous_completions_in_launch_order;
    Alcotest.test_case "engine contention pinned" `Quick
      test_engine_contention_pinned;
    Alcotest.test_case "outcome keeps no event history" `Quick
      test_outcome_retention;
    Alcotest.test_case "sel picks shortest, fifo picks first" `Quick
      test_sel_prefers_shortest;
    Alcotest.test_case "unknown model rejected" `Quick
      test_unknown_model_rejected;
    Alcotest.test_case "mix parsing" `Quick test_parse_mix;
    Alcotest.test_case "workload deterministic and sorted" `Quick
      test_workload_deterministic_and_sorted;
    Alcotest.test_case "artifact store compiles once" `Quick
      test_artifacts_compile_once;
    Alcotest.test_case "zero-fault chaos is the baseline" `Quick
      test_zero_fault_chaos_is_baseline;
    Alcotest.test_case "fault retries without perturbing others" `Quick
      test_fault_retries_without_perturbing_others;
    Alcotest.test_case "retry backoff schedule matches the spec" `Quick
      test_retry_backoff_schedule;
    Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
    Alcotest.test_case "deadline frees the slot" `Quick
      test_deadline_frees_slot_for_next_request;
    Alcotest.test_case "queue cap sheds deterministically" `Quick
      test_queue_cap_sheds_deterministically;
    Alcotest.test_case "chaos runs are deterministic" `Quick
      test_chaos_run_deterministic;
    Alcotest.test_case "max_batch without buckets is the baseline" `Quick
      test_max_batch_without_buckets_is_baseline;
    Alcotest.test_case "bucket rounding deterministic" `Quick
      test_bucket_rounding_deterministic;
    Alcotest.test_case "batch fault retries members individually" `Quick
      test_batch_fault_retries_members_individually;
    Alcotest.test_case "batched service attribution" `Quick
      test_batched_service_attribution;
    Alcotest.test_case "generation lifecycle" `Quick test_generation_lifecycle;
    Alcotest.test_case "decode fault retries same position" `Quick
      test_decode_fault_retries_same_position;
  ]
