(** Per-request latency accounting over a {!Scheduler.outcome}: tail
    percentiles, throughput, slowdown versus solo execution, the
    time-weighted SM/bandwidth occupancy, plus machine-readable JSON and a
    stream-aware Chrome trace (one swimlane per concurrency slot). *)

type summary = {
  s_requests : int;
  s_offered_rps : float;     (** arrival rate over the arrival window *)
  s_throughput_rps : float;  (** completions over [first arrival, last finish] *)
  s_p50_ms : float;
  s_p95_ms : float;
  s_p99_ms : float;
  s_mean_ms : float;
  s_max_ms : float;          (** all latencies include queueing *)
  s_mean_service_ms : float; (** on-device time only *)
  s_mean_slowdown : float;   (** service / solo, 1.0 = no contention *)
  s_makespan_ms : float;
  s_avg_sm_demand : float;   (** time-weighted SMs demanded over the window *)
  s_avg_resident : float;    (** time-weighted co-resident streams *)
  s_peak_resident : int;
  s_dram_gb : float;         (** solo global-memory traffic served *)
  (* request-lifecycle counts; all zero unless deadlines/retries/caps or a
     chaos fault actually fired, so baseline reports are unchanged *)
  s_retried : int;    (** requests completed after >= 1 faulted attempt *)
  s_timed_out : int;  (** deadline-cancelled in flight or expired queued *)
  s_rejected : int;   (** shed or rejected by admission control *)
  s_failed : int;     (** faults exhausted the retry budget *)
  s_faults : int;     (** faulted or hung dispatched attempts *)
  s_retries : int;    (** retry dispatches scheduled *)
  (* continuous-batching attribution; zero unless a dispatch coalesced *)
  s_batched : int;     (** completions that rode a batched stream *)
  s_mean_batch : float;  (** mean bucket size over those completions *)
  (* mega-kernel attribution; zero unless a mega artifact served requests *)
  s_mega : int;          (** completions served by a mega-kernel artifact *)
  s_elided : int;        (** kernel launches elided across those completions *)
  (* prefill/decode attribution; zero unless generation requests ran, so
     one-shot reports are unchanged.  Request-level latency stats above
     count only {e terminal} completions (a generation request's last
     decode step), so a 16-token request is one request, not 17 *)
  s_prefills : int;        (** prefill-phase completions *)
  s_decodes : int;         (** decode-step completions (tokens generated) *)
  s_prefill_p50_ms : float;  (** prefill phase latency (issue to finish) *)
  s_prefill_p95_ms : float;
  s_decode_p50_ms : float;   (** per-token decode latency (issue to finish) *)
  s_decode_p95_ms : float;
  s_tokens_per_s : float;
      (** decode completions over the [first decode issue, last decode
          finish] window *)
}

(** Any lifecycle event at all?  False on every fault-free run. *)
let lifecycle_active (s : summary) =
  s.s_retried > 0 || s.s_timed_out > 0 || s.s_rejected > 0 || s.s_failed > 0
  || s.s_faults > 0 || s.s_retries > 0

(** Did any generation phase run?  False on every one-shot run. *)
let gen_active (s : summary) = s.s_prefills > 0 || s.s_decodes > 0

(** Nearest-rank percentile over a float array sorted with [Float.compare]
    (total order, so a stray NaN cannot scramble the sort the way
    polymorphic [compare] on boxed floats could).  NaN samples are dropped
    before ranking; [nan] on an empty (or all-NaN) input. *)
let percentile (xs : float list) (p : float) : float =
  let a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) xs) in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort Float.compare a;
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let summarize (o : Scheduler.outcome) : summary =
  let cs = o.Scheduler.o_completed in
  (* request-level stats rank only terminal completions (every completion
     on a one-shot run, the last decode step of a generation request) —
     otherwise an n-token request would count as n + 1 requests *)
  let terms = List.filter Scheduler.is_terminal cs in
  let n = List.length terms in
  let lat_ms =
    List.map (fun c -> Scheduler.latency_us c /. 1e3) terms
  in
  let sum = List.fold_left ( +. ) 0. in
  let arrivals =
    List.map
      (fun (c : Scheduler.completed) -> c.Scheduler.c_req.Workload.rq_arrival_us)
      terms
  in
  let first_arrival = List.fold_left Float.min infinity arrivals in
  let last_arrival = List.fold_left Float.max 0. arrivals in
  let last_finish =
    List.fold_left
      (fun a (c : Scheduler.completed) -> Float.max a c.Scheduler.c_finish_us)
      0. cs
  in
  let window_us = last_finish -. Float.min first_arrival last_finish in
  let arrival_window_us = last_arrival -. Float.min first_arrival last_arrival in
  let fn = float_of_int n in
  (* device-side aggregates (service, slowdown, traffic) cover every
     completion: prefill and decode phases did real work *)
  let all_n = List.length cs in
  let all_fn = float_of_int all_n in
  let prefills =
    List.filter
      (fun (c : Scheduler.completed) -> c.Scheduler.c_phase = Scheduler.Prefill)
      cs
  in
  let decodes =
    List.filter
      (fun (c : Scheduler.completed) ->
        match c.Scheduler.c_phase with Scheduler.Decode _ -> true | _ -> false)
      cs
  in
  let phase_ms xs =
    List.map (fun c -> Scheduler.phase_latency_us c /. 1e3) xs
  in
  let ndec = List.length decodes in
  let tokens_per_s =
    if ndec = 0 then 0.
    else begin
      let first_issue =
        List.fold_left
          (fun a (c : Scheduler.completed) -> Float.min a c.Scheduler.c_issue_us)
          infinity decodes
      in
      let last_fin =
        List.fold_left
          (fun a (c : Scheduler.completed) -> Float.max a c.Scheduler.c_finish_us)
          0. decodes
      in
      let w = last_fin -. first_issue in
      if w > 0. then float_of_int ndec /. (w /. 1e6) else 0.
    end
  in
  {
    s_requests = n;
    s_offered_rps =
      (if arrival_window_us > 0. then (fn -. 1.) /. (arrival_window_us /. 1e6)
       else 0.);
    s_throughput_rps =
      (if window_us > 0. then fn /. (window_us /. 1e6) else 0.);
    s_p50_ms = percentile lat_ms 50.;
    s_p95_ms = percentile lat_ms 95.;
    s_p99_ms = percentile lat_ms 99.;
    s_mean_ms = (if n = 0 then nan else sum lat_ms /. fn);
    s_max_ms = List.fold_left Float.max 0. lat_ms;
    s_mean_service_ms =
      (if all_n = 0 then nan
       else
         sum (List.map (fun (c : Scheduler.completed) -> c.Scheduler.c_service_us) cs)
         /. all_fn /. 1e3);
    s_mean_slowdown =
      (if all_n = 0 then nan
       else
         sum
           (List.map
              (fun (c : Scheduler.completed) ->
                if c.Scheduler.c_solo_us > 0. then
                  c.Scheduler.c_service_us /. c.Scheduler.c_solo_us
                else 1.)
              cs)
         /. all_fn);
    s_makespan_ms = o.Scheduler.o_makespan_us /. 1e3;
    s_avg_sm_demand =
      (if window_us > 0. then o.Scheduler.o_sm_demand_us /. window_us else 0.);
    s_avg_resident =
      (if window_us > 0. then o.Scheduler.o_resident_us /. window_us else 0.);
    s_peak_resident = o.Scheduler.o_peak_resident;
    s_dram_gb =
      float_of_int
        (List.fold_left
           (fun a (c : Scheduler.completed) -> a + c.Scheduler.c_bytes)
           0 cs)
      /. 1e9;
    s_retried =
      List.length
        (List.filter (fun (c : Scheduler.completed) -> c.Scheduler.c_retries > 0) cs);
    s_timed_out =
      List.length
        (List.filter
           (fun (a : Scheduler.aborted) -> a.Scheduler.a_reason = Scheduler.Deadline)
           o.Scheduler.o_aborted)
      + List.length
          (List.filter
             (fun (d : Scheduler.dropped) -> d.Scheduler.d_reason = Scheduler.Expired)
             o.Scheduler.o_dropped);
    s_rejected =
      List.length
        (List.filter
           (fun (d : Scheduler.dropped) -> d.Scheduler.d_reason <> Scheduler.Expired)
           o.Scheduler.o_dropped);
    s_failed = List.length o.Scheduler.o_failed;
    s_faults =
      List.length
        (List.filter
           (fun (a : Scheduler.aborted) -> a.Scheduler.a_reason <> Scheduler.Deadline)
           o.Scheduler.o_aborted);
    s_retries =
      List.length
        (List.filter
           (fun (a : Scheduler.aborted) -> a.Scheduler.a_reason <> Scheduler.Deadline)
           o.Scheduler.o_aborted)
      - List.length o.Scheduler.o_failed;
    s_batched =
      List.length
        (List.filter (fun (c : Scheduler.completed) -> c.Scheduler.c_batch > 1) cs);
    s_mean_batch =
      (match
         List.filter (fun (c : Scheduler.completed) -> c.Scheduler.c_batch > 1) cs
       with
      | [] -> 0.
      | bs ->
          sum (List.map (fun (c : Scheduler.completed) ->
                   float_of_int c.Scheduler.c_batch) bs)
          /. float_of_int (List.length bs));
    s_mega =
      List.length
        (List.filter (fun (c : Scheduler.completed) -> c.Scheduler.c_mega) cs);
    s_elided =
      List.fold_left
        (fun a (c : Scheduler.completed) -> a + c.Scheduler.c_elided)
        0 cs;
    s_prefills = List.length prefills;
    s_decodes = ndec;
    s_prefill_p50_ms = percentile (phase_ms prefills) 50.;
    s_prefill_p95_ms = percentile (phase_ms prefills) 95.;
    s_decode_p50_ms = percentile (phase_ms decodes) 50.;
    s_decode_p95_ms = percentile (phase_ms decodes) 95.;
    s_tokens_per_s = tokens_per_s;
  }

(* printed inside pp_summary's vbox; silent unless a lifecycle event fired,
   which keeps fault-free output byte-identical to the pre-lifecycle layout *)
let pp_lifecycle ppf (s : summary) =
  if lifecycle_active s then
    Fmt.pf ppf
      "@,lifecycle: retried %d  timed-out %d  rejected %d  failed %d  \
       (faults %d, retries %d)"
      s.s_retried s.s_timed_out s.s_rejected s.s_failed s.s_faults s.s_retries

(* like {!pp_lifecycle}: silent on every one-shot run, so phase-free
   output stays byte-identical to the goldens *)
let pp_gen ppf (s : summary) =
  if gen_active s then
    Fmt.pf ppf
      "@,generation: %d prefill(s) p50 %.3f p95 %.3f ms, %d token(s) p50 \
       %.3f p95 %.3f ms, %.1f tok/s"
      s.s_prefills s.s_prefill_p50_ms s.s_prefill_p95_ms s.s_decodes
      s.s_decode_p50_ms s.s_decode_p95_ms s.s_tokens_per_s

(* like {!pp_lifecycle}: silent on every unbatched run *)
let pp_batching ppf (s : summary) =
  if s.s_batched > 0 then
    Fmt.pf ppf "@,batching: %d request(s) coalesced, mean bucket x%.2f"
      s.s_batched s.s_mean_batch

(* like {!pp_lifecycle}: silent unless mega artifacts served requests, so
   non-mega output stays byte-identical to the goldens *)
let pp_mega ppf (s : summary) =
  if s.s_mega > 0 then
    Fmt.pf ppf
      "@,mega: %d request(s) on persistent kernels, %d launch(es) elided \
       (%.1f per request)"
      s.s_mega s.s_elided
      (float_of_int s.s_elided /. float_of_int s.s_mega)

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "@[<v>requests: %d  (offered %.1f rps, served %.1f rps)@,\
     latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f  max %.3f@,\
     service: mean %.3f ms, slowdown x%.2f vs solo@,\
     makespan: %.3f ms, DRAM served: %.3f GB@,\
     occupancy: avg %.1f SMs demanded, %.2f streams resident (peak %d)%a%a%a%a@]"
    s.s_requests s.s_offered_rps s.s_throughput_rps s.s_p50_ms s.s_p95_ms
    s.s_p99_ms s.s_mean_ms s.s_max_ms s.s_mean_service_ms s.s_mean_slowdown
    s.s_makespan_ms s.s_dram_gb s.s_avg_sm_demand s.s_avg_resident
    s.s_peak_resident pp_gen s pp_mega s pp_batching s pp_lifecycle s

let summary_json (s : summary) : Jsonlite.t =
  let num n v = (n, Jsonlite.Num v) in
  Jsonlite.Obj
    ([
      num "requests" (float_of_int s.s_requests);
      num "offered_rps" s.s_offered_rps;
      num "throughput_rps" s.s_throughput_rps;
      num "p50_ms" s.s_p50_ms;
      num "p95_ms" s.s_p95_ms;
      num "p99_ms" s.s_p99_ms;
      num "mean_ms" s.s_mean_ms;
      num "max_ms" s.s_max_ms;
      num "mean_service_ms" s.s_mean_service_ms;
      num "mean_slowdown" s.s_mean_slowdown;
      num "makespan_ms" s.s_makespan_ms;
      num "avg_sm_demand" s.s_avg_sm_demand;
      num "avg_resident" s.s_avg_resident;
      num "peak_resident" (float_of_int s.s_peak_resident);
      num "dram_gb" s.s_dram_gb;
    ]
    @
    (* generation attribution appears only when a prefill or decode phase
       completed, so one-shot JSON stays byte-identical to the baseline *)
    (if gen_active s then
       [
         num "prefills" (float_of_int s.s_prefills);
         num "decodes" (float_of_int s.s_decodes);
         num "prefill_p50_ms" s.s_prefill_p50_ms;
         num "prefill_p95_ms" s.s_prefill_p95_ms;
         num "decode_p50_ms" s.s_decode_p50_ms;
         num "decode_p95_ms" s.s_decode_p95_ms;
         num "tokens_per_s" s.s_tokens_per_s;
       ]
     else [])
    @
    (* mega attribution appears only when a mega artifact served requests,
       so non-mega JSON stays byte-identical to the baseline *)
    (if s.s_mega > 0 then
       [
         num "mega" (float_of_int s.s_mega);
         num "launches_elided" (float_of_int s.s_elided);
       ]
     else [])
    @
    (* batching attribution appears only once a dispatch coalesced, so
       unbatched JSON stays byte-identical to the baseline *)
    (if s.s_batched > 0 then
       [
         num "batched" (float_of_int s.s_batched);
         num "mean_batch" s.s_mean_batch;
       ]
     else [])
    @
    (* lifecycle counters appear only once a lifecycle event has fired, so
       fault-free JSON stays byte-identical to the baseline *)
    (if lifecycle_active s then
       [
         num "retried" (float_of_int s.s_retried);
         num "timed_out" (float_of_int s.s_timed_out);
         num "rejected" (float_of_int s.s_rejected);
         num "failed" (float_of_int s.s_failed);
         num "faults" (float_of_int s.s_faults);
         num "retries" (float_of_int s.s_retries);
       ]
     else []))

let completed_json (c : Scheduler.completed) : Jsonlite.t =
  let num n v = (n, Jsonlite.Num v) in
  Jsonlite.Obj
    ([
      num "id" (float_of_int c.Scheduler.c_req.Workload.rq_id);
      ("model", Jsonlite.Str c.Scheduler.c_model);
      num "stream" (float_of_int c.Scheduler.c_stream);
      num "slot" (float_of_int c.Scheduler.c_slot);
      num "arrival_us" c.Scheduler.c_req.Workload.rq_arrival_us;
      num "dispatch_us" c.Scheduler.c_dispatch_us;
      num "finish_us" c.Scheduler.c_finish_us;
      num "latency_us" (Scheduler.latency_us c);
      num "service_us" c.Scheduler.c_service_us;
      num "solo_us" c.Scheduler.c_solo_us;
    ]
    (* only retried requests carry the extra field: first-try completions
       serialize exactly as before the lifecycle existed *)
    @ (if c.Scheduler.c_retries > 0 then
         [ num "retries" (float_of_int c.Scheduler.c_retries) ]
       else [])
    (* likewise, only batched members carry their bucket size *)
    @ (if c.Scheduler.c_batch > 1 then
         [ num "batch" (float_of_int c.Scheduler.c_batch) ]
       else [])
    (* and only mega-served requests carry their elided-launch count *)
    @ (if c.Scheduler.c_mega then
         [ num "launches_elided" (float_of_int c.Scheduler.c_elided) ]
       else [])
    (* generation phases carry their phase label and issue-relative latency;
       one-shot completions serialize exactly as before phases existed *)
    @ (if c.Scheduler.c_phase <> Scheduler.Single then
         [
           ( "phase",
             Jsonlite.Str (Scheduler.phase_to_string c.Scheduler.c_phase) );
           num "issue_us" c.Scheduler.c_issue_us;
           num "phase_latency_us" (Scheduler.phase_latency_us c);
         ]
       else []))

let aborted_json (a : Scheduler.aborted) : Jsonlite.t =
  let num n v = (n, Jsonlite.Num v) in
  Jsonlite.Obj
    ([
       num "id" (float_of_int a.Scheduler.a_req.Workload.rq_id);
       ("model", Jsonlite.Str a.Scheduler.a_model);
       num "try" (float_of_int a.Scheduler.a_try);
       num "stream" (float_of_int a.Scheduler.a_stream);
       num "slot" (float_of_int a.Scheduler.a_slot);
       num "dispatch_us" a.Scheduler.a_dispatch_us;
       num "end_us" a.Scheduler.a_end_us;
       num "service_us" a.Scheduler.a_service_us;
       ("reason", Jsonlite.Str (Scheduler.abort_reason_to_string a.Scheduler.a_reason));
     ]
    @
    if a.Scheduler.a_phase <> Scheduler.Single then
      [ ("phase", Jsonlite.Str (Scheduler.phase_to_string a.Scheduler.a_phase)) ]
    else [])

let dropped_json (d : Scheduler.dropped) : Jsonlite.t =
  Jsonlite.Obj
    [
      ("id", Jsonlite.Num (float_of_int d.Scheduler.d_req.Workload.rq_id));
      ("model", Jsonlite.Str d.Scheduler.d_req.Workload.rq_model);
      ("time_us", Jsonlite.Num d.Scheduler.d_time_us);
      ("reason", Jsonlite.Str (Scheduler.drop_reason_to_string d.Scheduler.d_reason));
    ]

let failed_json ((r : Workload.request), t, attempts) : Jsonlite.t =
  Jsonlite.Obj
    [
      ("id", Jsonlite.Num (float_of_int r.Workload.rq_id));
      ("model", Jsonlite.Str r.Workload.rq_model);
      ("failed_us", Jsonlite.Num t);
      ("attempts", Jsonlite.Num (float_of_int attempts));
    ]

(** The whole outcome as JSON: configuration, summary, and one record per
    completed request (the latency sample set behind the percentiles).
    Aborted attempts, drops, and failed requests appear as extra arrays
    only when present, so fault-free output is unchanged. *)
let outcome_json ?(label = "") (o : Scheduler.outcome) : Jsonlite.t =
  let opt name xs f = if xs = [] then [] else [ (name, Jsonlite.Arr (List.map f xs)) ] in
  Jsonlite.Obj
    ([
       ("label", Jsonlite.Str label);
       ("policy", Jsonlite.Str (Scheduler.policy_to_string o.Scheduler.o_policy));
       ("max_streams", Jsonlite.Num (float_of_int o.Scheduler.o_max_streams));
       ("summary", summary_json (summarize o));
       ( "requests",
         Jsonlite.Arr (List.map completed_json o.Scheduler.o_completed) );
     ]
    @ opt "aborted" o.Scheduler.o_aborted aborted_json
    @ opt "dropped" o.Scheduler.o_dropped dropped_json
    @ opt "failed" o.Scheduler.o_failed failed_json)

(** Stream-aware Chrome trace: one swimlane (thread row) per concurrency
    slot; each request is a complete-event span from arrival to finish with
    its contended kernel slices as children on the same lane.  Faulted,
    hung, and deadline-cancelled attempts get their own spans, colored
    distinctly ([cname]); completions that needed a retry are yellow. *)
let chrome_trace (o : Scheduler.outcome) : Obs.trace =
  let spans =
    List.map
      (fun (c : Scheduler.completed) ->
        let tid = string_of_int (c.Scheduler.c_slot + 1) in
        let children =
          List.map
            (fun (kname, a, b) ->
              Obs.make_span ~meta:[ ("tid", tid) ] ~start_us:a
                ~dur_us:(b -. a) kname)
            c.Scheduler.c_slices
        in
        Obs.make_span
          ~meta:
            ([
               ("tid", tid);
               ("model", c.Scheduler.c_model);
               ("stream", string_of_int c.Scheduler.c_stream);
               (* queueing measured from the phase's own issue time, which
                  is the arrival for one-shot requests *)
               ( "queued_us",
                 Fmt.str "%.3f"
                   (c.Scheduler.c_dispatch_us -. c.Scheduler.c_issue_us) );
             ]
            @ (match c.Scheduler.c_phase with
              | Scheduler.Single -> []
              | p -> [ ("phase", Scheduler.phase_to_string p) ])
            @ (if c.Scheduler.c_batch > 1 then
                 [ ("batch", string_of_int c.Scheduler.c_batch) ]
               else [])
            @
            if c.Scheduler.c_retries > 0 then
              [
                ("retries", string_of_int c.Scheduler.c_retries);
                ("cname", "yellow");
              ]
            else [])
          ~children ~start_us:c.Scheduler.c_issue_us
          ~dur_us:(Scheduler.phase_latency_us c)
          (let id = c.Scheduler.c_req.Workload.rq_id in
           match c.Scheduler.c_phase with
           | Scheduler.Single -> Fmt.str "%s#%d" c.Scheduler.c_model id
           | Scheduler.Prefill -> Fmt.str "%s@p#%d" c.Scheduler.c_model id
           | Scheduler.Decode t -> Fmt.str "%s@d%d#%d" c.Scheduler.c_model t id))
      o.Scheduler.o_completed
  in
  let abort_spans =
    List.map
      (fun (a : Scheduler.aborted) ->
        let tid = string_of_int (a.Scheduler.a_slot + 1) in
        let outcome, cname =
          match a.Scheduler.a_reason with
          | Scheduler.Fault -> ("faulted", "terrible")
          | Scheduler.Hung -> ("hung", "terrible")
          | Scheduler.Deadline -> ("timed-out", "bad")
        in
        let children =
          List.map
            (fun (kname, s, e) ->
              Obs.make_span ~meta:[ ("tid", tid) ] ~start_us:s ~dur_us:(e -. s)
                kname)
            a.Scheduler.a_slices
        in
        Obs.make_span
          ~meta:
            [
              ("tid", tid);
              ("model", a.Scheduler.a_model);
              ("stream", string_of_int a.Scheduler.a_stream);
              ("outcome", outcome);
              ("try", string_of_int a.Scheduler.a_try);
              ("cname", cname);
            ]
          ~children ~start_us:a.Scheduler.a_dispatch_us
          ~dur_us:(a.Scheduler.a_end_us -. a.Scheduler.a_dispatch_us)
          (Fmt.str "%s#%d!%s" a.Scheduler.a_model a.Scheduler.a_req.Workload.rq_id
             outcome))
      o.Scheduler.o_aborted
  in
  Obs.trace_of ~wall_us:o.Scheduler.o_makespan_us (spans @ abort_spans)
