(* The repository benchmark.

     perfbench --workload compile-zoo|serve-mix|serve-decode
               --seed N --seconds S --trace 0|1

   Runs one workload for S seconds of timed passes, checks that its
   outputs are correct, prints every end-to-end metric of the workload as
   a "metric NAME VALUE UNIT" line and, with --trace 1, every per-layer
   metric as a "layer NAME VALUE UNIT" line.  The last line of standard
   output is one JSON object: correct, attempted, failed, and the metrics
   BENCHMARK.json declares (end-to-end ones untraced, per-layer ones
   traced).  The spans of a traced run are written to
   .perfbench/trace-WORKLOAD-SEED.json in Chrome-trace format. *)

let workloads = [ "compile-zoo"; "serve-mix"; "serve-decode" ]

(* The end-to-end metrics every workload reports in its JSON line:
   [host_s] is compile_s on compile-zoo and serve_host_s on the serving
   workloads. *)
let json_e2e = [ ("setup_s", "s"); ("host_s", "s"); ("peak_heap_mb", "MB") ]

let models = List.map (fun (e : Zoo.entry) -> Stat.slug e.Zoo.name) Zoo.all
let rates = [ 800; 1000; 2000; 3000; 4000; 5000 ]

(* Every per-layer metric with its unit, in report order.  A layer that
   does no work on a workload reports 0 there. *)
let per_layer : (string * string) list =
  let l layer ms = List.map (fun (m, u) -> (layer ^ "." ^ m, u)) ms in
  let host = [ ("us", "us"); ("alloc_mw", "Mword") ] in
  List.concat
    [
      l "lower" [ ("us", "us"); ("tes", "count") ];
      l "horizontal" (host @ [ ("groups_merged", "count"); ("tes_eliminated", "count") ]);
      l "vertical"
        (host
        @ [ ("chains_fused", "count"); ("movement_folded", "count"); ("tes_out", "count") ]);
      l "analysis" [ ("us", "us") ];
      l "schedule" (host @ [ ("store_lookups", "count"); ("store_hits", "count") ]);
      l "partition" [ ("us", "us"); ("subprograms", "count") ];
      l "emit" (host @ [ ("kernels", "count"); ("stages", "count") ]);
      l "verify" [ ("us", "us"); ("rejects", "count") ];
      l "sim"
        ([ ("us", "us"); ("launches", "count"); ("grid_syncs", "count") ]
        @ List.map (fun m -> ("infer_us." ^ m, "sim_us")) models
        @ List.map (fun m -> ("dram_mb." ^ m, "MB")) models);
      l "megakernel"
        ([
           ("us", "us");
           ("tasks", "count");
           ("edges", "count");
           ("launches_elided", "count");
         ]
        @ List.map (fun m -> ("mega_us." ^ m, "sim_us")) models);
      l "compile" (List.map (fun m -> ("s." ^ m, "s")) models);
      l "workload" [ ("us", "us") ];
      l "scheduler"
        ([
           ("us", "us");
           ("jobs", "count");
           ("us_per_job", "us");
           ("queue_wait_p99_us", "sim_us");
           ("batched_share", "ratio");
           ("mean_batch", "count");
         ]
        @ List.concat_map
            (fun r ->
              [
                (Fmt.str "p99_ms.r%d" r, "sim_ms");
                (Fmt.str "served_rps.r%d" r, "req/s");
              ])
            rates);
      l "multi"
        [ ("slowdown_mean", "ratio"); ("avg_resident", "count"); ("avg_sm_demand", "count") ];
      l "serve_report" [ ("us", "us") ];
      l "trace" [ ("overhead_pct", "%"); ("unattributed_pct", "%") ];
    ]

let usage () =
  Fmt.epr
    "usage: perfbench --workload %s --seed N --seconds S --trace 0|1@."
    (String.concat "|" workloads);
  exit 2

let num v = Jsonlite.Num v

let metric_json (name, value, unit) =
  (name, Jsonlite.Obj [ ("value", num value); ("unit", Jsonlite.Str unit) ])

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some s -> seed := s; parse rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s; parse rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0. || !trace < 0
  then usage ();
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  Fmt.pr "perfbench: workload %s, seed %d, %.0f s per timed part, trace %d@."
    !workload seed seconds !trace;
  (match !workload with
  | "compile-zoo" ->
      Fmt.pr "loop: closed, one client; %d models, order shuffled by the seed@."
        (List.length Zoo.all)
  | w ->
      let spec = if w = "serve-mix" then Serve_load.mix_spec else Serve_load.decode_spec in
      Fmt.pr
        "loop: open, Poisson arrivals in simulated time at %s req/s, %d requests \
         per rate; the generator is never late (arrivals are precomputed \
         timestamps) and each request is timed from its scheduled arrival@."
        (String.concat "/" (List.map (Fmt.str "%.0f") spec.Serve_load.rates))
        spec.Serve_load.requests);
  let r =
    match !workload with
    | "compile-zoo" -> Compile_zoo.run ~seed ~seconds ~trace:traced
    | "serve-mix" -> Serve_load.run ~spec:Serve_load.mix_spec ~seed ~seconds ~trace:traced
    | _ -> Serve_load.run ~spec:Serve_load.decode_spec ~seed ~seconds ~trace:traced
  in
  List.iter
    (fun (n, v, u) -> Fmt.pr "metric %s %s %s@." n (Jsonlite.number_to_string v) u)
    r.Run.e2e;
  List.iter (fun c -> Fmt.pr "check failed: %s@." c) r.Run.checks_failed;
  let metrics =
    if traced then begin
      let value name = Option.value ~default:0. (List.assoc_opt name r.Run.layers) in
      let ms = List.map (fun (n, u) -> (n, value n, u)) per_layer in
      List.iter
        (fun (n, v, u) -> Fmt.pr "layer %s %s %s@." n (Jsonlite.number_to_string v) u)
        ms;
      let dir = ".perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Fmt.str "trace-%s-%d.json" !workload seed) in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Span.to_chrome !Span.archive));
      Fmt.pr "spans: %d written to %s@." (List.length !Span.archive) path;
      ms
    end
    else
      List.map
        (fun (n, u) ->
          let v =
            if n = "host_s" then r.Run.host_s
            else List.fold_left (fun a (m, v, _) -> if m = n then v else a) nan r.Run.e2e
          in
          (n, v, u))
        json_e2e
  in
  let json =
    Jsonlite.Obj
      [
        ("correct", Jsonlite.Bool (r.Run.checks_failed = []));
        ("attempted", num (float_of_int r.Run.attempted));
        ("failed", num (float_of_int r.Run.failed));
        ("metrics", Jsonlite.Obj (List.map metric_json metrics));
      ]
  in
  print_endline (Jsonlite.to_string json)
