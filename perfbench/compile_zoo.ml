(* compile-zoo: a closed loop with one client that lowers and cold-compiles
   each of the seven full-size zoo models at V4 with the persistent-kernel
   lowering, in a seed-shuffled order, with the default configuration
   (constructive search, the recommended number of search domains, no
   persistent schedule cache).  The serving layers do nothing here. *)

let cfg = Souffle.config ~mega:true ()
let setup_reps = 15

(* a compile that degrades, fails a check or skips the mega lowering is a
   failed operation *)
let clean = function
  | Ok (r : Souffle.report) ->
      r.Souffle.degraded = []
      && (not (List.exists Diag.is_error r.Souffle.diags))
      && r.Souffle.mega <> None
  | Error _ -> false

(* What a pass keeps of one compile.  The report itself is dropped at
   once, so the heap a pass needs does not depend on the model order. *)
type compiled = {
  clean : bool;
  expect : Replay.expect;
  digest : Digest.t;  (* of the kernels' unshared marshalled form *)
  dram_mb : float;
}

let summarize (r : (Souffle.report, _) result) : compiled option =
  Result.to_option r
  |> Option.map (fun (rep : Souffle.report) ->
         {
           clean = clean r;
           expect = Replay.expect rep;
           digest = Digest.string (Marshal.to_string rep.Souffle.prog [ Marshal.No_sharing ]);
           dram_mb = Counters.mb (Counters.global_transfer_bytes rep.Souffle.sim.Sim.total);
         })

(* what must not change from one pass to the next: the kernels and both
   simulated times, bit for bit *)
let fingerprint (c : compiled) =
  ( c.digest,
    Int64.bits_of_float c.expect.Replay.e_us,
    Option.map (fun (_, us) -> Int64.bits_of_float us) c.expect.Replay.e_mega )

let infer_us (c : compiled) = c.expect.Replay.e_us

let mega_us (c : compiled) =
  match c.expect.Replay.e_mega with Some (_, us) -> us | None -> nan

(* Interpreter equivalence of the tiny variant of every zoo model compiled
   at V4: the semantic check, outside the timed part. *)
let check_tiny (t : Run.tally) =
  List.iter
    (fun (e : Zoo.entry) ->
      let ok =
        match Souffle.compile_result (Lower.run (e.Zoo.tiny ())) with
        | Ok r -> Souffle.verify r = Ok ()
        | Error _ -> false
      in
      Run.op t ~name:("interp-equivalence:" ^ e.Zoo.name) ok)
    Zoo.all

(* One pass over the zoo.  Each model compiles from a compacted heap, so
   the shuffled order carries no model's garbage into the next.  Returns
   what [post] makes of each model's result, and its compile time;
   compaction and [post] are outside the timing. *)
let zoo_pass graphs ~post compile =
  List.map
    (fun (name, g) ->
      Gc.compact ();
      let r, dt = Stat.time (fun () -> compile name g) in
      (name, post r, dt))
    graphs

let pass_s pass = Stat.sum (List.map (fun (_, _, dt) -> dt) pass)

let run ~seed ~seconds ~trace : Run.t =
  let tally = Run.tally () in
  (* set-up: graph construction, in zoo order, repeated *)
  let built, setup_s =
    Stat.repeat_median setup_reps (fun () ->
        List.map (fun (e : Zoo.entry) -> (e.Zoo.name, e.Zoo.full ())) Zoo.all)
  in
  let graphs =
    List.map
      (fun (e : Zoo.entry) -> (e.Zoo.name, List.assoc e.Zoo.name built))
      (Stat.shuffle ~seed Zoo.all)
  in
  let compile _ g = Souffle.compile_result ~cfg (Lower.run g) in
  (* an untimed warm-up pass in zoo order; the peak heap is read after it,
     so the seed's order does not move it *)
  let warm = zoo_pass built ~post:summarize compile in
  let heap_mb = Stat.peak_heap_mb () in
  (* timed part: whole passes, each compile one operation; every pass
     must reproduce the last pass's results *)
  let runs, _ =
    Stat.passes ~keep:Fun.id ~seconds ~min_passes:3 (fun _ ->
        zoo_pass graphs ~post:summarize compile)
  in
  let reports =
    List.filter_map
      (fun (name, c, _) -> Option.map (fun c -> (name, c)) c)
      (fst (List.hd (List.rev runs)))
  in
  List.iter
    (fun (pass, _) ->
      List.iter
        (fun (name, c, _) ->
          Run.op tally ~name:("compile:" ^ name)
            (match c with Some c -> c.clean | None -> false);
          Run.op tally ~name:("deterministic:" ^ name)
            (match (c, List.assoc_opt name reports) with
            | Some c, Some c0 -> fingerprint c = fingerprint c0
            | _ -> false))
        pass)
    ((warm, 0.) :: runs);
  let model_s name pass =
    List.fold_left (fun a (n, _, dt) -> if n = name then dt else a) 0. pass
  in
  let host_s = Stat.median (List.map (fun (pass, _) -> pass_s pass) runs) in
  check_tiny tally;
  (* traced run: the same passes replayed layer by layer, alternating with
     untraced ones for the overhead *)
  let layers =
    if not trace then []
    else begin
      let traced = ref [] in
      let replay name g =
        Span.with_span ~group:name "compile" (fun () ->
            let p = Span.with_span ~group:name "lower" (fun () -> Lower.run g) in
            Replay.count_int "lower.tes" (List.length p.Program.tes);
            Replay.run ~group:name cfg p)
      in
      let passes, overhead =
        Stat.interleaved ~seconds
          ~untraced:(fun () -> pass_s (zoo_pass graphs ~post:ignore compile))
          ~traced:(fun () ->
            Hashtbl.reset Replay.counts;
            traced := zoo_pass graphs ~post:Fun.id replay;
            pass_s !traced)
      in
      List.iter
        (fun (name, r, _) ->
          Run.op tally ~name:("replay-identical:" ^ name)
            (match (r, List.assoc_opt name reports) with
            | Ok t, Some c -> Replay.matches t c.expect
            | _ -> false))
        !traced;
      let spans = Span.take () in
      let per_model =
        List.concat_map
          (fun (name, r) ->
            let m = Stat.slug name in
            [
              ("sim.infer_us." ^ m, infer_us r);
              ("sim.dram_mb." ^ m, r.dram_mb);
              ("megakernel.mega_us." ^ m, mega_us r);
              ("compile.s." ^ m, Stat.median (List.map (fun (p, _) -> model_s name p) runs));
            ])
          reports
      in
      Run.layer_times ~passes spans
      @ Replay.counted ()
      @ per_model
      @ [
          ("trace.overhead_pct", overhead);
          ("trace.unattributed_pct", Span.unattributed_pct spans);
        ]
    end
  in
  let geomean f = Stat.geomean (List.map (fun (_, r) -> f r) reports) in
  {
    Run.host_s;
    e2e =
      [
        ("setup_s", setup_s, "s");
        ("compile_s", host_s, "s");
        ("infer_us_geomean", geomean infer_us, "sim_us");
        ("mega_us_geomean", geomean mega_us, "sim_us");
        ("peak_heap_mb", heap_mb, "MB");
        ("fail_share", Run.fail_share tally, "ratio");
      ];
    layers;
    attempted = tally.Run.attempted;
    failed = tally.Run.failed;
    checks_failed = List.rev tally.Run.failures;
  }
