(* Tests for the compile-throughput layer: domain-parallel Ansor search,
   the persistent schedule cache (Scache), and the reduced-space scheduling
   retry.  The contract under test everywhere is determinism — parallelism
   and caching must never change what gets compiled. *)

let tiny_programs () =
  List.map (fun (e : Zoo.entry) -> (e.Zoo.name, Lower.run (e.Zoo.tiny ()))) Zoo.all

let sorted_bindings (tbl : (string, Sched.t) Hashtbl.t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- parallel search determinism ---- *)

let test_parallel_matches_serial () =
  List.iter
    (fun (name, p) ->
      let serial =
        Ansor.schedule_program
          ~config:{ Ansor.default_config with Ansor.search_domains = 1 }
          Device.a100 p
      in
      let parallel =
        Ansor.schedule_program
          ~config:{ Ansor.default_config with Ansor.search_domains = 4 }
          Device.a100 p
      in
      Alcotest.(check bool)
        (name ^ ": parallel schedule table identical to serial")
        true
        (sorted_bindings serial = sorted_bindings parallel))
    (tiny_programs ())

let test_parallel_compile_identical () =
  (* end to end: the whole compiled artifact, not just the schedule table *)
  let p = Lower.run (Bert.create ~cfg:Bert.tiny ()) in
  let at domains =
    let ansor =
      { Ansor.default_config with Ansor.search_domains = domains }
    in
    match Souffle.compile_result ~cfg:(Souffle.config ~ansor ()) p with
    | Ok r -> r
    | Error _ -> Alcotest.fail "compile failed"
  in
  let serial = at 1 and parallel = at 4 in
  Alcotest.(check bool) "simulated execution identical" true
    (serial.Souffle.sim = parallel.Souffle.sim);
  Alcotest.(check bool) "kernel IR identical" true
    (serial.Souffle.prog = parallel.Souffle.prog)

(* ---- constructive scheduling ---- *)

let test_construct_quality_parity () =
  (* kernel-quality oracle: per zoo model, the constructed schedules'
     simulated end-to-end runtime must stay within 5% of the enumerative
     search's, with no degradation in either mode *)
  List.iter
    (fun (name, p) ->
      let at search_mode =
        match
          Souffle.compile_result ~cfg:(Souffle.config ~search_mode ()) p
        with
        | Ok r -> r
        | Error _ -> Alcotest.failf "%s: compile failed" name
      in
      let c = at Ansor.Construct and e = at Ansor.Exhaustive in
      Alcotest.(check (list Alcotest.string))
        (name ^ ": no degradation in either mode")
        []
        (List.map
           (fun d -> d.Souffle.d_subject)
           (c.Souffle.degraded @ e.Souffle.degraded));
      let tc = Sim.time_ms c.Souffle.sim and te = Sim.time_ms e.Souffle.sim in
      let rel = if te > 0. then (tc -. te) /. te else 0. in
      if rel > 0.05 then
        Alcotest.failf
          "%s: constructed schedules cost %.1f%% simulated runtime vs \
           exhaustive (%.4f ms vs %.4f ms)"
          name (100. *. rel) tc te)
    (tiny_programs ())

let test_construct_parallel_matches_serial () =
  (* construction is per-TE and deterministic; fanning the per-key work out
     over domains must not change the schedule table *)
  List.iter
    (fun (name, p) ->
      let at domains =
        Ansor.schedule_program ~scheduler:Construct.scheduler
          ~config:{ Ansor.default_config with Ansor.search_domains = domains }
          Device.a100 p
      in
      Alcotest.(check bool)
        (name ^ ": constructed table identical across search domains")
        true
        (sorted_bindings (at 1) = sorted_bindings (at 4)))
    (tiny_programs ())

(* ---- persistent cache ---- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_cache_roundtrip () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let c = Scache.create () in
  ignore
    (Ansor.schedule_program ~store:(Scache.store c) Device.a100 p);
  Alcotest.(check bool) "search populated the cache" true (Scache.length c > 0);
  Alcotest.(check bool) "cache is dirty after adds" true (Scache.dirty c);
  let path = tmp "scache_roundtrip.json" in
  Scache.save c path;
  Alcotest.(check bool) "save clears dirty" false (Scache.dirty c);
  let c' = Scache.load path in
  Alcotest.(check int) "all entries survive the round trip" (Scache.length c)
    (Scache.length c');
  (* a fresh search against the loaded cache is all hits, no additions *)
  ignore (Ansor.schedule_program ~store:(Scache.store c') Device.a100 p);
  Alcotest.(check bool) "no new entries on reload" false (Scache.dirty c');
  Alcotest.(check bool) "reloaded cache answered finds" true
    (Scache.hits c' > 0);
  Sys.remove path

let test_cache_corrupt_and_stale () =
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  let corrupt = tmp "scache_corrupt.json" in
  write corrupt "{ not json at all";
  Alcotest.(check int) "corrupted file loads as empty cache" 0
    (Scache.length (Scache.load corrupt));
  let stale = tmp "scache_stale.json" in
  write stale
    "{\"format\": \"souffle-scache\", \"version\": 999, \"entries\": {}}";
  Alcotest.(check int) "stale version loads as empty cache" 0
    (Scache.length (Scache.load stale));
  let missing = tmp "scache_does_not_exist.json" in
  Alcotest.(check int) "missing file loads as empty cache" 0
    (Scache.length (Scache.load missing));
  Sys.remove corrupt;
  Sys.remove stale

let test_cache_roundtrip_construct () =
  (* constructed entries persist like searched ones, and the two modes key
     separately: an exhaustive pass against a construct-populated cache
     must miss (and vice versa), never serve the other mode's schedules *)
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let c = Scache.create () in
  ignore (Construct.schedule_program ~store:(Scache.store c) Device.a100 p);
  let n_construct = Scache.length c in
  Alcotest.(check bool) "construction populated the cache" true
    (n_construct > 0);
  let path = tmp "scache_construct_roundtrip.json" in
  Scache.save c path;
  let c' = Scache.load path in
  Alcotest.(check int) "constructed entries survive the round trip"
    n_construct (Scache.length c');
  ignore (Construct.schedule_program ~store:(Scache.store c') Device.a100 p);
  Alcotest.(check bool) "warm construct pass adds nothing" false
    (Scache.dirty c');
  Alcotest.(check bool) "warm construct pass hit the cache" true
    (Scache.hits c' > 0);
  (* the enumerative search against the same cache keys differently *)
  ignore (Ansor.schedule_program ~store:(Scache.store c') Device.a100 p);
  Alcotest.(check bool) "exhaustive entries key separately" true
    (Scache.length c' > n_construct);
  Sys.remove path

let test_warm_cache_skips_search () =
  let p = Lower.run (Bert.create ~cfg:Bert.tiny ()) in
  let cache = Scache.create () in
  let searches trace =
    let n = ref 0 in
    Obs.iter
      (fun s ~depth:_ -> if s.Obs.sname = "ansor-search" then incr n)
      trace;
    !n
  in
  let compile () =
    match
      Souffle.compile_result ~cfg:(Souffle.config ~sched_cache:cache ()) p
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "compile failed"
  in
  let r1, t1 = Obs.record compile in
  let r2, t2 = Obs.record compile in
  Alcotest.(check bool) "cold compile performed candidate searches" true
    (searches t1 > 0);
  Alcotest.(check int) "warm compile performed zero candidate searches" 0
    (searches t2);
  Alcotest.(check bool) "warm result identical to cold" true
    (r1.Souffle.sim = r2.Souffle.sim && r1.Souffle.prog = r2.Souffle.prog)

(* ---- scheduling retry ---- *)

let test_schedule_fault_recovers_via_retry () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let result, trips =
    Faultinject.with_fault (Faultinject.Fail_pass Diag.Schedule) (fun () ->
        Souffle.compile_result p)
  in
  Alcotest.(check int) "fault tripped once" 1 trips;
  match result with
  | Error _ -> Alcotest.fail "compile failed despite the retry"
  | Ok r ->
      (* recovered at the SAME optimization level: no degradation step —
         the default constructive pass took the fault and the exhaustive
         enumeration fallback answered *)
      Alcotest.(check (list Alcotest.string)) "no degradation recorded" []
        (List.map (fun d -> d.Souffle.d_subject) r.Souffle.degraded);
      Alcotest.(check bool) "exhaustive-search retry recorded as a warning"
        true
        (List.exists
           (fun d ->
             d.Diag.pass = Diag.Schedule
             && (not (Diag.is_error d))
             && Astring_contains.contains d.Diag.message "exhaustive")
           r.Souffle.diags);
      (match Souffle.verify ~rtol:1e-3 r with
      | Ok () -> ()
      | Error m -> Alcotest.failf "retry result not preserved: %s" m)

let test_report_scheds_cover_transformed () =
  (* the report carries the successful attempt's schedule table, so
     downstream renderings never re-run the search *)
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  match Souffle.compile_result p with
  | Error _ -> Alcotest.fail "compile failed"
  | Ok r ->
      List.iter
        (fun (te : Te.t) ->
          Alcotest.(check bool)
            ("schedule recorded for " ^ te.Te.name)
            true
            (Hashtbl.mem r.Souffle.scheds te.Te.name))
        r.Souffle.transformed.Program.tes;
      Alcotest.(check bool) "loop nests render from the report" true
        (String.length (Souffle.te_loop_nests r) > 0)

let suite =
  [
    Alcotest.test_case "parallel search matches serial" `Quick
      test_parallel_matches_serial;
    Alcotest.test_case "construct quality parity with exhaustive" `Quick
      test_construct_quality_parity;
    Alcotest.test_case "construct parallel matches serial" `Quick
      test_construct_parallel_matches_serial;
    Alcotest.test_case "cache roundtrip of constructed entries" `Quick
      test_cache_roundtrip_construct;
    Alcotest.test_case "parallel compile identical" `Quick
      test_parallel_compile_identical;
    Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache corrupt and stale files" `Quick
      test_cache_corrupt_and_stale;
    Alcotest.test_case "warm cache skips search" `Quick
      test_warm_cache_skips_search;
    Alcotest.test_case "schedule fault recovers via retry" `Quick
      test_schedule_fault_recovers_via_retry;
    Alcotest.test_case "report carries schedule table" `Quick
      test_report_scheds_cover_transformed;
  ]
