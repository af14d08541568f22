(* Tests for Souffle's scheduling path: constructive scheduling's kernel
   quality against the enumerative search, the per-compile ladder memo,
   and the reduced-space scheduling retry. *)

(* ---- constructive scheduling ---- *)

let test_construct_quality_parity () =
  (* kernel-quality oracle: on every reduction TE of each transformed zoo
     program (tiny and full), the constructed schedule's estimated latency
     is compared with the enumerative search's under the shared cost
     model; summed over the program, construction may cost at most 5% *)
  let dev = Device.a100 in
  let cost p te s = Ansor.estimate_us dev p te s in
  List.iter
    (fun (e : Zoo.entry) ->
      List.iter
        (fun (size, g) ->
          let name = e.Zoo.name ^ "/" ^ size in
          let p =
            match Souffle.compile_result (Lower.run (g ())) with
            | Ok r -> r.Souffle.transformed
            | Error _ -> Alcotest.failf "%s: compile failed" name
          in
          let c, x =
            List.fold_left
              (fun (c, x) (te : Te.t) ->
                if not (Te.has_reduction te) then (c, x)
                else
                  ( c +. cost p te (Construct.schedule_te dev p te),
                    x +. cost p te (Ansor.schedule_te dev p te) ))
              (0., 0.) p.Program.tes
          in
          let rel = if x > 0. then (c -. x) /. x else 0. in
          if rel > 0.05 then
            Alcotest.failf
              "%s: constructed schedules cost %.1f%% estimated latency vs \
               enumeration (%.2f us vs %.2f us)"
              name (100. *. rel) c x)
        [ ("tiny", e.Zoo.tiny); ("full", e.Zoo.full) ])
    Zoo.all

(* ---- ladder memo ---- *)

let int_meta (s : Obs.span) key =
  match List.assoc_opt key s.Obs.meta with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "ansor span lacks %S" key

let test_ladder_memo_reuses_schedules () =
  (* a partition failure retries the program one level down; the retried
     attempt schedules the same transformed TEs, so every key it needs
     comes from the memo the first attempt filled *)
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let (result, trips), t =
    Obs.record (fun () ->
        Faultinject.with_fault (Faultinject.Fail_pass Diag.Partition)
          (fun () -> Souffle.compile_result p))
  in
  Alcotest.(check int) "fault tripped once" 1 trips;
  (match result with
  | Ok r ->
      Alcotest.(check int) "one degradation step" 1
        (List.length r.Souffle.degraded)
  | Error _ -> Alcotest.fail "compile failed despite the retry");
  let attempts =
    let l = ref [] in
    Obs.iter
      (fun s ~depth:_ -> if s.Obs.sname = "attempt" then l := s :: !l)
      t;
    List.rev !l
  in
  let ansor_of (a : Obs.span) =
    match List.filter (fun c -> c.Obs.sname = "ansor") a.Obs.children with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one ansor span, got %d" (List.length l)
  in
  match attempts with
  | [ first; retried ] ->
      let a1 = ansor_of first and a2 = ansor_of retried in
      Alcotest.(check bool) "first attempt scheduled keys" true
        (int_meta a1 "searched" > 0);
      Alcotest.(check int) "retry hits the memo for every key"
        (int_meta a1 "searched") (int_meta a2 "store_hits");
      Alcotest.(check int) "retry schedules nothing" 0
        (int_meta a2 "searched");
      Alcotest.(check int) "no ansor-search spans under the retry" 0
        (List.length
           (List.filter
              (fun c -> c.Obs.sname = "ansor-search")
              a2.Obs.children))
  | l -> Alcotest.failf "expected two attempts, got %d" (List.length l)

(* ---- scheduling retry ---- *)

let test_schedule_fault_recovers_via_retry () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let compile times =
    let result, trips =
      Faultinject.with_fault ~times (Faultinject.Fail_pass Diag.Schedule)
        (fun () -> Souffle.compile_result p)
    in
    Alcotest.(check int) (Fmt.str "fault tripped %d time(s)" times) times trips;
    match result with
    | Error _ -> Alcotest.fail "compile failed despite the retry"
    | Ok r ->
        (match Souffle.verify ~rtol:1e-3 r with
        | Ok () -> ()
        | Error m -> Alcotest.failf "retry result not preserved: %s" m);
        r
  in
  (* one trip: the constructive pass took the fault and the reduced
     candidate set answered, at the SAME optimization level *)
  let r = compile 1 in
  Alcotest.(check (list Alcotest.string)) "no degradation recorded" []
    (List.map (fun d -> d.Souffle.d_subject) r.Souffle.degraded);
  Alcotest.(check bool) "reduced-set retry recorded as a warning" true
    (List.exists
       (fun d ->
         d.Diag.pass = Diag.Schedule
         && (not (Diag.is_error d))
         && Astring_contains.contains d.Diag.message "reduced candidate set")
       r.Souffle.diags);
  (* two trips: construction and the reduced retry both fail, so the
     program degrades exactly one level and schedules cleanly there *)
  let r = compile 2 in
  (match r.Souffle.degraded with
  | [ d ] ->
      Alcotest.(check bool) "degraded by the schedule pass" true
        (d.Souffle.d_pass = Diag.Schedule);
      Alcotest.(check int) "exactly one level"
        (Souffle.level_rank d.Souffle.d_from - 1)
        (Souffle.level_rank d.Souffle.d_to)
  | l -> Alcotest.failf "expected one degradation, got %d" (List.length l));
  Alcotest.(check bool) "typed schedule diagnostic" true
    (List.exists
       (fun d -> d.Diag.pass = Diag.Schedule && Diag.is_error d)
       r.Souffle.diags)

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
    Alcotest.test_case "construct quality parity with exhaustive" `Quick
      test_construct_quality_parity;
    Alcotest.test_case "ladder memo reuses the first attempt's schedules"
      `Quick test_ladder_memo_reuses_schedules;
    Alcotest.test_case "schedule fault recovers via retry" `Quick
      test_schedule_fault_recovers_via_retry;
    Alcotest.test_case "report carries schedule table" `Quick
      test_report_scheds_cover_transformed;
  ]
