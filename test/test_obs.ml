(* Tests for the observability layer: Obs span nesting and exception
   safety, Chrome-trace JSON well-formedness (parsed back with Jsonlite),
   the per-kernel counter-report join, and the bench strictness exit-code
   behaviour backed by Runlog. *)

let dev = Device.a100

(* ---- spans ---- *)

let test_span_disabled_passthrough () =
  Alcotest.(check bool) "not recording" false (Obs.enabled ());
  Alcotest.(check int) "span is identity" 42 (Obs.span "x" (fun () -> 42));
  (* annotate outside a recording is a no-op, not an error *)
  Obs.annotate "k" "v"

let test_span_nesting_and_ordering () =
  let v, t =
    Obs.record (fun () ->
        Alcotest.(check bool) "recording" true (Obs.enabled ());
        let a =
          Obs.span "a" (fun () ->
              let b = Obs.span "b" (fun () -> 1) in
              let c = Obs.span ~meta:[ ("k", "v") ] "c" (fun () -> 2) in
              b + c)
        in
        let d = Obs.span "d" (fun () -> 4) in
        a + d)
  in
  Alcotest.(check int) "value" 7 v;
  Alcotest.(check int) "span count" 4 (Obs.span_count t);
  (match t.Obs.spans with
  | [ a; d ] ->
      Alcotest.(check string) "first root" "a" a.Obs.sname;
      Alcotest.(check string) "second root" "d" d.Obs.sname;
      (match a.Obs.children with
      | [ b; c ] ->
          Alcotest.(check string) "first child" "b" b.Obs.sname;
          Alcotest.(check string) "second child" "c" c.Obs.sname;
          Alcotest.(check (list (pair string string)))
            "meta" [ ("k", "v") ] c.Obs.meta;
          Alcotest.(check bool) "children start in order" true
            (b.Obs.start_us <= c.Obs.start_us);
          Alcotest.(check bool) "parent covers children" true
            (a.Obs.dur_us +. 1e-3 >= b.Obs.dur_us +. c.Obs.dur_us)
      | cs -> Alcotest.failf "expected 2 children of a, got %d" (List.length cs));
      Alcotest.(check int) "d is a leaf" 0 (List.length d.Obs.children);
      Alcotest.(check bool) "roots start in order" true
        (a.Obs.start_us <= d.Obs.start_us)
  | ss -> Alcotest.failf "expected 2 roots, got %d" (List.length ss));
  Alcotest.(check bool) "wall covers roots" true
    (t.Obs.wall_us +. 1e-3
    >= List.fold_left (fun acc s -> acc +. s.Obs.dur_us) 0. t.Obs.spans)

let test_span_exception_safety () =
  let (), t =
    Obs.record (fun () ->
        (try Obs.span "boom" (fun () -> raise Exit) with Exit -> ());
        Obs.span "after" (fun () -> ()))
  in
  (* the raising span closed and the next span is its sibling, not child *)
  Alcotest.(check (list string)) "both spans are roots" [ "boom"; "after" ]
    (List.map (fun s -> s.Obs.sname) t.Obs.spans);
  Alcotest.(check bool) "recording off after record" false (Obs.enabled ())

let test_annotate_attaches_to_open_span () =
  let (), t =
    Obs.record (fun () ->
        Obs.span "p" (fun () -> Obs.annotate "hits" "3"))
  in
  match t.Obs.spans with
  | [ p ] ->
      Alcotest.(check (list (pair string string)))
        "annotation landed" [ ("hits", "3") ] p.Obs.meta
  | _ -> Alcotest.fail "expected one root span"

(* ---- Jsonlite ---- *)

let test_jsonlite_roundtrip () =
  let v =
    Jsonlite.Obj
      [
        ("s", Jsonlite.Str "a\"b\\c\nd");
        ("n", Jsonlite.Num 1.5);
        ("i", Jsonlite.Num 42.);
        ("b", Jsonlite.Bool true);
        ("z", Jsonlite.Null);
        ("l", Jsonlite.Arr [ Jsonlite.Num 1.; Jsonlite.Str "x" ]);
        ("o", Jsonlite.Obj [ ("k", Jsonlite.Bool false) ]);
      ]
  in
  match Jsonlite.parse (Jsonlite.to_string v) with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok v' ->
      Alcotest.(check bool) "round-trips structurally" true (v = v');
      Alcotest.(check (option string)) "string member" (Some "a\"b\\c\nd")
        (Option.bind (Jsonlite.member "s" v') Jsonlite.to_str)

let test_jsonlite_rejects_garbage () =
  let bad s =
    match Jsonlite.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unterminated" true (bad "{\"a\": 1");
  Alcotest.(check bool) "trailing" true (bad "[1] x");
  Alcotest.(check bool) "bare word" true (bad "flase")

(* ---- float printing: shortest round-trip encoding ---- *)

let reparse_num (f : float) : float =
  match Jsonlite.parse (Jsonlite.to_string (Jsonlite.Num f)) with
  | Ok (Jsonlite.Num f') -> f'
  | Ok _ -> Alcotest.fail "number did not parse back as a number"
  | Error m -> Alcotest.failf "printed number does not parse: %s" m

let test_jsonlite_float_roundtrip_awkward () =
  let bits = Int64.bits_of_float in
  let awkward =
    [
      Float.min_float;                 (* smallest normal *)
      5e-324;                          (* smallest subnormal *)
      1.5e-310;                        (* mid-range subnormal *)
      1.2345678901234567e-07;          (* 1e-7-scale latency, 17 digits *)
      3.3333333333333331e-01;          (* 1/3 *)
      0.1;                             (* classic non-representable decimal *)
      1722931234567891.2;              (* large non-integer us timestamp *)
      9.007199254740993e15;            (* just past exact-integer range *)
      Float.max_float;
      -2.2250738585072011e-308;        (* negative near-subnormal boundary *)
      1.0000000000000002;              (* 1 + ulp *)
    ]
  in
  List.iter
    (fun f ->
      Alcotest.(check int64)
        (Printf.sprintf "round-trips bit-exactly: %h" f)
        (bits f) (bits (reparse_num f)))
    awkward;
  (* non-finite samples clamp to 0 by contract rather than emit bad JSON *)
  Alcotest.(check (float 0.)) "nan clamps" 0. (reparse_num nan);
  Alcotest.(check (float 0.)) "inf clamps" 0. (reparse_num infinity)

let qcheck_jsonlite_float_roundtrip =
  QCheck.Test.make ~name:"jsonlite float printing round-trips bit-exactly"
    ~count:1000
    QCheck.(
      oneof
        [
          float;
          map (fun (m, e) -> m *. (10. ** float_of_int e))
            (pair (float_bound_inclusive 1.) (int_range (-320) 15));
        ])
    (fun f ->
      if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
        true
      else Int64.bits_of_float (reparse_num f) = Int64.bits_of_float f)

(* The checked-in smoke-bench goldens under test/golden (declared as test
   deps in test/dune, so they sit beside the test's cwd) flow through
   Jsonlite; after the shortest-round-trip fix a parse -> print -> parse
   cycle must be a structural fixpoint (bit-exact floats included, since
   [=] on the NaN-free AST compares floats by value). *)
let test_jsonlite_golden_fixpoint () =
  let dir = "golden" in
  let goldens =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
    else []
  in
  Alcotest.(check bool) "found goldens" true (goldens <> []);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Jsonlite.parse s with
      | Error m -> Alcotest.failf "%s does not parse: %s" f m
      | Ok v -> (
          let printed = Jsonlite.to_string v in
          match Jsonlite.parse printed with
          | Error m -> Alcotest.failf "%s reprint does not parse: %s" f m
          | Ok v' ->
              Alcotest.(check bool)
                (f ^ " round-trips bit-exactly") true (v = v')))
    goldens

(* ---- Chrome-trace export ---- *)

let test_chrome_trace_wellformed () =
  let (), t =
    Obs.record (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span ~meta:[ ("te", "q\"k") ] "inner" (fun () -> ())))
  in
  let json = Obs.to_chrome_json t in
  match Jsonlite.parse json with
  | Error m -> Alcotest.failf "emitted trace does not parse: %s" m
  | Ok v -> (
      match Option.bind (Jsonlite.member "traceEvents" v) Jsonlite.to_list with
      | None -> Alcotest.fail "no traceEvents array"
      | Some events ->
          Alcotest.(check int) "one event per span" (Obs.span_count t)
            (List.length events);
          List.iter
            (fun e ->
              Alcotest.(check (option string)) "complete event" (Some "X")
                (Option.bind (Jsonlite.member "ph" e) Jsonlite.to_str);
              Alcotest.(check bool) "has ts" true
                (Option.is_some
                   (Option.bind (Jsonlite.member "ts" e) Jsonlite.to_float));
              Alcotest.(check bool) "has dur" true
                (Option.is_some
                   (Option.bind (Jsonlite.member "dur" e) Jsonlite.to_float)))
            events;
          let names =
            List.filter_map
              (fun e -> Option.bind (Jsonlite.member "name" e) Jsonlite.to_str)
              events
          in
          Alcotest.(check (list string)) "preorder names"
            [ "outer"; "inner" ] names)

(* ---- the instrumented pipeline ---- *)

let test_compile_produces_spans () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let r, t = Obs.record (fun () -> Souffle.compile p) in
  Alcotest.(check bool) "compiled" true (Souffle.num_kernels r >= 1);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true
        (Obs.total_us t name > 0.))
    [ "compile"; "attempt"; "horizontal"; "vertical"; "analysis"; "ansor";
      "emit-kernel"; "verify-ir"; "simulate" ];
  (* program validation is its own phase, directly under "compile" *)
  let validate_depths = ref [] in
  Obs.iter
    (fun s ~depth ->
      if s.Obs.sname = "validate" then validate_depths := depth :: !validate_depths)
    t;
  Alcotest.(check (list int)) "one validate span, child of compile" [ 1 ]
    !validate_depths;
  (* exactly one attempt on a clean compile: no degradation retries *)
  let attempts = ref 0 in
  Obs.iter
    (fun s ~depth:_ -> if s.Obs.sname = "attempt" then incr attempts)
    t;
  Alcotest.(check int) "one ladder attempt" 1 !attempts

(* ---- per-kernel counter report ---- *)

let two_kernel_prog () =
  let stage ~label instrs = Kernel_ir.stage ~label instrs in
  {
    Kernel_ir.pname = "t";
    kernels =
      [
        Kernel_ir.kernel ~name:"k0_a" ~grid_blocks:108
          [
            stage ~label:"a" [ Kernel_ir.ldg 1_000_000 ];
            stage ~label:"b"
              [
                Kernel_ir.Fma { flops = 2_000_000 };
                Kernel_ir.stg 500_000;
              ];
          ];
        Kernel_ir.kernel ~name:"k1_c" ~grid_blocks:108
          [ stage ~label:"c" [ Kernel_ir.ldg 3_000_000 ] ];
      ];
  }

let test_kreport_join () =
  let sim = Sim.run dev (two_kernel_prog ()) in
  let rows = Kreport.of_sim sim in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let r0 = List.nth rows 0 and r1 = List.nth rows 1 in
  Alcotest.(check string) "identity 0" "k0_a" r0.Kreport.r_kernel;
  Alcotest.(check string) "identity 1" "k1_c" r1.Kreport.r_kernel;
  Alcotest.(check (list string)) "tes joined from stages" [ "a"; "b" ]
    r0.Kreport.r_tes;
  Alcotest.(check (list string)) "tes kernel 1" [ "c" ] r1.Kreport.r_tes;
  Alcotest.(check int) "launch index" 1 r1.Kreport.r_index;
  (* the join attributes traffic to the right kernel *)
  Alcotest.(check int) "k0 reads" 1_000_000
    r0.Kreport.r_counters.Counters.dram_read_bytes;
  Alcotest.(check int) "k1 reads" 3_000_000
    r1.Kreport.r_counters.Counters.dram_read_bytes;
  Alcotest.(check int) "k0 writes" 500_000
    r0.Kreport.r_counters.Counters.dram_write_bytes;
  Alcotest.(check int) "k0 flops" 2_000_000
    r0.Kreport.r_counters.Counters.fma_flops;
  (* and the rows sum to the program total *)
  let sum f = List.fold_left (fun a r -> a + f r.Kreport.r_counters) 0 rows in
  Alcotest.(check int) "reads sum to total"
    sim.Sim.total.Counters.dram_read_bytes
    (sum (fun c -> c.Counters.dram_read_bytes));
  Alcotest.(check int) "launches sum to total"
    sim.Sim.total.Counters.kernel_launches
    (sum (fun c -> c.Counters.kernel_launches))

let test_kreport_json () =
  let sim = Sim.run dev (two_kernel_prog ()) in
  let json =
    Jsonlite.to_string (Kreport.to_json ~meta:[ ("model", "toy") ] sim)
  in
  match Jsonlite.parse json with
  | Error m -> Alcotest.failf "kernel report does not parse: %s" m
  | Ok v ->
      let kernels =
        Option.bind (Jsonlite.member "kernels" v) Jsonlite.to_list
      in
      Alcotest.(check int) "two kernel objects" 2
        (List.length (Option.value ~default:[] kernels));
      Alcotest.(check (option string)) "meta carried" (Some "toy")
        Option.(
          bind (Jsonlite.member "meta" v) (fun m ->
              bind (Jsonlite.member "model" m) Jsonlite.to_str))

let test_souffle_kernel_report () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let r = Souffle.compile p in
  let rows = Souffle.kernel_report r in
  Alcotest.(check int) "one row per kernel" (Souffle.num_kernels r)
    (List.length rows);
  match Jsonlite.parse (Souffle.kernel_report_json ~model:"mmoe" r) with
  | Error m -> Alcotest.failf "report json: %s" m
  | Ok v ->
      Alcotest.(check (option string)) "level stamped"
        (Some (Souffle.level_to_string r.Souffle.cfg.Souffle.level))
        Option.(
          bind (Jsonlite.member "meta" v) (fun m ->
              bind (Jsonlite.member "level" m) Jsonlite.to_str))

(* ---- bench strictness ---- *)

let test_runlog_exit_codes () =
  let log = Runlog.create () in
  Alcotest.(check int) "empty, strict" 0 (Runlog.exit_code ~strict:true log);
  Runlog.record log ~model:"clean" ~degraded_steps:0 ~errors:0;
  Alcotest.(check int) "clean, strict" 0 (Runlog.exit_code ~strict:true log);
  Alcotest.(check bool) "nothing degraded" false (Runlog.any_degraded log);
  Runlog.record log ~model:"wobbly" ~degraded_steps:2 ~errors:2;
  Alcotest.(check bool) "degradation seen" true (Runlog.any_degraded log);
  Alcotest.(check int) "degraded, lax" 0 (Runlog.exit_code ~strict:false log);
  Alcotest.(check int) "degraded, strict" 3 (Runlog.exit_code ~strict:true log);
  Alcotest.(check int) "two entries" 2 (List.length (Runlog.entries log));
  Alcotest.(check int) "one dirty" 1 (List.length (Runlog.dirty log))

let test_strictness_on_degraded_compile () =
  (* a real degraded compile, as the bench harness would record it: inject
     a horizontal-pass fault, let the ladder recover at V0..V3, and check
     the run fails under strictness *)
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  Faultinject.arm (Faultinject.Fail_pass Diag.Horizontal);
  let result =
    Fun.protect ~finally:Faultinject.disarm (fun () ->
        Souffle.compile_result p)
  in
  match result with
  | Error ds ->
      Alcotest.failf "expected recovery, got: %s"
        (String.concat "; " (List.map Diag.to_string ds))
  | Ok r ->
      Alcotest.(check bool) "ladder engaged" true (r.Souffle.degraded <> []);
      let log = Runlog.create () in
      Runlog.record log ~model:"mmoe"
        ~degraded_steps:(List.length r.Souffle.degraded)
        ~errors:0;
      Alcotest.(check int) "strict bench fails" 3
        (Runlog.exit_code ~strict:true log);
      Alcotest.(check int) "lax bench passes" 0
        (Runlog.exit_code ~strict:false log)

let test_degraded_compile_has_retry_spans () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  Faultinject.arm (Faultinject.Fail_pass Diag.Vertical);
  let result, t =
    Obs.record (fun () ->
        Fun.protect ~finally:Faultinject.disarm (fun () ->
            Souffle.compile_result p))
  in
  match result with
  | Error _ -> Alcotest.fail "expected recovery"
  | Ok r ->
      let attempts = ref 0 in
      Obs.iter
        (fun s ~depth:_ -> if s.Obs.sname = "attempt" then incr attempts)
        t;
      Alcotest.(check bool) "retry visible in trace" true (!attempts >= 2);
      Alcotest.(check int) "trace matches report" (List.length r.Souffle.degraded)
        (!attempts - 1)

let suite =
  [
    Alcotest.test_case "span disabled passthrough" `Quick
      test_span_disabled_passthrough;
    Alcotest.test_case "span nesting and ordering" `Quick
      test_span_nesting_and_ordering;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "annotate open span" `Quick
      test_annotate_attaches_to_open_span;
    Alcotest.test_case "jsonlite roundtrip" `Quick test_jsonlite_roundtrip;
    Alcotest.test_case "jsonlite rejects garbage" `Quick
      test_jsonlite_rejects_garbage;
    Alcotest.test_case "jsonlite awkward float roundtrip" `Quick
      test_jsonlite_float_roundtrip_awkward;
    QCheck_alcotest.to_alcotest qcheck_jsonlite_float_roundtrip;
    Alcotest.test_case "jsonlite golden fixpoint" `Quick
      test_jsonlite_golden_fixpoint;
    Alcotest.test_case "chrome trace wellformed" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "compile produces spans" `Quick
      test_compile_produces_spans;
    Alcotest.test_case "kreport join" `Quick test_kreport_join;
    Alcotest.test_case "kreport json" `Quick test_kreport_json;
    Alcotest.test_case "souffle kernel report" `Quick
      test_souffle_kernel_report;
    Alcotest.test_case "runlog exit codes" `Quick test_runlog_exit_codes;
    Alcotest.test_case "strict on degraded compile" `Quick
      test_strictness_on_degraded_compile;
    Alcotest.test_case "degraded compile retry spans" `Quick
      test_degraded_compile_has_retry_spans;
  ]
