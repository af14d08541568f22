(* Semantic-preservation tests for horizontal and vertical TE
   transformations — the executable version of the paper's
   "semantic-preserving" claim, checked against the reference interpreter. *)

open Expr

let f32 = Dtype.F32

let input name shape = (name, { Program.shape; dtype = f32 })

let check_equiv ?(rtol = 1e-4) name a b =
  match Interp.equivalent ~rtol a b with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

(* --- vertical ------------------------------------------------------- *)

(* Fig. 4's example: relu -> strided_slice -> permute collapses to one TE. *)
let fig4_program () =
  let a = input "A" [| 4; 8 |] in
  let b = Builder.unary ~name:"B" ~shape:[| 4; 8 |] Relu "A" in
  let c =
    Builder.strided_slice ~name:"C" ~in_shape:[| 4; 8 |] ~axis:0 ~start:0
      ~stride:2 ~size:2 "B"
  in
  let d = Builder.permute ~name:"D" ~in_shape:[| 2; 8 |] ~perm:[| 1; 0 |] "C" in
  Program.make ~inputs:[ a ] ~tes:[ b; c; d ] ~outputs:[ "D" ]

let test_vertical_fig4 () =
  let p = fig4_program () in
  let p', stats = Vertical.apply p in
  Alcotest.(check int) "collapses to a single TE" 1
    (List.length p'.Program.tes);
  Alcotest.(check bool) "some rewrites happened" true
    (stats.Vertical.chains_fused + stats.Vertical.movement_folded >= 2);
  check_equiv "fig4" p p'

let test_vertical_chain_of_elementwise () =
  let x = input "x" [| 6; 6 |] in
  let a = Builder.unary ~name:"a" ~shape:[| 6; 6 |] Sigmoid "x" in
  let b = Builder.unary ~name:"b" ~shape:[| 6; 6 |] Neg "a" in
  let c = Builder.unary ~name:"c" ~shape:[| 6; 6 |] Exp "b" in
  let p = Program.make ~inputs:[ x ] ~tes:[ a; b; c ] ~outputs:[ "c" ] in
  let p', _ = Vertical.apply p in
  Alcotest.(check int) "one TE" 1 (List.length p'.Program.tes);
  check_equiv "elementwise chain" p p'

let test_vertical_movement_into_reduce () =
  (* transpose folded into the GEMM that consumes it *)
  let a = input "A" [| 5; 7 |] and b = input "B" [| 5; 6 |] in
  let at' =
    Builder.permute ~name:"At" ~in_shape:[| 5; 7 |] ~perm:[| 1; 0 |] "A"
  in
  let c = Builder.matmul ~name:"C" ~m:7 ~n:6 ~k:5 "At" "B" in
  let p = Program.make ~inputs:[ a; b ] ~tes:[ at'; c ] ~outputs:[ "C" ] in
  let p', stats = Vertical.apply p in
  Alcotest.(check int) "transpose folded" 1 (List.length p'.Program.tes);
  Alcotest.(check int) "movement fold counted" 1 stats.Vertical.movement_folded;
  check_equiv "transpose into gemm" p p'

let test_vertical_respects_flag () =
  let a = input "A" [| 5; 7 |] and b = input "B" [| 5; 6 |] in
  let at' =
    Builder.permute ~name:"At" ~in_shape:[| 5; 7 |] ~perm:[| 1; 0 |] "A"
  in
  let c = Builder.matmul ~name:"C" ~m:7 ~n:6 ~k:5 "At" "B" in
  let p = Program.make ~inputs:[ a; b ] ~tes:[ at'; c ] ~outputs:[ "C" ] in
  let p', _ = Vertical.apply ~fold_into_reduce:false p in
  Alcotest.(check int) "kept separate" 2 (List.length p'.Program.tes)

let test_vertical_keeps_shared_arith () =
  (* a sigmoid consumed twice must not be duplicated into both consumers *)
  let x = input "x" [| 8 |] in
  let s = Builder.unary ~name:"s" ~shape:[| 8 |] Sigmoid "x" in
  let u = Builder.unary ~name:"u" ~shape:[| 8 |] Neg "s" in
  let v = Builder.unary ~name:"v" ~shape:[| 8 |] Exp "s" in
  let p = Program.make ~inputs:[ x ] ~tes:[ s; u; v ] ~outputs:[ "u"; "v" ] in
  let p', _ = Vertical.apply p in
  Alcotest.(check bool) "s survives" true
    (Option.is_some (Program.find_te p' "s"));
  check_equiv "shared arith" p p'

let test_vertical_keeps_outputs () =
  (* a TE that is a program output cannot be inlined away *)
  let x = input "x" [| 8 |] in
  let s = Builder.unary ~name:"s" ~shape:[| 8 |] Relu "x" in
  let u = Builder.unary ~name:"u" ~shape:[| 8 |] Neg "s" in
  let p = Program.make ~inputs:[ x ] ~tes:[ s; u ] ~outputs:[ "s"; "u" ] in
  let p', _ = Vertical.apply p in
  Alcotest.(check int) "both kept" 2 (List.length p'.Program.tes);
  check_equiv "outputs preserved" p p'

let test_vertical_reshape_roundtrip () =
  (* reshape . reshape⁻¹ composes to identity indices *)
  let x = input "x" [| 4; 6 |] in
  let r1 =
    Builder.reshape ~name:"r1" ~in_shape:[| 4; 6 |] ~out_shape:[| 24 |] "x"
  in
  let r2 =
    Builder.reshape ~name:"r2" ~in_shape:[| 24 |] ~out_shape:[| 4; 6 |] "r1"
  in
  let y = Builder.unary ~name:"y" ~shape:[| 4; 6 |] Relu "r2" in
  let p = Program.make ~inputs:[ x ] ~tes:[ r1; r2; y ] ~outputs:[ "y" ] in
  let p', _ = Vertical.apply p in
  Alcotest.(check int) "one TE" 1 (List.length p'.Program.tes);
  (* the composed index must simplify back to the identity access *)
  let te = List.hd p'.Program.tes in
  (match Te.body_expr te with
  | Unop (Relu, Read ("x", [ i0; i1 ])) ->
      Alcotest.(check bool) "identity indices" true
        (Index.equal i0 (Index.Ov 0) && Index.equal i1 (Index.Ov 1))
  | e -> Alcotest.failf "unexpected body %s" (Expr.to_string e));
  check_equiv "reshape roundtrip" p p'

(* --- vertical round semantics ----------------------------------------

   Vertical runs in rounds: selection reads the consumer tallies at the
   start of a round, only selected TEs without a selected input are
   inlined, and the fixpoint stops after 65 rounds.  The expected programs
   below were recorded from the whole-program-per-round implementation,
   so an incremental one cannot drift from those semantics unnoticed. *)

let digest (p : Program.t) =
  Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))

let check_vertical name p ~chains ~moved ~expect =
  let p', stats = Vertical.apply p in
  Alcotest.(check int) (name ^ ": chains fused") chains
    stats.Vertical.chains_fused;
  Alcotest.(check int) (name ^ ": movement folded") moved
    stats.Vertical.movement_folded;
  Alcotest.(check string) (name ^ ": program") expect (Program.to_string p');
  check_equiv name p p';
  p'

(* a shared arithmetic producer stays while it has two consumers; once
   both are inlined into a third TE it is single-consumer and goes in a
   later round *)
let test_vertical_shared_becomes_single () =
  let x = input "x" [| 8 |] in
  let s = Builder.unary ~name:"s" ~shape:[| 8 |] Sigmoid "x" in
  let u = Builder.unary ~name:"u" ~shape:[| 8 |] Neg "s" in
  let v = Builder.unary ~name:"v" ~shape:[| 8 |] Exp "s" in
  let w = Builder.binary ~name:"w" ~shape:[| 8 |] Add "u" "v" in
  let p = Program.make ~inputs:[ x ] ~tes:[ s; u; v; w ] ~outputs:[ "w" ] in
  ignore
    (check_vertical "shared then single" p ~chains:3 ~moved:0
       ~expect:
         "inputs:\n\
         \  x : f32 (8)\n\
          tes:\n\
         \  w(8) : f32 = (neg(sigmoid(x[i0])) + exp(sigmoid(x[i0])))\n\
          outputs: w")

(* a transpose absorbs its arithmetic producer first, so it is no longer
   pure data movement and stays out of the GEMM that consumes it *)
let test_vertical_movement_absorbs_arith () =
  let a = input "A" [| 5; 7 |] and b = input "B" [| 5; 6 |] in
  let r = Builder.unary ~name:"R" ~shape:[| 5; 7 |] Relu "A" in
  let t = Builder.permute ~name:"T" ~in_shape:[| 5; 7 |] ~perm:[| 1; 0 |] "R" in
  let c = Builder.matmul ~name:"C" ~m:7 ~n:6 ~k:5 "T" "B" in
  let p = Program.make ~inputs:[ a; b ] ~tes:[ r; t; c ] ~outputs:[ "C" ] in
  ignore
    (check_vertical "movement absorbs arith" p ~chains:1 ~moved:0
       ~expect:
         "inputs:\n\
         \  A : f32 (5, 7)\n\
         \  B : f32 (5, 6)\n\
          tes:\n\
         \  T(7, 5) : f32 = relu(A[i1, i0])\n\
         \  C(7, 6) : f32 = sum(5) (T[i0, r0] * B[r0, i1])\n\
          outputs: C")

(* a 70-long elementwise chain resolves one link per round, so the 65-round
   cap leaves its last five TEs *)
let test_vertical_round_cap () =
  let x = input "x" [| 4 |] in
  let tes =
    List.init 70 (fun i ->
        let src = if i = 0 then "x" else Fmt.str "t%d" (i - 1) in
        Builder.unary ~name:(Fmt.str "t%d" i) ~shape:[| 4 |]
          (if i mod 2 = 0 then Neg else Relu)
          src)
  in
  let p = Program.make ~inputs:[ x ] ~tes ~outputs:[ "t69" ] in
  let p', stats = Vertical.apply p in
  Alcotest.(check int) "one link per round" 65 stats.Vertical.chains_fused;
  Alcotest.(check (list string)) "tail left"
    [ "t65"; "t66"; "t67"; "t68"; "t69" ]
    (Program.te_names p');
  Alcotest.(check string) "program" "70d006f660d2b95e42beabf394d1a2d8"
    (digest p');
  check_equiv "round cap" p p'

(* --- horizontal ------------------------------------------------------ *)

(* Fig. 3's example: two GEMMs sharing a reduction variable merge into one
   TE of shape (4+2, 16). *)
let fig3_program () =
  let inputs =
    [
      input "A1" [| 4; 8 |]; input "B1" [| 8; 16 |];
      input "A2" [| 2; 8 |]; input "B2" [| 8; 16 |];
    ]
  in
  let c1 = Builder.matmul ~name:"C1" ~m:4 ~n:16 ~k:8 "A1" "B1" in
  let c2 = Builder.matmul ~name:"C2" ~m:2 ~n:16 ~k:8 "A2" "B2" in
  (* consumers so the merged tensor is observable through rewrites *)
  let u1 = Builder.unary ~name:"U1" ~shape:[| 4; 16 |] Relu "C1" in
  let u2 = Builder.unary ~name:"U2" ~shape:[| 2; 16 |] Relu "C2" in
  Program.make ~inputs ~tes:[ c1; c2; u1; u2 ] ~outputs:[ "U1"; "U2" ]

let test_horizontal_fig3 () =
  let p = fig3_program () in
  let p', stats = Horizontal.apply p in
  Alcotest.(check int) "one group" 1 stats.Horizontal.groups_merged;
  Alcotest.(check int) "one TE eliminated" 1 stats.Horizontal.tes_eliminated;
  (* merged TE exists with concatenated shape *)
  (match Program.find_te p' "C1_hz" with
  | Some te -> Alcotest.(check (array int)) "shape (6,16)" [| 6; 16 |] te.Te.out_shape
  | None -> Alcotest.fail "merged TE missing");
  check_equiv "fig3" p p'

let test_horizontal_same_input_spatial_reuse () =
  (* QKV pattern: three GEMMs reading the same activation *)
  let inputs =
    [ input "X" [| 8; 16 |]; input "Wq" [| 16; 8 |]; input "Wk" [| 16; 8 |];
      input "Wv" [| 16; 8 |] ]
  in
  let q = Builder.matmul ~name:"Q" ~m:8 ~n:8 ~k:16 "X" "Wq" in
  let k = Builder.matmul ~name:"K" ~m:8 ~n:8 ~k:16 "X" "Wk" in
  let v = Builder.matmul ~name:"V" ~m:8 ~n:8 ~k:16 "X" "Wv" in
  let s = Builder.binary ~name:"S" ~shape:[| 8; 8 |] Add "Q" "K" in
  let t = Builder.binary ~name:"T" ~shape:[| 8; 8 |] Add "S" "V" in
  let p =
    Program.make ~inputs ~tes:[ q; k; v; s; t ] ~outputs:[ "T" ]
  in
  let p', stats = Horizontal.apply p in
  Alcotest.(check int) "merged 3 into 1" 2 stats.Horizontal.tes_eliminated;
  Alcotest.(check bool) "valid program" true
    (Result.is_ok (Program.validate p'));
  check_equiv "qkv merge" p p'

let test_horizontal_dependent_not_merged () =
  (* two GEMMs where the second consumes the first: same template but
     different depth, must not merge *)
  let inputs = [ input "X" [| 8; 8 |]; input "W1" [| 8; 8 |]; input "W2" [| 8; 8 |] ] in
  let a = Builder.matmul ~name:"G1" ~m:8 ~n:8 ~k:8 "X" "W1" in
  let b = Builder.matmul ~name:"G2" ~m:8 ~n:8 ~k:8 "G1" "W2" in
  let p = Program.make ~inputs ~tes:[ a; b ] ~outputs:[ "G2" ] in
  let _, stats = Horizontal.apply p in
  Alcotest.(check int) "no groups" 0 stats.Horizontal.groups_merged

let test_horizontal_outputs_not_merged () =
  let inputs = [ input "X" [| 8; 8 |]; input "W1" [| 8; 8 |]; input "W2" [| 8; 8 |] ] in
  let a = Builder.matmul ~name:"G1" ~m:8 ~n:8 ~k:8 "X" "W1" in
  let b = Builder.matmul ~name:"G2" ~m:8 ~n:8 ~k:8 "X" "W2" in
  let p = Program.make ~inputs ~tes:[ a; b ] ~outputs:[ "G1"; "G2" ] in
  let _, stats = Horizontal.apply p in
  Alcotest.(check int) "outputs kept" 0 stats.Horizontal.groups_merged

let test_horizontal_then_vertical () =
  (* the full §6 sequence on the QKV pattern stays correct *)
  let p =
    let inputs =
      [ input "X" [| 8; 16 |]; input "Wq" [| 16; 8 |]; input "Wk" [| 16; 8 |] ]
    in
    let q = Builder.matmul ~name:"Q" ~m:8 ~n:8 ~k:16 "X" "Wq" in
    let k = Builder.matmul ~name:"K" ~m:8 ~n:8 ~k:16 "X" "Wk" in
    let qr = Builder.unary ~name:"Qr" ~shape:[| 8; 8 |] Relu "Q" in
    let kr = Builder.unary ~name:"Kr" ~shape:[| 8; 8 |] Tanh "K" in
    let s = Builder.binary ~name:"S2" ~shape:[| 8; 8 |] Mul "Qr" "Kr" in
    Program.make ~inputs ~tes:[ q; k; qr; kr; s ] ~outputs:[ "S2" ]
  in
  let p1, _ = Horizontal.apply p in
  let p2, _ = Vertical.apply p1 in
  Alcotest.(check bool) "valid" true (Result.is_ok (Program.validate p2));
  check_equiv "horizontal+vertical" p p2

(* a read that no lower depth produces cannot be put in wavefront order:
   the pass raises, and the total entry point turns that into a typed
   horizontal diagnostic *)
let test_horizontal_rejects_undefined_read () =
  let p = fig3_program () in
  let bad = Builder.unary ~name:"U3" ~shape:[| 4; 16 |] Relu "missing" in
  let p = { p with Program.tes = p.Program.tes @ [ bad ] } in
  match Horizontal.apply_result p with
  | Ok _ -> Alcotest.fail "undefined read accepted"
  | Error d ->
      Alcotest.(check string) "pass" "horizontal" (Diag.pass_name d.Diag.pass);
      Alcotest.(check bool) "error" true (Diag.is_error d)

(* --- transform oracle -------------------------------------------------

   test/golden/transform_oracle.json holds, for every zoo model at full
   size, tiny size and batch 8, digests of the program after horizontal
   and after vertical plus both stats records, recorded from the
   whole-program-per-round transforms.  The transforms must keep
   reproducing them exactly. *)

let oracle_variants =
  [
    ("full", fun (e : Zoo.entry) -> Lower.run (e.Zoo.full ()));
    ("tiny", fun (e : Zoo.entry) -> Lower.run (e.Zoo.tiny ()));
    ( "batch8",
      fun (e : Zoo.entry) -> Batch.apply ~batch:8 (Lower.run (e.Zoo.full ())) );
  ]

let test_transform_oracle () =
  let ic = open_in_bin "golden/transform_oracle.json" in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let entries =
    match Jsonlite.parse src with
    | Ok j ->
        Option.get (Option.bind (Jsonlite.member "entries" j) Jsonlite.to_list)
    | Error m -> Alcotest.failf "transform_oracle.json: %s" m
  in
  let field e k = Option.get (Jsonlite.member k e) in
  let str e k = Option.get (Jsonlite.to_str (field e k)) in
  let int e k = int_of_float (Option.get (Jsonlite.to_float (field e k))) in
  Alcotest.(check int) "one entry per model and variant"
    (List.length Zoo.all * List.length oracle_variants)
    (List.length entries);
  List.iter
    (fun (e : Zoo.entry) ->
      List.iter
        (fun (variant, lower) ->
          let what = e.Zoo.name ^ "/" ^ variant in
          let want =
            match
              List.find_opt
                (fun o ->
                  str o "model" = e.Zoo.name && str o "variant" = variant)
                entries
            with
            | Some o -> o
            | None -> Alcotest.failf "%s: no oracle entry" what
          in
          let h, hs = Horizontal.apply (lower e) in
          let v, vs = Vertical.apply h in
          let check k got =
            Alcotest.(check int) (what ^ " " ^ k) (int want k) got
          in
          Alcotest.(check string) (what ^ " horizontal") (str want "horizontal")
            (digest h);
          check "groups_merged" hs.Horizontal.groups_merged;
          check "tes_eliminated" hs.Horizontal.tes_eliminated;
          Alcotest.(check string) (what ^ " vertical") (str want "vertical")
            (digest v);
          check "chains_fused" vs.Vertical.chains_fused;
          check "movement_folded" vs.Vertical.movement_folded;
          check "tes_out" (List.length v.Program.tes))
        oracle_variants)
    Zoo.all

(* --- qcheck: random elementwise DAGs survive both transforms --------- *)

let random_program (seed : int) : Program.t =
  let rng = Rng.create seed in
  let shape = [| 4; 6 |] in
  let n = 3 + Rng.int rng ~bound:6 in
  let tensors = ref [ "in0"; "in1" ] in
  let tes = ref [] in
  for i = 0 to n - 1 do
    let pick () =
      List.nth !tensors (Rng.int rng ~bound:(List.length !tensors))
    in
    let name = Fmt.str "t%d" i in
    let te =
      match Rng.int rng ~bound:6 with
      | 0 -> Builder.unary ~name ~shape Relu (pick ())
      | 1 -> Builder.unary ~name ~shape Sigmoid (pick ())
      | 2 -> Builder.binary ~name ~shape Add (pick ()) (pick ())
      | 3 -> Builder.binary ~name ~shape Mul (pick ()) (pick ())
      | 4 ->
          Builder.permute ~name ~in_shape:[| 4; 6 |] ~perm:[| 0; 1 |] (pick ())
      | _ ->
          Builder.matmul ~name ~m:4 ~n:6 ~k:6
            (pick ())
            "w" (* fixed weight input *)
    in
    tensors := name :: !tensors;
    tes := te :: !tes
  done;
  let last = List.hd !tensors in
  Program.make
    ~inputs:
      [ input "in0" shape; input "in1" shape; input "w" [| 6; 6 |] ]
    ~tes:(List.rev !tes) ~outputs:[ last ]

let qcheck_transforms_preserve_semantics =
  QCheck.Test.make ~name:"horizontal+vertical preserve semantics on random DAGs"
    ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = random_program seed in
      match Program.validate p with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
          let p1, _ = Horizontal.apply p in
          let p2, _ = Vertical.apply p1 in
          (match Program.validate p2 with
          | Error m -> QCheck.Test.fail_reportf "invalid after transform: %s" m
          | Ok () -> ());
          (match Interp.equivalent ~rtol:1e-4 ~seed p p2 with
          | Ok () -> true
          | Error m -> QCheck.Test.fail_reportf "not equivalent: %s" m))

let suite =
  [
    Alcotest.test_case "vertical fig4" `Quick test_vertical_fig4;
    Alcotest.test_case "vertical elementwise chain" `Quick
      test_vertical_chain_of_elementwise;
    Alcotest.test_case "vertical movement into reduce" `Quick
      test_vertical_movement_into_reduce;
    Alcotest.test_case "vertical fold flag" `Quick test_vertical_respects_flag;
    Alcotest.test_case "vertical keeps shared arith" `Quick
      test_vertical_keeps_shared_arith;
    Alcotest.test_case "vertical keeps outputs" `Quick
      test_vertical_keeps_outputs;
    Alcotest.test_case "vertical reshape roundtrip" `Quick
      test_vertical_reshape_roundtrip;
    Alcotest.test_case "horizontal fig3" `Quick test_horizontal_fig3;
    Alcotest.test_case "horizontal qkv spatial reuse" `Quick
      test_horizontal_same_input_spatial_reuse;
    Alcotest.test_case "horizontal dependent not merged" `Quick
      test_horizontal_dependent_not_merged;
    Alcotest.test_case "horizontal outputs not merged" `Quick
      test_horizontal_outputs_not_merged;
    Alcotest.test_case "horizontal then vertical" `Quick
      test_horizontal_then_vertical;
    Alcotest.test_case "vertical shared producer inlined later" `Quick
      test_vertical_shared_becomes_single;
    Alcotest.test_case "vertical movement absorbs arith" `Quick
      test_vertical_movement_absorbs_arith;
    Alcotest.test_case "vertical round cap" `Quick test_vertical_round_cap;
    Alcotest.test_case "horizontal rejects undefined read" `Quick
      test_horizontal_rejects_undefined_read;
    Alcotest.test_case "transform oracle" `Slow test_transform_oracle;
    QCheck_alcotest.to_alcotest qcheck_transforms_preserve_semantics;
  ]
