(* Tests for the kernel-generation layer: the LRU shared-memory cache of
   §6.5 (including a qcheck model-based test), stage building, sync
   insertion, traffic accounting and the CUDA renderer. *)

let f32 = Dtype.F32
let input name shape = (name, { Program.shape; dtype = f32 })

(* ------------------ Reuse_cache ------------------ *)

let test_lru_hit_miss () =
  let c = Reuse_cache.create ~capacity:100 in
  Alcotest.(check bool) "miss on empty" true (Reuse_cache.touch c "a" = Reuse_cache.Miss);
  ignore (Reuse_cache.insert c ~tensor:"a" ~bytes:40 ~dirty:false);
  Alcotest.(check bool) "hit after insert" true
    (Reuse_cache.touch c "a" = Reuse_cache.Hit)

let test_lru_eviction_order () =
  let c = Reuse_cache.create ~capacity:100 in
  ignore (Reuse_cache.insert c ~tensor:"a" ~bytes:40 ~dirty:true);
  ignore (Reuse_cache.insert c ~tensor:"b" ~bytes:40 ~dirty:true);
  (* touch a so b becomes LRU *)
  ignore (Reuse_cache.touch c "a");
  (match Reuse_cache.insert c ~tensor:"c" ~bytes:40 ~dirty:false with
  | Reuse_cache.Spilled [ ("b", 40) ] -> ()
  | Reuse_cache.Spilled l ->
      Alcotest.failf "wrong victims: %s"
        (String.concat "," (List.map fst l))
  | _ -> Alcotest.fail "expected a spill");
  Alcotest.(check bool) "a kept" true (Reuse_cache.mem c "a");
  Alcotest.(check bool) "b gone" false (Reuse_cache.mem c "b")

let test_lru_clean_not_spilled () =
  let c = Reuse_cache.create ~capacity:80 in
  ignore (Reuse_cache.insert c ~tensor:"a" ~bytes:40 ~dirty:false);
  (match Reuse_cache.insert c ~tensor:"b" ~bytes:80 ~dirty:true with
  | Reuse_cache.Spilled [] | Reuse_cache.Inserted -> ()
  | Reuse_cache.Spilled l ->
      Alcotest.failf "clean victim written back: %s"
        (String.concat "," (List.map fst l))
  | _ -> Alcotest.fail "unexpected");
  Alcotest.(check bool) "a evicted" false (Reuse_cache.mem c "a")

let test_lru_rejects_oversized () =
  let c = Reuse_cache.create ~capacity:10 in
  Alcotest.(check bool) "rejected" true
    (Reuse_cache.insert c ~tensor:"x" ~bytes:11 ~dirty:true = Reuse_cache.Rejected)

let test_lru_clear () =
  let c = Reuse_cache.create ~capacity:100 in
  ignore (Reuse_cache.insert c ~tensor:"a" ~bytes:40 ~dirty:true);
  Reuse_cache.clear c;
  Alcotest.(check int) "empty" 0 (Reuse_cache.used c);
  Alcotest.(check bool) "a gone" false (Reuse_cache.mem c "a")

(* model-based qcheck: the cache against a naive reference implementation *)
let qcheck_lru_model =
  QCheck.Test.make ~name:"LRU cache agrees with reference model" ~count:300
    QCheck.(
      list
        (pair (int_range 0 5) (* tensor id *)
           (pair (int_range 1 50) (* bytes *) bool (* insert? *))))
    (fun ops ->
      let capacity = 100 in
      let c = Reuse_cache.create ~capacity in
      (* reference: list of (tensor, bytes), most recent first *)
      let model = ref [] in
      let model_used () = List.fold_left (fun a (_, b) -> a + b) 0 !model in
      let ok = ref true in
      List.iter
        (fun (id, (bytes, is_insert)) ->
          let name = string_of_int id in
          if is_insert then begin
            ignore (Reuse_cache.insert c ~tensor:name ~bytes ~dirty:false);
            if bytes <= capacity then begin
              if List.mem_assoc name !model then
                model := (name, List.assoc name !model)
                         :: List.remove_assoc name !model
              else begin
                model := (name, bytes) :: !model;
                while model_used () > capacity do
                  model := List.rev (List.tl (List.rev !model))
                done
              end
            end
          end
          else begin
            let hit = Reuse_cache.touch c name = Reuse_cache.Hit in
            let model_hit = List.mem_assoc name !model in
            if hit <> model_hit then ok := false;
            if model_hit then
              model := (name, List.assoc name !model)
                       :: List.remove_assoc name !model
          end;
          if Reuse_cache.used c <> model_used () then ok := false)
        ops;
      !ok)

(* The association-list LRU [Reuse_cache] used to be, kept as the
   reference model for the differential test below: same events, same
   victim lists in the same order, same [used], same [resident] order. *)
module Ref_lru = struct
  type entry = { tensor : string; bytes : int; mutable dirty : bool }
  type t = { capacity : int; mutable used : int; mutable lru : entry list }

  let create ~capacity = { capacity; used = 0; lru = [] }
  let mem t tensor = List.exists (fun e -> e.tensor = tensor) t.lru
  let find t tensor = List.find_opt (fun e -> e.tensor = tensor) t.lru
  let resident t = List.map (fun e -> e.tensor) t.lru

  let promote t tensor =
    match List.partition (fun e -> e.tensor = tensor) t.lru with
    | [ e ], rest -> t.lru <- e :: rest
    | _ -> ()

  let touch t tensor =
    if mem t tensor then begin
      promote t tensor;
      Reuse_cache.Hit
    end
    else Reuse_cache.Miss

  let evict_for t need =
    let rec go spilled =
      if t.used + need <= t.capacity then List.rev spilled
      else
        match List.rev t.lru with
        | [] -> List.rev spilled
        | victim :: _ ->
            t.lru <- List.filter (fun e -> e.tensor <> victim.tensor) t.lru;
            t.used <- t.used - victim.bytes;
            go
              (if victim.dirty then (victim.tensor, victim.bytes) :: spilled
               else spilled)
    in
    go []

  let insert t ~tensor ~bytes ~dirty =
    if bytes > t.capacity then Reuse_cache.Rejected
    else if mem t tensor then begin
      promote t tensor;
      (match find t tensor with
      | Some e -> e.dirty <- e.dirty || dirty
      | None -> ());
      Reuse_cache.Hit
    end
    else begin
      let victims = evict_for t bytes in
      t.lru <- { tensor; bytes; dirty } :: t.lru;
      t.used <- t.used + bytes;
      if victims = [] then Reuse_cache.Inserted else Reuse_cache.Spilled victims
    end

  let clean t tensor =
    match find t tensor with Some e -> e.dirty <- false | None -> ()

  let clear t =
    t.lru <- [];
    t.used <- 0
end

type lru_op =
  | Touch of int
  | Insert of int * int * bool  (* tensor id, bytes, dirty *)
  | Clean of int
  | Clear

let show_lru_op = function
  | Touch i -> Printf.sprintf "touch %d" i
  | Insert (i, b, d) -> Printf.sprintf "insert %d %dB%s" i b (if d then " dirty" else "")
  | Clean i -> Printf.sprintf "clean %d" i
  | Clear -> "clear"

(* A few tensor names, so sequences keep re-touching and re-inserting
   resident tensors; sizes up to past the capacity, so inserts evict
   (several victims at once for the big ones) and are sometimes
   rejected. *)
let lru_op_gen ~names ~capacity =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Touch i) (int_bound (names - 1)));
        ( 6,
          map3
            (fun i b d -> Insert (i, b, d))
            (int_bound (names - 1))
            (int_bound (capacity + (capacity / 4)))
            bool );
        (2, map (fun i -> Clean i) (int_bound (names - 1)));
        (1, return Clear);
      ])

let qcheck_lru_differential =
  let capacity = 256 in
  QCheck.Test.make ~name:"reuse cache matches the list LRU"
    ~count:500
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_lru_op ops))
        Gen.(list_size (int_range 0 200) (lru_op_gen ~names:12 ~capacity)))
    (fun ops ->
      let c = Reuse_cache.create ~capacity in
      let r = Ref_lru.create ~capacity in
      List.for_all
        (fun op ->
          let name i = "t" ^ string_of_int i in
          let agree =
            match op with
            | Touch i -> Reuse_cache.touch c (name i) = Ref_lru.touch r (name i)
            | Insert (i, bytes, dirty) ->
                Reuse_cache.insert c ~tensor:(name i) ~bytes ~dirty
                = Ref_lru.insert r ~tensor:(name i) ~bytes ~dirty
            | Clean i ->
                Reuse_cache.clean c (name i);
                Ref_lru.clean r (name i);
                true
            | Clear ->
                Reuse_cache.clear c;
                Ref_lru.clear r;
                true
          in
          agree
          && Reuse_cache.used c = r.Ref_lru.used
          && Reuse_cache.resident c = Ref_lru.resident r
          && List.for_all
               (fun i -> Reuse_cache.mem c (name i) = Ref_lru.mem r (name i))
               (List.init 12 Fun.id))
        ops)

(* ------------------ Emit ------------------ *)

let simple_program () =
  (* gemm -> relu -> gemm, plus a reduction consumer *)
  let a = input "a" [| 32; 32 |] and b = input "b" [| 32; 32 |] in
  let c = input "c" [| 32; 32 |] in
  let g1 = Builder.matmul ~tag:"matmul" ~name:"g1" ~m:32 ~n:32 ~k:32 "a" "b" in
  let r = Builder.unary ~name:"r" ~shape:[| 32; 32 |] Expr.Relu "g1" in
  let g2 = Builder.matmul ~tag:"matmul" ~name:"g2" ~m:32 ~n:32 ~k:32 "r" "c" in
  let s = Builder.reduce_last ~name:"s" ~m:32 ~k:32 Te.Sum "g2" in
  Program.make ~inputs:[ a; b; c ] ~tes:[ g1; r; g2; s ] ~outputs:[ "s" ]

let emit_simple ?(opts = Emit.default_options) groups =
  let p = simple_program () in
  let an = Analysis.run p in
  let scheds = Ansor.schedule_program Device.a100 p in
  Emit.emit Device.a100 p an scheds opts groups

let all_in_one_group p =
  [ { Emit.g_tes = List.map (fun (te : Te.t) -> te.Te.name) p.Program.tes;
      cooperative = true; library_call = false; eff_override = None } ]

let test_emit_one_kernel_per_group () =
  let p = simple_program () in
  let prog = emit_simple (all_in_one_group p) in
  Alcotest.(check int) "one kernel" 1 (List.length prog.Kernel_ir.kernels)

let test_emit_sync_between_dependent_stages () =
  let p = simple_program () in
  let prog = emit_simple (all_in_one_group p) in
  let k = List.hd prog.Kernel_ir.kernels in
  (* g1 -> g2 -> s: at least 2 dependent stage boundaries *)
  Alcotest.(check bool) "grid syncs inserted" true
    (Kernel_ir.num_grid_syncs k >= 2)

let test_emit_no_sync_in_noncoop () =
  let p = simple_program () in
  let groups =
    List.map
      (fun (te : Te.t) ->
        { Emit.g_tes = [ te.Te.name ]; cooperative = false;
          library_call = false; eff_override = None })
      p.Program.tes
  in
  let prog = emit_simple groups in
  List.iter
    (fun k ->
      Alcotest.(check int) "no syncs" 0 (Kernel_ir.num_grid_syncs k))
    prog.Kernel_ir.kernels

let test_intermediate_elided_in_fused_kernel () =
  (* when everything is one kernel with the reuse cache, the intermediate
     tensors never touch DRAM: only a, b, c in and s out *)
  let p = simple_program () in
  let prog = emit_simple (all_in_one_group p) in
  let sim = Sim.run Device.a100 prog in
  let bytes_in = 3 * 32 * 32 * 4 in
  Alcotest.(check int) "only external inputs read" bytes_in
    sim.Sim.total.Counters.dram_read_bytes;
  (* s (32 floats) is the only store, plus possibly atomics *)
  Alcotest.(check bool) "stores bounded by output + partials" true
    (sim.Sim.total.Counters.dram_write_bytes <= 32 * 4)

let test_unfused_pays_roundtrips () =
  let p = simple_program () in
  let fused = Sim.run Device.a100 (emit_simple (all_in_one_group p)) in
  let groups =
    List.map
      (fun (te : Te.t) ->
        { Emit.g_tes = [ te.Te.name ]; cooperative = false;
          library_call = false; eff_override = None })
      p.Program.tes
  in
  let unfused =
    Sim.run Device.a100
      (emit_simple ~opts:{ Emit.default_options with Emit.reuse_cache = false } groups)
  in
  (* intermediates fit A100's L2, so unfused round trips surface as extra
     L2 traffic (re-reads of produced tensors), not extra DRAM first
     touches *)
  let off_chip (s : Sim.result) =
    s.Sim.total.Counters.dram_read_bytes
    + s.Sim.total.Counters.l2_read_bytes
  in
  Alcotest.(check bool) "unfused reads more off-chip" true
    (off_chip unfused > off_chip fused);
  Alcotest.(check bool) "unfused launches more kernels" true
    (unfused.Sim.total.Counters.kernel_launches
    > fused.Sim.total.Counters.kernel_launches)

let test_build_stages_epilogue () =
  let p = simple_program () in
  let tes = p.Program.tes in
  let stages = Emit.build_stages Emit.default_options tes in
  (* r attaches to g1's stage: 3 stages (g1+r, g2, s) *)
  Alcotest.(check int) "3 stages" 3 (List.length stages);
  let first = List.map (fun (te : Te.t) -> te.Te.name) (List.hd stages) in
  Alcotest.(check (list string)) "g1 and r fused" [ "g1"; "r" ] first

let test_build_stages_no_attach () =
  let p = simple_program () in
  let opts =
    { Emit.default_options with Emit.attach_epilogue = false;
      attach_prologue = false }
  in
  let stages = Emit.build_stages opts p.Program.tes in
  Alcotest.(check int) "4 stages" 4 (List.length stages)

let test_codegen_renders () =
  let p = simple_program () in
  let prog = emit_simple (all_in_one_group p) in
  let src = Codegen_cuda.to_string prog in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Astring_contains.contains src needle))
    [ "__global__"; "grid.sync()"; "wmma_16x16" ]

let suite =
  [
    Alcotest.test_case "lru hit/miss" `Quick test_lru_hit_miss;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru clean not spilled" `Quick test_lru_clean_not_spilled;
    Alcotest.test_case "lru rejects oversized" `Quick test_lru_rejects_oversized;
    Alcotest.test_case "lru clear" `Quick test_lru_clear;
    QCheck_alcotest.to_alcotest qcheck_lru_model;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      qcheck_lru_differential;
    Alcotest.test_case "emit one kernel per group" `Quick
      test_emit_one_kernel_per_group;
    Alcotest.test_case "emit sync between stages" `Quick
      test_emit_sync_between_dependent_stages;
    Alcotest.test_case "emit no sync in noncoop" `Quick
      test_emit_no_sync_in_noncoop;
    Alcotest.test_case "intermediates elided" `Quick
      test_intermediate_elided_in_fused_kernel;
    Alcotest.test_case "unfused pays roundtrips" `Quick
      test_unfused_pays_roundtrips;
    Alcotest.test_case "build stages epilogue" `Quick test_build_stages_epilogue;
    Alcotest.test_case "build stages no attach" `Quick test_build_stages_no_attach;
    Alcotest.test_case "codegen renders" `Quick test_codegen_renders;
  ]
