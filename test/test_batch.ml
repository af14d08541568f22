(* Tests for shape-polymorphic batching: the Batch TE transform and its
   path through the compiler.  The contracts: batch 1 is the identity (the
   same physical program), every lane of a batched program computes the
   unbatched outputs, and bucketed recompiles hit the persistent schedule
   cache instead of re-searching. *)

let tiny_zoo () =
  List.map (fun (e : Zoo.entry) -> (e.Zoo.name, Lower.run (e.Zoo.tiny ()))) Zoo.all

let test_batch1_is_identity () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool)
        (name ^ ": batch 1 returns the program physically unchanged")
        true
        (Batch.apply ~batch:1 p == p))
    (tiny_zoo ())

let test_batched_program_validates () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun b ->
          let pb = Batch.apply ~batch:b p in
          (match Program.validate pb with
          | Ok () -> ()
          | Error m ->
              Alcotest.fail (Fmt.str "%s at batch %d invalid: %s" name b m));
          List.iter2
            (fun (te : Te.t) (tb : Te.t) ->
              Alcotest.(check int)
                (Fmt.str "%s/%s: leading axis is the batch" name te.Te.name)
                b tb.Te.out_shape.(0);
              Alcotest.(check int)
                (Fmt.str "%s/%s: rank grew by one" name te.Te.name)
                (Te.rank te + 1) (Te.rank tb))
            p.Program.tes pb.Program.tes)
        [ 2; 4 ])
    (tiny_zoo ())

let test_invalid_batch_rejected () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  Alcotest.check_raises "batch 0 rejected" (Invalid_argument
    "Batch.apply: batch must be >= 1") (fun () ->
      ignore (Batch.apply ~batch:0 p));
  match Souffle.compile_result ~cfg:{ Souffle.default_config with Souffle.batch = 0 } p with
  | Ok _ -> Alcotest.fail "compile_result accepted batch 0"
  | Error _ -> ()

(* every lane of every batched output equals the unbatched output: the
   replicated-broadcast semantics the scheduler's split/merge relies on *)
let test_lanes_equal_unbatched () =
  let p = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let b = 3 in
  let pb = Batch.apply ~batch:b p in
  let inputs = Interp.random_inputs ~seed:7 p in
  let base = Interp.run p inputs in
  let batched = Interp.run pb inputs in
  List.iter
    (fun (name, (nd : Nd.t)) ->
      let ndb = List.assoc name batched in
      let n = Shape.numel nd.Nd.shape in
      Alcotest.(check int)
        (name ^ ": batched output holds every lane")
        (b * n)
        (Shape.numel ndb.Nd.shape);
      for lane = 0 to b - 1 do
        for i = 0 to n - 1 do
          if nd.Nd.data.(i) <> ndb.Nd.data.((lane * n) + i) then
            Alcotest.fail
              (Fmt.str "%s lane %d element %d: %.9g <> %.9g" name lane i
                 nd.Nd.data.(i)
                 ndb.Nd.data.((lane * n) + i))
        done
      done)
    base

(* batched compiles land in their own artifact-store slots; batch 1 shares
   the unbatched slot *)
let test_artifact_store_batch_keys () =
  let store = Souffle.Artifacts.create () in
  let gen () = Lower.run (Mmoe.create ~cfg:Mmoe.tiny ()) in
  let get batch =
    match
      Souffle.Artifacts.get store
        ~cfg:(Souffle.config ~batch ())
        ~name:"mmoe" gen
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail (Fmt.str "compile at batch %d failed" batch)
  in
  let r1 = get 1 in
  let r2 = get 2 in
  let r1' = get 1 in
  Alcotest.(check bool) "batch 1 memoized" true (r1 == r1');
  Alcotest.(check bool) "batch 2 is a distinct artifact" true (r1 != r2);
  Alcotest.(check int) "two entries stored" 2 (Souffle.Artifacts.size store);
  Alcotest.(check int) "batched leading axis reached the pipeline" 2
    (List.hd r2.Souffle.original.Program.tes).Te.out_shape.(0)

let suite =
  [
    Alcotest.test_case "batch=1 is the identity" `Quick test_batch1_is_identity;
    Alcotest.test_case "batched programs validate" `Quick
      test_batched_program_validates;
    Alcotest.test_case "invalid batch rejected" `Quick
      test_invalid_batch_rejected;
    Alcotest.test_case "lanes equal unbatched outputs" `Quick
      test_lanes_equal_unbatched;
    Alcotest.test_case "artifact store keys on batch" `Quick
      test_artifact_store_batch_keys;
  ]
