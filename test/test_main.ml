let () =
  Alcotest.run "souffle"
    [
      ("tensor", Test_tensor.suite);
      ("index", Test_index.suite);
      ("te", Test_te.suite);
      ("transform", Test_transform.suite);
      ("graph", Test_graph.suite);
      ("analysis", Test_analysis.suite);
      ("gpu", Test_gpu.suite);
      ("dataflow", Test_dataflow.suite);
      ("kernelgen", Test_kernelgen.suite);
      ("schedule", Test_schedule.suite);
      ("models", Test_models.suite);
      ("gpt", Test_gpt.suite);
      ("pipeline", Test_pipeline.suite);
      ("robustness", Test_robustness.suite);
      ("baselines", Test_baselines.suite);
      ("extensions", Test_extensions.suite);
      ("serialize", Test_serialize.suite);
      ("tir", Test_tir.suite);
      ("obs", Test_obs.suite);
      ("batch", Test_batch.suite);
      ("serve", Test_serve.suite);
      ("perf", Test_perf.suite);
      ("mega", Test_mega.suite);
    ]
