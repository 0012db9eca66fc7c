let () =
  Alcotest.run "ims"
    [
      Test_machine.tests;
      Test_graph.tests;
      Test_ir.tests;
      Test_mii.tests;
      Test_core.tests;
      Test_hotpath.tests;
      Test_pipeline.tests;
      Test_workloads.tests;
      Test_stats.tests;
      Test_obs.tests;
      Test_runobs.tests;
      Test_check.tests;
      Test_exec.tests;
      Test_resilience.tests;
      Test_run.tests;
      Test_fleet.tests;
      Test_serve.tests;
      Test_integration.tests;
    ]
