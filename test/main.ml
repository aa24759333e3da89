let () =
  Seed.banner ();
  Alcotest.run "eden"
    [
      ("util", Test_util.suite);
      ("slab", Test_slab.suite);
      ("sched", Test_sched.suite);
      ("net", Test_net.suite);
      ("kernel", Test_kernel.suite);
      ("transput", Test_transput.suite);
      ("fs", Test_fs.suite);
      ("dirsvc", Test_dirsvc.suite);
      ("filters", Test_filters.suite);
      ("devices", Test_devices.suite);
      ("shell", Test_shell.suite);
      ("stdio", Test_stdio.suite);
      ("codec", Test_codec.suite);
      ("flow", Test_flow.suite);
      ("flowctl", Test_flowctl.suite);
      ("failures", Test_failures.suite);
      ("resil", Test_resil.suite);
      ("elastic", Test_elastic.suite);
      ("trace", Test_trace.suite);
      ("obs", Test_obs.suite);
      ("redirect", Test_redirect.suite);
      ("edenfs", Test_edenfs.suite);
      ("sed", Test_sed.suite);
      ("namespace", Test_namespace.suite);
      ("port-intake", Test_port_intake.suite);
      ("integration", Test_integration.suite);
      ("properties", Test_properties.suite);
      ("determinism", Test_determinism.suite);
      ("chunk", Test_chunk.suite);
      ("tenant", Test_tenant.suite);
      ("topo", Test_topo.suite);
      (* wire before par: the wire cluster forks leaf processes, and the
         OCaml 5 runtime forbids Unix.fork once any domain has ever been
         spawned — par's Domain.spawn must come after every fork.  The
         chunk-equiv suite has cases in both camps, so it sits between
         them with its wire cases listed before its parallel ones. *)
      ("wire", Test_wire.suite);
      ("chunk-equiv", Test_chunk_equiv.suite);
      ("par", Test_par.suite);
      ("capacity", Test_capacity.suite);
      ("check", Test_check.suite);
    ]
