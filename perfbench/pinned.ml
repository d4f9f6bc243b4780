(* The simulated outputs every workload must reproduce at seed 42: the
   run digest (final clock, events and every machine statistic), the
   requests completed in the measurement window, and the events fired.
   A run at seed 42 that differs is a failed run.  A change that alters
   simulated behaviour on purpose updates these from the harness's
   printed outputs, and the diff shows it. *)

type t = { digest : string; ops : int; events : int }

let seed = 42

let outputs =
  [
    ("counting_cp", { digest = "ff833c367ba25d74901ce0e94021fdf2"; ops = 409_156; events = 17_186_250 });
    ("btree_cp", { digest = "0e3ce3047c3860710a00e530b2f7fc0b"; ops = 566_507; events = 12_703_097 });
    ("dht_zipf_rpc", { digest = "f9f29056bb2e9ea2e9ef44849bf21c37"; ops = 313_951; events = 3_928_907 });
    ( "social_walk_mig",
      { digest = "c0436aca3ac54b1e6e1b7cc63f90ebed"; ops = 116_699; events = 7_581_222 } );
  ]
