(* Wb_obs.Prof (phase profiling) and the OpenMetrics exposition.

   The metrics registry is process-global, so every test here uses its own
   metric names and leaves the profiler disabled on exit; the golden and
   grammar tests go through Openmetrics.of_json on synthetic envelopes and
   never touch the registry at all. *)

module Obs = Wb_obs
module M = Wb_obs.Metrics
module J = Wb_obs.Json

let check msg = Alcotest.(check bool) msg true

let histograms () =
  match J.member "histograms" (M.dump_json ()) with
  | Some (J.Obj kvs) -> List.map fst kvs
  | _ -> []

let prefixed prefix names =
  List.filter
    (fun n ->
      String.length n >= String.length prefix && String.sub n 0 (String.length prefix) = prefix)
    names

(* --- Prof ------------------------------------------------------------- *)

let prof_tests =
  [ Alcotest.test_case "a disabled phase registers nothing" `Quick (fun () ->
        Obs.Prof.disable ();
        let s = Obs.Prof.site "test.disabled" in
        let hits = ref 0 in
        let v = Obs.Prof.phase s (fun () -> incr hits; 41 + 1) in
        Alcotest.(check int) "closure ran" 1 !hits;
        Alcotest.(check int) "value passes through" 42 v;
        check "no prof.test.disabled.* series exist"
          (prefixed "prof.test.disabled." (histograms ()) = []));
    Alcotest.test_case "an enabled phase records all four series" `Quick (fun () ->
        let s = Obs.Prof.site "test.enabled" in
        Obs.Prof.enable ();
        check "is_enabled reflects enable" (Obs.Prof.is_enabled ());
        let v = Obs.Prof.phase s (fun () -> Array.make 2048 0 |> Array.length) in
        Obs.Prof.disable ();
        check "is_enabled reflects disable" (not (Obs.Prof.is_enabled ()));
        Alcotest.(check int) "value passes through" 2048 v;
        let names = prefixed "prof.test.enabled." (histograms ()) in
        List.iter
          (fun series ->
            check (series ^ " is registered")
              (List.mem ("prof.test.enabled." ^ series) names))
          [ "us"; "minor_words"; "promoted_words"; "major_collections" ]);
    Alcotest.test_case "a raising phase is still observed, exception intact" `Quick (fun () ->
        let s = Obs.Prof.site "test.raises" in
        Obs.Prof.enable ();
        let raised =
          match Obs.Prof.phase s (fun () -> failwith "boom") with
          | _ -> false
          | exception Failure m -> m = "boom"
        in
        Obs.Prof.disable ();
        check "the exception propagates unchanged" raised;
        check "the raising run was observed"
          (prefixed "prof.test.raises." (histograms ()) <> []));
    Alcotest.test_case "re-disabling stops recording without unregistering" `Quick (fun () ->
        let s = Obs.Prof.site "test.stopped" in
        Obs.Prof.enable ();
        ignore (Obs.Prof.phase s (fun () -> ()));
        Obs.Prof.disable ();
        let before = List.length (prefixed "prof.test.stopped." (histograms ())) in
        ignore (Obs.Prof.phase s (fun () -> ()));
        let after = List.length (prefixed "prof.test.stopped." (histograms ())) in
        Alcotest.(check int) "series survive, none added" before after;
        check "the series had been registered while enabled" (before > 0)) ]

(* --- percentiles ------------------------------------------------------- *)

let percentile_tests =
  [ Alcotest.test_case "percentile_opt on an empty histogram is None" `Quick (fun () ->
        let h = M.histogram "test.pct.empty" in
        check "None when empty" (M.percentile_opt h 50. = None);
        Alcotest.(check int) "wrapper defaults to 0" 0 (M.percentile h 50.));
    Alcotest.test_case "percentile_opt walks the log buckets" `Quick (fun () ->
        let h = M.histogram "test.pct.filled" in
        List.iter (M.observe h) [ 0; 3; 10 ];
        check "p0 is the zero bucket" (M.percentile_opt h 0. = Some 0);
        check "p50 lands on the middle observation's bucket bound"
          (M.percentile_opt h 50. = Some 3);
        check "p100 is clamped to the observed max" (M.percentile_opt h 100. = Some 10);
        Alcotest.(check int) "wrapper agrees when populated" 3 (M.percentile h 50.));
    Alcotest.test_case "percentile_opt rejects p outside [0,100]" `Quick (fun () ->
        let h = M.histogram "test.pct.range" in
        M.observe h 1;
        List.iter
          (fun p ->
            check (Printf.sprintf "p = %g raises" p)
              (match M.percentile_opt h p with
              | exception Invalid_argument _ -> true
              | _ -> false))
          [ -1.; 100.5; Float.nan ]) ]

(* --- OpenMetrics ------------------------------------------------------- *)

let ints l = J.List (List.map (fun i -> J.Int i) l)

let golden_envelope =
  J.Obj
    [ ( "counters",
        J.Obj
          [ ("engine.runs", J.Int 3); ("9weird name", J.Int 1); ("cost.total_bits", J.Int 45) ] );
      ("gauges", J.Obj [ ("engine.board_bits", J.Int 17); ("cost.board_bits", J.Int 45) ]);
      ( "histograms",
        J.Obj
          [ ( "net.rpc.activate_us",
              J.Obj
                [ ("count", J.Int 5); ("sum", J.Int 30); ("min", J.Int 0); ("max", J.Int 15);
                  ("p50", J.Int 3); ("p95", J.Int 15); ("p99", J.Int 15);
                  ("buckets", J.List [ ints [ 1; 1 ]; ints [ 4; 2 ]; ints [ 16; 2 ] ]) ] );
            ( "empty.hist",
              J.Obj
                [ ("count", J.Int 0); ("sum", J.Int 0); ("min", J.Null); ("max", J.Null);
                  ("p50", J.Null); ("p95", J.Null); ("p99", J.Null); ("buckets", J.List []) ]
            );
            ( "cost.message_bits",
              J.Obj
                [ ("count", J.Int 3); ("sum", J.Int 17); ("min", J.Int 3); ("max", J.Int 9);
                  ("p50", J.Int 5); ("p95", J.Int 9); ("p99", J.Int 9);
                  ("buckets", J.List [ ints [ 4; 1 ]; ints [ 8; 1 ]; ints [ 16; 1 ] ]) ] ) ] )
    ]

let golden_help = function
  | "engine.runs" -> "completed runs"
  | "9weird name" -> "a \"quoted\" back\\slash\nname"
  | "cost.total_bits" -> "bits appended to boards (cost ledger)"
  | _ -> ""

let golden_expected =
  String.concat "\n"
    [ "# HELP engine_runs completed runs";
      "# TYPE engine_runs counter";
      "engine_runs_total 3";
      "# HELP _9weird_name a \"quoted\" back\\\\slash\\nname";
      "# TYPE _9weird_name counter";
      "_9weird_name_total 1";
      "# HELP cost_total_bits bits appended to boards (cost ledger)";
      "# TYPE cost_total_bits counter";
      "cost_total_bits_total 45";
      "# TYPE engine_board_bits gauge";
      "engine_board_bits 17";
      "# TYPE cost_board_bits gauge";
      "cost_board_bits 45";
      "# TYPE net_rpc_activate_us histogram";
      "net_rpc_activate_us_bucket{le=\"0\"} 1";
      "net_rpc_activate_us_bucket{le=\"3\"} 3";
      "net_rpc_activate_us_bucket{le=\"15\"} 5";
      "net_rpc_activate_us_bucket{le=\"+Inf\"} 5";
      "net_rpc_activate_us_sum 30";
      "net_rpc_activate_us_count 5";
      "# TYPE net_rpc_activate_us_quantile gauge";
      "net_rpc_activate_us_quantile{quantile=\"0.5\"} 3";
      "net_rpc_activate_us_quantile{quantile=\"0.95\"} 15";
      "net_rpc_activate_us_quantile{quantile=\"0.99\"} 15";
      "# TYPE empty_hist histogram";
      "empty_hist_bucket{le=\"+Inf\"} 0";
      "empty_hist_sum 0";
      "empty_hist_count 0";
      "# TYPE cost_message_bits histogram";
      "cost_message_bits_bucket{le=\"3\"} 1";
      "cost_message_bits_bucket{le=\"7\"} 2";
      "cost_message_bits_bucket{le=\"15\"} 3";
      "cost_message_bits_bucket{le=\"+Inf\"} 3";
      "cost_message_bits_sum 17";
      "cost_message_bits_count 3";
      "# TYPE cost_message_bits_quantile gauge";
      "cost_message_bits_quantile{quantile=\"0.5\"} 5";
      "cost_message_bits_quantile{quantile=\"0.95\"} 9";
      "cost_message_bits_quantile{quantile=\"0.99\"} 9";
      "# EOF";
      "" ]

let gen_weird_string =
  QCheck.Gen.(string_size ~gen:(map Char.chr (oneofl [ 34; 92; 10; 97; 58; 46; 48; 32 ])) (0 -- 12))

let om_tests =
  [ Alcotest.test_case "golden exposition of a populated envelope" `Quick (fun () ->
        let got = M.Openmetrics.of_json ~help:golden_help golden_envelope in
        Alcotest.(check string) "byte-exact rendering" golden_expected got;
        check "the golden text passes the validator"
          (M.Openmetrics.validate got = Ok ()));
    Alcotest.test_case "an empty envelope renders as a bare terminator" `Quick (fun () ->
        let got = M.Openmetrics.of_json (J.Obj []) in
        Alcotest.(check string) "just # EOF" "# EOF\n" got;
        check "and validates" (M.Openmetrics.validate got = Ok ()));
    Alcotest.test_case "sanitize_name maps onto the exposition grammar" `Quick (fun () ->
        Alcotest.(check string) "dots become underscores" "engine_runs"
          (M.Openmetrics.sanitize_name "engine.runs");
        Alcotest.(check string) "leading digits gain a prefix" "_9weird_name"
          (M.Openmetrics.sanitize_name "9weird name");
        Alcotest.(check string) "empty names survive" "_" (M.Openmetrics.sanitize_name ""));
    Alcotest.test_case "the registry dump validates end to end" `Quick (fun () ->
        ignore (M.counter ~help:"for the exposition test" "test.om.counter");
        let h = M.histogram "test.om.hist" in
        List.iter (M.observe h) [ 1; 7; 900 ];
        match M.Openmetrics.validate (M.dump_openmetrics ()) with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "registry exposition rejected: %s" msg);
    Prop.qtest
      (QCheck.Test.make ~count:300
         ~name:"arbitrary names and help strings always render a valid exposition"
         (QCheck.make
            ~print:(fun (a, b, c) -> Printf.sprintf "%S %S %S" a b c)
            QCheck.Gen.(triple gen_weird_string gen_weird_string gen_weird_string))
         (fun (name, help_text, gname) ->
           let envelope =
             J.Obj
               [ ("counters", J.Obj [ (name, J.Int 7) ]);
                 ("gauges", J.Obj [ (gname, J.Int (-3)) ]) ]
           in
           let help n = if n = name then help_text else "" in
           match M.Openmetrics.validate (M.Openmetrics.of_json ~help envelope) with
           | Ok () -> true
           | Error _ -> false)) ]

let suites =
  [ ("obs.prof", prof_tests); ("obs.percentile", percentile_tests); ("obs.openmetrics", om_tests) ]
