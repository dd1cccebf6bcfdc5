(* Thin main over Wb_bench.Explore_core (shared with `wbctl bench`):
   explore-vs-verify exploration timings with the determinism check.
   Writes BENCH_explore.json (or --out FILE). *)

let () =
  let cli = Wb_bench.Report.Cli.parse () in
  (match cli.Wb_bench.Report.Cli.rest with
  | [] -> ()
  | junk ->
    Printf.eprintf "explorebench: unexpected arguments: %s\n" (String.concat " " junk);
    exit 2);
  ignore
    (Wb_bench.Explore_core.run
       ~seed:(Wb_bench.Report.Cli.seed cli ~default:2012)
       ~fast:cli.Wb_bench.Report.Cli.fast ?out:cli.Wb_bench.Report.Cli.out ())
