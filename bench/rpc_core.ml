(* RPC latency under the networked referee, as a machine-readable perf
   record: each instance runs a loopback session (referee plus n in-process
   clients over [Conn.loopback_served], the deterministic transport) and
   its row reports the per-RPC latency percentiles accumulated in the
   [net.rpc.*] histograms — the same numbers `wbctl top` serves live over
   the TELEMETRY frame.  The registry is reset before every instance so
   each row owns its distribution.

   `wbctl bench rpc` drives this core; [fast] trims the suite for CI
   gates.  [seed] feeds the random-EOB instance graph (historical
   default 3). *)

module P = Wb_model
module G = Wb_graph
module Net = Wb_net
module Obs = Wb_obs
module J = Obs.Json
module R = Wb_protocols.Registry

let m_activate = Obs.Metrics.histogram "net.rpc.activate_us"
let m_compose = Obs.Metrics.histogram "net.rpc.compose_us"

let pct h p =
  match Obs.Metrics.percentile_opt h p with Some v -> J.Int v | None -> J.Null

let hist_row h =
  [ ("count", J.Int (Obs.Metrics.histogram_count h));
    ("p50_us", pct h 50.);
    ("p95_us", pct h 95.);
    ("p99_us", pct h 99.) ]

let instance rep ~key ~graph =
  match R.find key with
  | None -> failwith ("unknown protocol " ^ key)
  | Some entry ->
    Obs.Metrics.reset ();
    let t0 = Unix.gettimeofday () in
    let r = Net.Remote.run_loopback ~protocol:entry.R.protocol graph P.Adversary.min_id in
    let wall = Unix.gettimeofday () -. t0 in
    if not (P.Engine.succeeded r.Net.Session.run) then failwith (key ^ ": run failed");
    if not (List.is_empty r.Net.Session.faults) then
      failwith (key ^ ": faults in a loopback run");
    Printf.printf
      "%-16s n=%-3d activate p50 %5dus p99 %5dus   compose p50 %5dus p99 %5dus\n" key
      (G.Graph.n graph)
      (Obs.Metrics.percentile m_activate 50.)
      (Obs.Metrics.percentile m_activate 99.)
      (Obs.Metrics.percentile m_compose 50.)
      (Obs.Metrics.percentile m_compose 99.);
    Report.add_row rep ~name:key
      [ ("n", J.Int (G.Graph.n graph));
        ("rounds", J.Int r.Net.Session.run.P.Engine.stats.rounds);
        ("wall_s", J.Float wall);
        ("activate", J.Obj (hist_row m_activate));
        ("compose", J.Obj (hist_row m_compose)) ]

let run ?(seed = 3) ?(fast = false) ?out () =
  print_endline "Loopback RPC latency (net.rpc.* histograms, microseconds)";
  let rep =
    Report.create ~bench:"rpc" ~seed ~params:[ ("fast", J.Bool fast) ] ()
  in
  instance rep ~key:"bfs" ~graph:(G.Gen.grid 4 4);
  instance rep ~key:"mis" ~graph:(G.Gen.cycle 12);
  if not fast then begin
    instance rep ~key:"build-naive" ~graph:(G.Gen.complete 10);
    instance rep ~key:"eob-bfs" ~graph:(G.Gen.random_eob (Wb_support.Prng.create seed) 12 0.3)
  end;
  Report.write ?out rep
