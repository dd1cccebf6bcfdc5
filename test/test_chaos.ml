(* wb_chaos: seeded fault-injection campaigns against the networked
   referee.  The load-bearing property is the differential contract —
   every faulted loopback run lands in a configuration the in-process
   engine reaches under the same adversary with crashes at the recorded
   death sites (or dies with a typed wire error; the session never
   raises) — checked here over a sweep of seeds, plans and all four
   model classes.  Determinism is pinned at every layer: generator
   combinators, plan codec, single runs, whole campaign reports. *)

module M = Wb_model
module G = Wb_graph
module Prng = Wb_support.Prng
module Net = Wb_net
module C = Wb_chaos
module R = Wb_protocols.Registry
module J = Wb_obs.Json

let check = Alcotest.(check bool)

(* ---- instances: one per model class ----------------------------------- *)

let entry key =
  match R.find key with
  | Some e -> e
  | None -> Alcotest.failf "protocol %s not registered" key

let instance ?max_rounds key graph =
  let e = entry key in
  { C.Campaign.key;
    protocol = e.R.protocol;
    graph;
    graph_desc = "test";
    adversary_name = "random";
    make_adversary = (fun ~seed -> M.Adversary.random (Prng.create seed));
    max_rounds }

(* SYNC, SIMSYNC, SIMASYNC, ASYNC — the same model spread as the loopback
   differential in test_net. *)
let four_models =
  [ instance "bfs" (G.Gen.random_connected (Prng.create 7) 10 0.25);
    instance "mis" (G.Gen.random_gnp (Prng.create 5) 9 0.3);
    instance "build-naive" (G.Gen.random_gnp (Prng.create 3) 8 0.3);
    instance "eob-bfs" (G.Gen.random_eob (Prng.create 4) 10 0.3) ]

(* ---- Gen: seeded combinators ------------------------------------------ *)

let gen_tests =
  [ Alcotest.test_case "equal seeds draw equal composed values" `Quick (fun () ->
        let g =
          C.Gen.bind (C.Gen.in_range 1 6) (fun k ->
              C.Gen.pair (C.Gen.list_of k (C.Gen.int 100)) (C.Gen.weighted [ ("a", 1); ("b", 3) ]))
        in
        let a = C.Gen.run ~seed:11 g and b = C.Gen.run ~seed:11 g in
        check "same" true (a = b);
        let c = C.Gen.run ~seed:12 g in
        check "different seed differs somewhere" true
          (List.exists (fun s -> not (c = C.Gen.run ~seed:s g)) [ 11; 13; 14; 15 ]));
    Alcotest.test_case "weighted respects zero weights" `Quick (fun () ->
        let rng = Prng.create 5 in
        for _ = 1 to 100 do
          match C.Gen.weighted [ ("never", 0); ("always", 2) ] rng with
          | "always" -> ()
          | other -> Alcotest.failf "drew %S despite zero weight" other
        done);
    Alcotest.test_case "subset is sorted and in range" `Quick (fun () ->
        let rng = Prng.create 9 in
        for _ = 1 to 50 do
          let l = C.Gen.subset ~k:3 8 rng in
          check "size" true (List.length l = 3);
          check "sorted distinct in-range" true
            (List.for_all (fun v -> v >= 0 && v < 8) l
            && List.sort_uniq Int.compare l = l)
        done) ]

(* ---- Plan: codec and presets ------------------------------------------ *)

let plan_of_seed seed = C.Gen.run ~seed C.Plan.gen

let plan_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"random plans validate and JSON round-trip exactly" ~count:300
         (QCheck.make ~print:(fun s -> C.Plan.to_string (plan_of_seed s)) QCheck.Gen.(0 -- 100_000))
         (fun seed ->
           let plan = plan_of_seed seed in
           (match C.Plan.validate plan with
           | Ok () -> ()
           | Error e -> QCheck.Test.fail_reportf "generated plan invalid: %s" e);
           match C.Plan.of_string (C.Plan.to_string plan) with
           | Ok plan' -> C.Plan.equal plan plan'
           | Error e -> QCheck.Test.fail_reportf "round-trip failed: %s" e));
    Alcotest.test_case "presets validate and round-trip" `Quick (fun () ->
        List.iter
          (fun p ->
            (match C.Plan.validate p with
            | Ok () -> ()
            | Error e -> Alcotest.failf "preset %s invalid: %s" p.C.Plan.name e);
            match C.Plan.of_string (C.Plan.to_string p) with
            | Ok p' -> check p.C.Plan.name true (C.Plan.equal p p')
            | Error e -> Alcotest.failf "preset %s round-trip: %s" p.C.Plan.name e)
          C.Plan.presets);
    Alcotest.test_case "malformed plans are typed errors, never exceptions" `Quick (fun () ->
        List.iter
          (fun s ->
            match C.Plan.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ "";
            "nonsense";
            "{}";
            {|{"name":"x"}|};
            {|{"name":"x","mix":{"teleport":1},"intensity":{"kind":"constant","p":0.1},"targets":{"kind":"all"},"throttle_budget":8}|};
            {|{"name":"x","mix":{"drop":1},"intensity":{"kind":"constant","p":1.5},"targets":{"kind":"all"},"throttle_budget":8}|};
            {|{"name":"x","mix":{"drop":1},"intensity":{"kind":"constant","p":0.1},"targets":{"kind":"all"},"throttle_budget":0}|} ]);
    Alcotest.test_case "intensity schedules stay in [0,1] over the horizon" `Quick (fun () ->
        List.iter
          (fun seed ->
            let p = plan_of_seed seed in
            for round = 1 to 40 do
              let x = C.Plan.intensity_at p.C.Plan.intensity ~round in
              if x < 0.0 || x > 1.0 then
                Alcotest.failf "seed %d round %d: intensity %f" seed round x
            done)
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]) ]

(* ---- determinism: runs and campaigns ----------------------------------- *)

let record_string r = J.to_string (C.Campaign.record_to_json r)

let determinism_tests =
  [ Alcotest.test_case "one run replays byte-identically from (seed, index)" `Quick (fun () ->
        let inst = List.hd four_models in
        for index = 0 to 4 do
          let a = C.Campaign.run_once ~seed:77 ~index ~plan:C.Plan.default inst in
          let b = C.Campaign.run_once ~seed:77 ~index ~plan:C.Plan.default inst in
          Alcotest.(check string)
            (Printf.sprintf "run %d" index)
            (record_string a) (record_string b)
        done);
    Alcotest.test_case "whole campaign reports are byte-identical at one seed" `Quick (fun () ->
        let inst = List.nth four_models 1 in
        let a = C.Campaign.run ~seed:5 ~runs:8 ~plan:C.Plan.drop_heavy inst in
        let b = C.Campaign.run ~seed:5 ~runs:8 ~plan:C.Plan.drop_heavy inst in
        Alcotest.(check string) "report" (J.to_string (C.Campaign.to_json a))
          (J.to_string (C.Campaign.to_json b));
        let c = C.Campaign.run ~seed:6 ~runs:8 ~plan:C.Plan.drop_heavy inst in
        check "different seed differs" false
          (String.equal (J.to_string (C.Campaign.to_json a)) (J.to_string (C.Campaign.to_json c))));
    Alcotest.test_case "campaigns do inject (the harness is not a no-op)" `Quick (fun () ->
        let report =
          C.Campaign.run ~seed:1 ~runs:10 ~plan:C.Plan.wire_garbage (List.hd four_models)
        in
        let s = C.Campaign.summarize report in
        check "some faults injected" true (s.C.Campaign.injected_total > 0);
        check "some nodes died" true (s.C.Campaign.dead_nodes > 0)) ]

(* ---- the differential: faulted runs are engine-reachable --------------- *)

let assert_no_mismatch ~ctx (report : C.Campaign.report) =
  List.iter
    (fun (r : C.Campaign.run_record) ->
      match r.C.Campaign.mismatches with
      | [] -> ()
      | issues ->
        Alcotest.failf "%s run %d (seed %d): faulted run not engine-reachable:\n  %s\n  injected: %s"
          ctx r.C.Campaign.index r.C.Campaign.run_seed
          (String.concat "\n  " issues)
          (String.concat "; "
             (List.map
                (fun (v, e) -> Printf.sprintf "node %d %s" v (C.Inject.entry_to_string e))
                r.C.Campaign.injected)))
    report.C.Campaign.records

let differential_tests =
  [ Prop.qtest
      (QCheck.Test.make
         ~name:"faulted runs land in engine-reachable configurations (all models, random plans)"
         ~count:60
         (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000))
         (fun seed ->
           let inst = List.nth four_models (seed mod List.length four_models) in
           let plan = plan_of_seed seed in
           let report = C.Campaign.run ~seed ~runs:3 ~plan inst in
           assert_no_mismatch ~ctx:(Printf.sprintf "seed %d" seed) report;
           true));
    Alcotest.test_case "preset plans: differential holds on every model" `Quick (fun () ->
        List.iter
          (fun inst ->
            List.iter
              (fun plan ->
                let report = C.Campaign.run ~seed:42 ~runs:4 ~plan inst in
                assert_no_mismatch
                  ~ctx:(Printf.sprintf "%s/%s" inst.C.Campaign.key plan.C.Plan.name)
                  report)
              C.Plan.presets)
          four_models) ]

let suites =
  [ ("chaos.gen", gen_tests);
    ("chaos.plan", plan_tests);
    ("chaos.determinism", determinism_tests);
    ("chaos.differential", differential_tests) ]
