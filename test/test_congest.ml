module G = Wb_graph
module Prng = Wb_support.Prng

let check = Alcotest.(check bool)

let bfs_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"flood BFS matches reference distances" ~count:60
         QCheck.(pair small_int (int_range 1 40))
         (fun (seed, n) ->
           let g = G.Gen.random_connected (Prng.create seed) n 0.1 in
           let r = Wb_congest.Bfs_flood.run g in
           r.Wb_congest.Bfs_flood.dist = G.Algo.bfs_dist g 0));
    Prop.qtest
      (QCheck.Test.make ~name:"parents form a valid BFS tree" ~count:60 QCheck.small_int
         (fun seed ->
           let g = G.Gen.random_connected (Prng.create seed) 25 0.12 in
           let r = Wb_congest.Bfs_flood.run g in
           let dist = G.Algo.bfs_dist g 0 in
           Array.for_all Fun.id
             (Array.mapi
                (fun v p ->
                  if v = 0 then p = -1
                  else G.Graph.mem_edge g v p && dist.(p) = dist.(v) - 1)
                r.Wb_congest.Bfs_flood.parent)));
    Alcotest.test_case "message accounting: one burst per node" `Quick (fun () ->
        let g = G.Gen.cycle 10 in
        let r = Wb_congest.Bfs_flood.run g in
        (* every node announces once along each incident edge: 2m messages *)
        Alcotest.(check int) "messages" (2 * G.Graph.num_edges g) r.Wb_congest.Bfs_flood.stats.Wb_congest.Congest.messages);
    Alcotest.test_case "rounds scale with diameter, not n" `Quick (fun () ->
        let star = G.Gen.star 60 in
        let path = G.Gen.path 60 in
        let rs = (Wb_congest.Bfs_flood.run star).Wb_congest.Bfs_flood.stats.Wb_congest.Congest.rounds in
        let rp = (Wb_congest.Bfs_flood.run path).Wb_congest.Bfs_flood.stats.Wb_congest.Congest.rounds in
        (* both pay the quiescence countdown, but the path needs ~n more
           propagation rounds first *)
        check "path slower" true (rp > rs + 30));
    Alcotest.test_case "whiteboard BFS beats CONGEST on total bits (dense graph)" `Quick
      (fun () ->
        let g = G.Gen.random_connected (Prng.create 11) 64 0.3 in
        let congest_bits = (Wb_congest.Bfs_flood.run g).Wb_congest.Bfs_flood.stats.Wb_congest.Congest.total_bits in
        let run =
          Wb_model.Engine.run_packed Wb_protocols.Bfs_sync.protocol g Wb_model.Adversary.min_id
        in
        check "success" true (Wb_model.Engine.succeeded run);
        check "whiteboard cheaper" true (run.Wb_model.Engine.stats.total_bits < congest_bits)) ]

let luby_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"luby outputs a maximal independent set" ~count:80
         QCheck.(pair small_int (int_range 1 40))
         (fun (seed, n) ->
           let g = G.Gen.random_gnp (Prng.create seed) n 0.2 in
           let r = Wb_congest.Luby_mis.run ~seed:(seed + 1) g in
           let members =
             List.filter (fun v -> r.Wb_congest.Luby_mis.in_mis.(v)) (List.init n Fun.id)
           in
           G.Algo.is_maximal_independent_set g members));
    Alcotest.test_case "luby on a clique picks exactly one node" `Quick (fun () ->
        let g = G.Gen.complete 9 in
        let r = Wb_congest.Luby_mis.run ~seed:5 g in
        Alcotest.(check int) "one" 1
          (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r.Wb_congest.Luby_mis.in_mis));
    Alcotest.test_case "luby rounds stay logarithmic-ish" `Quick (fun () ->
        let g = G.Gen.random_gnp (Prng.create 3) 120 0.1 in
        let r = Wb_congest.Luby_mis.run ~seed:4 g in
        check "rounds" true (r.Wb_congest.Luby_mis.stats.Wb_congest.Congest.rounds < 100)) ]

let sim_tests =
  [ Alcotest.test_case "sending along a non-edge is rejected" `Quick (fun () ->
        let module Bad = struct
          type state = bool

          type message = unit

          let size_bits () = 1

          let init ~n:_ ~id:_ ~neighbors:_ = false

          let step ~round:_ ~id:_ _ ~inbox:_ = (true, [ (0, ()) ])

          let halted s = s
        end in
        let module R = Wb_congest.Congest.Run (Bad) in
        Alcotest.check_raises "non-edge" (Invalid_argument "Congest: sending along a non-edge")
          (fun () -> ignore (R.execute (G.Graph.empty 2))));
    Alcotest.test_case "non-halting algorithms hit the round limit" `Quick (fun () ->
        let module Spin = struct
          type state = unit

          type message = unit

          let size_bits () = 1

          let init ~n:_ ~id:_ ~neighbors:_ = ()

          let step ~round:_ ~id:_ () ~inbox:_ = ((), [])

          let halted () = false
        end in
        let module R = Wb_congest.Congest.Run (Spin) in
        Alcotest.check_raises "limit" (Failure "Congest: round limit exceeded") (fun () ->
            ignore (R.execute ~max_rounds:5 (G.Gen.path 3)))) ]

let suites =
  [ ("congest.bfs", bfs_tests); ("congest.luby", luby_tests); ("congest.sim", sim_tests) ]
