open Wb_graph
module Prng = Wb_support.Prng

let check = Alcotest.(check bool)

let seeded = QCheck.small_int

let graph_tests =
  [ Alcotest.test_case "of_edges normalises" `Quick (fun () ->
        let g = Graph.of_edges 4 [ (0, 1); (1, 0); (2, 3); (0, 1) ] in
        Alcotest.(check int) "edges" 2 (Graph.num_edges g);
        check "mem" true (Graph.mem_edge g 1 0);
        check "not mem" false (Graph.mem_edge g 0 2));
    Alcotest.test_case "self-loops rejected" `Quick (fun () ->
        Alcotest.check_raises "loop" (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
            ignore (Graph.of_edges 3 [ (1, 1) ])));
    Alcotest.test_case "matrix roundtrip" `Quick (fun () ->
        let g = Gen.petersen () in
        check "equal" true (Graph.equal g (Graph.of_matrix (Graph.adjacency_matrix g))));
    Prop.qtest
      (QCheck.Test.make ~name:"relabel preserves degree multiset" ~count:200 seeded (fun seed ->
           let rng = Prng.create seed in
           let g = Gen.random_gnp rng 20 0.3 in
           let p = Wb_support.Perm.random rng 20 in
           let h = Graph.relabel g p in
           let degs gr = List.sort compare (List.init 20 (Graph.degree gr)) in
           degs g = degs h && Graph.num_edges g = Graph.num_edges h));
    Prop.qtest
      (QCheck.Test.make ~name:"complement involutive" ~count:100 seeded (fun seed ->
           let g = Gen.random_gnp (Prng.create seed) 12 0.5 in
           Graph.equal g (Graph.complement (Graph.complement g))));
    Alcotest.test_case "induced subgraph" `Quick (fun () ->
        let g = Gen.cycle 6 in
        let h = Graph.induced g [| 0; 1; 2 |] in
        Alcotest.(check int) "n" 3 (Graph.n h);
        Alcotest.(check int) "edges" 2 (Graph.num_edges h));
    Alcotest.test_case "extend appends apex" `Quick (fun () ->
        let g = Gen.path 3 in
        let h = Graph.extend g ~extra:1 ~new_edges:[ (0, 3); (2, 3) ] in
        Alcotest.(check int) "n" 4 (Graph.n h);
        check "old edge kept" true (Graph.mem_edge h 0 1);
        check "new edge" true (Graph.mem_edge h 2 3));
    Alcotest.test_case "is_regular" `Quick (fun () ->
        Alcotest.(check (option int)) "cycle" (Some 2) (Graph.is_regular (Gen.cycle 5));
        Alcotest.(check (option int)) "petersen" (Some 3) (Graph.is_regular (Gen.petersen ()));
        Alcotest.(check (option int)) "path" None (Graph.is_regular (Gen.path 4)));
    Alcotest.test_case "incidence row matches neighbors" `Quick (fun () ->
        let g = Gen.petersen () in
        for v = 0 to 9 do
          Alcotest.(check (list int))
            (Printf.sprintf "row %d" v)
            (Array.to_list (Graph.neighbors g v))
            (Wb_support.Bitset.to_list (Graph.incidence_row g v))
        done) ]

let gen_tests =
  [ Alcotest.test_case "families have expected shape" `Quick (fun () ->
        Alcotest.(check int) "path edges" 9 (Graph.num_edges (Gen.path 10));
        Alcotest.(check int) "cycle edges" 10 (Graph.num_edges (Gen.cycle 10));
        Alcotest.(check int) "star edges" 9 (Graph.num_edges (Gen.star 10));
        Alcotest.(check int) "K7 edges" 21 (Graph.num_edges (Gen.complete 7));
        Alcotest.(check int) "K34 edges" 12 (Graph.num_edges (Gen.complete_bipartite 3 4));
        Alcotest.(check int) "grid 3x4 edges" 17 (Graph.num_edges (Gen.grid 3 4));
        Alcotest.(check int) "Q3 edges" 12 (Graph.num_edges (Gen.hypercube 3));
        Alcotest.(check int) "petersen edges" 15 (Graph.num_edges (Gen.petersen ())));
    Prop.qtest
      (QCheck.Test.make ~name:"random_tree is a tree" ~count:200
         QCheck.(pair seeded (int_range 1 60))
         (fun (seed, n) ->
           let t = Gen.random_tree (Prng.create seed) n in
           Graph.num_edges t = n - 1 && Algo.is_connected t));
    Prop.qtest
      (QCheck.Test.make ~name:"random_forest is acyclic" ~count:200
         QCheck.(pair seeded (int_range 1 60))
         (fun (seed, n) ->
           let f = Gen.random_forest (Prng.create seed) n ~keep:0.6 in
           fst (Algo.degeneracy f) <= 1));
    Prop.qtest
      (QCheck.Test.make ~name:"ktree: degeneracy exactly k" ~count:100
         QCheck.(pair seeded (int_range 1 4))
         (fun (seed, k) ->
           let g = Gen.random_ktree (Prng.create seed) (k + 8) ~k in
           fst (Algo.degeneracy g) = k));
    Prop.qtest
      (QCheck.Test.make ~name:"kdegenerate: degeneracy at most k" ~count:100
         QCheck.(pair seeded (int_range 0 5))
         (fun (seed, k) ->
           let g = Gen.random_kdegenerate (Prng.create seed) 30 ~k in
           fst (Algo.degeneracy g) <= k));
    Prop.qtest
      (QCheck.Test.make ~name:"apollonian: planar-style counts, 3-degenerate" ~count:100 seeded
         (fun seed ->
           let g = Gen.apollonian (Prng.create seed) 20 in
           Graph.num_edges g = (3 * 20) - 6 && fst (Algo.degeneracy g) = 3 && Algo.is_connected g));
    Prop.qtest
      (QCheck.Test.make ~name:"random_eob is even-odd bipartite" ~count:100 seeded (fun seed ->
           Algo.is_even_odd_bipartite (Gen.random_eob (Prng.create seed) 21 0.4)));
    Prop.qtest
      (QCheck.Test.make ~name:"random_bipartite is bipartite" ~count:100 seeded (fun seed ->
           Algo.bipartition (Gen.random_bipartite (Prng.create seed) 7 9 0.4) <> None));
    Prop.qtest
      (QCheck.Test.make ~name:"random_gnm has exactly m edges" ~count:100
         QCheck.(pair seeded (int_range 0 45))
         (fun (seed, m) -> Graph.num_edges (Gen.random_gnm (Prng.create seed) 10 m) = m));
    Prop.qtest
      (QCheck.Test.make ~name:"random_connected connects" ~count:100 seeded (fun seed ->
           Algo.is_connected (Gen.random_connected (Prng.create seed) 40 0.02)));
    Alcotest.test_case "two-cliques family" `Quick (fun () ->
        let g = Gen.two_cliques 6 in
        check "is two cliques" true (Algo.is_two_cliques g);
        Alcotest.(check (option int)) "regular" (Some 5) (Graph.is_regular g);
        let h = Gen.near_two_cliques 6 in
        check "near is not" false (Algo.is_two_cliques h);
        Alcotest.(check (option int)) "near regular too" (Some 5) (Graph.is_regular h);
        check "near connected" true (Algo.is_connected h));
    Prop.qtest
      (QCheck.Test.make ~name:"two_cliques_shuffled keeps the property" ~count:50 seeded
         (fun seed -> Algo.is_two_cliques (Gen.two_cliques_shuffled (Prng.create seed) 5)));
    Alcotest.test_case "triangle_with_tail" `Quick (fun () ->
        let g = Gen.triangle_with_tail 7 in
        check "has triangle" true (Algo.has_triangle g);
        check "connected" true (Algo.is_connected g));
    Alcotest.test_case "all_labelled_graphs counts" `Quick (fun () ->
        Alcotest.(check int) "n=3" 8 (List.length (Gen.all_labelled_graphs 3));
        Alcotest.(check int) "n=4" 64 (List.length (Gen.all_labelled_graphs 4));
        Alcotest.(check int) "n=4 connected" 38 (List.length (Gen.all_connected_graphs 4))) ]

let algo_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"bfs_dist is a metric layer function" ~count:100 seeded (fun seed ->
           let g = Gen.random_connected (Prng.create seed) 25 0.1 in
           let d = Algo.bfs_dist g 0 in
           d.(0) = 0
           && List.for_all (fun (u, v) -> abs (d.(u) - d.(v)) <= 1) (Graph.edges g)
           && Array.for_all (fun x -> x >= 0) d));
    Prop.qtest
      (QCheck.Test.make ~name:"bfs_forest validates" ~count:100 seeded (fun seed ->
           let g = Gen.random_gnp (Prng.create seed) 20 0.1 in
           Algo.is_valid_bfs_forest g (Algo.bfs_forest g)));
    Alcotest.test_case "is_valid_bfs_forest rejects wrong parents" `Quick (fun () ->
        let g = Gen.path 4 in
        check "good" true (Algo.is_valid_bfs_forest g [| -1; 0; 1; 2 |]);
        check "bad root" false (Algo.is_valid_bfs_forest g [| 1; -1; 1; 2 |]);
        check "bad layer" false (Algo.is_valid_bfs_forest g [| -1; 0; 1; 1 |]));
    Alcotest.test_case "components numbering" `Quick (fun () ->
        let g = Graph.of_edges 6 [ (3, 4); (0, 1) ] in
        Alcotest.(check (list int)) "comp" [ 0; 0; 1; 2; 2; 3 ] (Array.to_list (Algo.components g));
        Alcotest.(check int) "count" 4 (Algo.num_components g));
    Alcotest.test_case "bipartition" `Quick (fun () ->
        check "even cycle" true (Algo.bipartition (Gen.cycle 6) <> None);
        check "odd cycle" true (Algo.bipartition (Gen.cycle 7) = None);
        check "petersen" true (Algo.bipartition (Gen.petersen ()) = None));
    Alcotest.test_case "degeneracy of known families" `Quick (fun () ->
        Alcotest.(check int) "tree" 1 (fst (Algo.degeneracy (Gen.path 10)));
        Alcotest.(check int) "cycle" 2 (fst (Algo.degeneracy (Gen.cycle 10)));
        Alcotest.(check int) "K6" 5 (fst (Algo.degeneracy (Gen.complete 6)));
        Alcotest.(check int) "K33" 3 (fst (Algo.degeneracy (Gen.complete_bipartite 3 3)));
        Alcotest.(check int) "empty" 0 (fst (Algo.degeneracy (Graph.empty 5))));
    Prop.qtest
      (QCheck.Test.make ~name:"degeneracy order witnesses the value" ~count:100 seeded (fun seed ->
           let g = Gen.random_gnp (Prng.create seed) 18 0.3 in
           let k, order = Algo.degeneracy g in
           (* Replaying the order, each node's remaining degree is <= k. *)
           let removed = Array.make 18 false in
           let ok = ref true in
           Array.iter
             (fun v ->
               let live = Graph.fold_neighbors g v (fun acc w -> if removed.(w) then acc else acc + 1) 0 in
               if live > k then ok := false;
               removed.(v) <- true)
             order;
           !ok));
    Prop.qtest
      (QCheck.Test.make ~name:"triangle detection agrees with matrix check" ~count:200 seeded
         (fun seed ->
           let g = Gen.random_gnp (Prng.create seed) 12 0.25 in
           let m = Graph.adjacency_matrix g in
           let naive = ref false in
           for a = 0 to 11 do
             for b = a + 1 to 11 do
               for c = b + 1 to 11 do
                 if m.(a).(b) && m.(b).(c) && m.(a).(c) then naive := true
               done
             done
           done;
           Algo.has_triangle g = !naive));
    Prop.qtest
      (QCheck.Test.make ~name:"count_triangles agrees with brute force" ~count:100 seeded
         (fun seed ->
           let g = Gen.random_gnp (Prng.create seed) 10 0.4 in
           let m = Graph.adjacency_matrix g in
           let naive = ref 0 in
           for a = 0 to 9 do
             for b = a + 1 to 9 do
               for c = b + 1 to 9 do
                 if m.(a).(b) && m.(b).(c) && m.(a).(c) then incr naive
               done
             done
           done;
           Algo.count_triangles g = !naive));
    Prop.qtest
      (QCheck.Test.make ~name:"greedy_mis is a rooted MIS" ~count:200
         QCheck.(pair seeded (int_range 0 14))
         (fun (seed, root) ->
           let g = Gen.random_gnp (Prng.create seed) 15 0.3 in
           let s = Algo.greedy_mis g ~root in
           List.mem root s && Algo.is_maximal_independent_set g s));
    Alcotest.test_case "independent set checks" `Quick (fun () ->
        let g = Gen.cycle 5 in
        check "indep" true (Algo.is_independent_set g [ 0; 2 ]);
        check "not indep" false (Algo.is_independent_set g [ 0; 1 ]);
        check "not maximal" false (Algo.is_maximal_independent_set g [ 0 ]);
        check "maximal" true (Algo.is_maximal_independent_set g [ 0; 2 ]));
    Alcotest.test_case "diameter" `Quick (fun () ->
        Alcotest.(check int) "path" 9 (Algo.diameter (Gen.path 10));
        Alcotest.(check int) "petersen" 2 (Algo.diameter (Gen.petersen ()));
        Alcotest.check_raises "disconnected" (Invalid_argument "Algo.diameter: disconnected")
          (fun () -> ignore (Algo.diameter (Graph.empty 2))));
    Prop.qtest
      (QCheck.Test.make ~name:"spanning forest has n - #components edges" ~count:100 seeded
         (fun seed ->
           let g = Gen.random_gnp (Prng.create seed) 20 0.08 in
           List.length (Algo.spanning_forest g) = 20 - Algo.num_components g)) ]

let codec_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"prufer roundtrip" ~count:200
         QCheck.(pair seeded (int_range 2 40))
         (fun (seed, n) ->
           let t = Gen.random_tree (Prng.create seed) n in
           Graph.equal t (Prufer.decode n (Prufer.encode t))));
    Alcotest.test_case "prufer rejects non-trees" `Quick (fun () ->
        Alcotest.check_raises "cycle" (Invalid_argument "Prufer.encode: not a tree") (fun () ->
            ignore (Prufer.encode (Gen.cycle 4))));
    Prop.qtest
      (QCheck.Test.make ~name:"graph6 roundtrip" ~count:200
         QCheck.(pair seeded (int_range 0 70))
         (fun (seed, n) ->
           let g = Gen.random_gnp (Prng.create seed) n 0.3 in
           Graph.equal g (Graph6.decode (Graph6.encode g))));
    Alcotest.test_case "graph6 known encodings" `Quick (fun () ->
        (* K3 is "Bw" in standard graph6. *)
        Alcotest.(check string) "K3" "Bw" (Graph6.encode (Gen.complete 3));
        check "decode" true (Graph.equal (Gen.complete 3) (Graph6.decode "Bw")));
    Alcotest.test_case "graph6 medium-size header" `Quick (fun () ->
        let g = Gen.random_gnp (Prng.create 3) 100 0.05 in
        check "roundtrip n=100" true (Graph.equal g (Graph6.decode (Graph6.encode g)))) ]

let auto_tests =
  let order ?fixed g =
    match Auto.automorphisms ?fixed g with
    | None -> Alcotest.fail "automorphisms gave up"
    | Some a ->
      Array.iter (fun p -> check "is automorphism" true (Auto.is_automorphism g p)) a;
      Array.length a
  in
  [ Alcotest.test_case "known group orders" `Quick (fun () ->
        Alcotest.(check int) "K5: 5!" 120 (order (Gen.complete 5));
        Alcotest.(check int) "C6: dihedral 2*6" 12 (order (Gen.cycle 6));
        Alcotest.(check int) "Q3: 2^3*3!" 48 (order (Gen.hypercube 3));
        Alcotest.(check int) "Q4: 2^4*4!" 384 (order (Gen.hypercube 4));
        Alcotest.(check int) "path P4: 2" 2
          (order (Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ]));
        Alcotest.(check int) "asymmetric: trivial" 1
          (* The smallest asymmetric tree (7 vertices). *)
          (order (Graph.of_edges 7 [ (0, 1); (1, 2); (2, 3); (2, 4); (4, 5); (5, 6) ])));
    Alcotest.test_case "pointwise stabilizer" `Quick (fun () ->
        Alcotest.(check int) "K5 fixing one vertex: 4!" 24
          (order ~fixed:[ 0 ] (Gen.complete 5));
        Alcotest.(check int) "C6 fixing one vertex: the reflection" 2
          (order ~fixed:[ 0 ] (Gen.cycle 6));
        Alcotest.(check int) "C6 fixing an edge's ends: trivial" 1
          (order ~fixed:[ 0; 1 ] (Gen.cycle 6)));
    Alcotest.test_case "caps give None, not an error" `Quick (fun () ->
        check "K8 exceeds max_order 100" true
          (Auto.automorphisms ~max_order:100 (Gen.complete 8) = None);
        check "K8 fits the default caps" true (Auto.automorphisms (Gen.complete 8) <> None));
    Alcotest.test_case "orbits: transitive graphs have one orbit" `Quick (fun () ->
        List.iter
          (fun g ->
            match Auto.automorphisms g with
            | None -> Alcotest.fail "gave up"
            | Some a ->
              let o = Auto.orbits ~n:(Graph.n g) a in
              check "all mapped to vertex 0" true (Array.for_all (fun r -> r = 0) o))
          [ Gen.complete 6; Gen.cycle 7; Gen.hypercube 3 ];
        let star = Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3) ] in
        match Auto.automorphisms star with
        | None -> Alcotest.fail "gave up"
        | Some a ->
          let o = Auto.orbits ~n:4 a in
          check "star orbits: centre alone, leaves together" true
            (o.(0) = 0 && o.(1) = 1 && o.(2) = 1 && o.(3) = 1));
    Prop.qtest
      (QCheck.Test.make ~name:"every reported element preserves edges" ~count:60
         QCheck.(pair seeded (int_range 2 7))
         (fun (seed, n) ->
           let g = Gen.random_gnp (Prng.create seed) n 0.5 in
           match Auto.automorphisms g with
           | None -> true
           | Some a ->
             Array.length a >= 1
             && Array.for_all (fun p -> Auto.is_automorphism g p) a)) ]

let suites =
  [ ("graph.core", graph_tests);
    ("graph.gen", gen_tests);
    ("graph.algo", algo_tests);
    ("graph.codec", codec_tests);
    ("graph.auto", auto_tests) ]
