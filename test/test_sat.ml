open Wb_sat
module Prng = Wb_support.Prng

let check = Alcotest.(check bool)

let brute_force nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (fun c -> List.exists (fun l -> if l > 0 then assignment.(l) else not assignment.(-l)) c)
        clauses
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make (nvars + 1) false) 1

let random_instance seed =
  let rng = Prng.create seed in
  let nvars = 4 + Prng.int rng 11 in
  let nclauses = 3 + Prng.int rng (4 * nvars) in
  let clauses =
    List.init nclauses (fun _ ->
        let width = 1 + Prng.int rng 3 in
        List.init width (fun _ ->
            let v = 1 + Prng.int rng nvars in
            if Prng.bool rng then v else -v))
  in
  (nvars, clauses)

let model_satisfies m clauses =
  List.for_all (fun c -> List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)) c) clauses

let solve_clauses nvars clauses =
  let s = Solver.create nvars in
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

let solver_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"agrees with brute force; models verify" ~count:400 QCheck.small_int
         (fun seed ->
           let nvars, clauses = random_instance seed in
           let s, outcome = solve_clauses nvars clauses in
           let want = brute_force nvars clauses in
           (outcome = Solver.Sat) = want
           && (outcome = Solver.Unsat || model_satisfies (Solver.model s) clauses)));
    Alcotest.test_case "pigeonhole principle is refuted" `Quick (fun () ->
        List.iter
          (fun n ->
            let v p h = (p * n) + h + 1 in
            let s = Solver.create ((n + 1) * n) in
            for p = 0 to n do
              Solver.add_clause s (List.init n (fun h -> v p h))
            done;
            for h = 0 to n - 1 do
              for p1 = 0 to n do
                for p2 = p1 + 1 to n do
                  Solver.add_clause s [ -v p1 h; -v p2 h ]
                done
              done
            done;
            check (Printf.sprintf "php %d" n) true (Solver.solve s = Solver.Unsat))
          [ 2; 3; 4; 5 ]);
    Alcotest.test_case "empty clause makes it unsat" `Quick (fun () ->
        let s = Solver.create 2 in
        Solver.add_clause s [];
        check "unsat" true (Solver.solve s = Solver.Unsat));
    Alcotest.test_case "no clauses: trivially sat" `Quick (fun () ->
        let s = Solver.create 3 in
        check "sat" true (Solver.solve s = Solver.Sat));
    Alcotest.test_case "tautologies are ignored" `Quick (fun () ->
        let s = Solver.create 1 in
        Solver.add_clause s [ 1; -1 ];
        Alcotest.(check int) "no clause stored" 0 (Solver.num_clauses s);
        check "sat" true (Solver.solve s = Solver.Sat));
    Alcotest.test_case "unit chain propagates" `Quick (fun () ->
        let s = Solver.create 5 in
        Solver.add_clause s [ 1 ];
        Solver.add_clause s [ -1; 2 ];
        Solver.add_clause s [ -2; 3 ];
        Solver.add_clause s [ -3; 4 ];
        Solver.add_clause s [ -4; 5 ];
        check "sat" true (Solver.solve s = Solver.Sat);
        List.iter (fun v -> check (Printf.sprintf "v%d" v) true (Solver.value s v)) [ 1; 2; 3; 4; 5 ]);
    Alcotest.test_case "contradicting units" `Quick (fun () ->
        let s = Solver.create 1 in
        Solver.add_clause s [ 1 ];
        Solver.add_clause s [ -1 ];
        check "unsat" true (Solver.solve s = Solver.Unsat));
    Alcotest.test_case "duplicate literals are merged" `Quick (fun () ->
        let s = Solver.create 2 in
        Solver.add_clause s [ 1; 1; 2; 2 ];
        Solver.add_clause s [ -1 ];
        Solver.add_clause s [ -2; -1 ];
        check "sat with x2" true (Solver.solve s = Solver.Sat && Solver.value s 2));
    Alcotest.test_case "out-of-range literal rejected" `Quick (fun () ->
        let s = Solver.create 2 in
        Alcotest.check_raises "range" (Invalid_argument "Solver.add_clause: literal out of range")
          (fun () -> Solver.add_clause s [ 3 ]));
    Alcotest.test_case "incremental use between solves" `Quick (fun () ->
        let s = Solver.create 3 in
        Solver.add_clause s [ 1; 2 ];
        check "sat 1" true (Solver.solve s = Solver.Sat);
        Solver.add_clause s [ -1 ];
        Solver.add_clause s [ -2 ];
        check "unsat after strengthening" true (Solver.solve s = Solver.Unsat));
    Alcotest.test_case "stats move" `Quick (fun () ->
        let s = Solver.create 20 in
        let rng = Prng.create 5 in
        for _ = 1 to 80 do
          Solver.add_clause s
            (List.init 3 (fun _ ->
                 let v = 1 + Prng.int rng 20 in
                 if Prng.bool rng then v else -v))
        done;
        ignore (Solver.solve s);
        check "propagated" true (Solver.stats_propagations s > 0)) ]

let dimacs_tests =
  [ Alcotest.test_case "roundtrip" `Quick (fun () ->
        let cnf = { Dimacs.nvars = 3; clauses = [ [ 1; -2 ]; [ 2; 3 ]; [ -1; -3 ] ] } in
        let cnf' = Dimacs.of_string (Dimacs.to_string cnf) in
        check "equal" true (cnf = cnf'));
    Alcotest.test_case "comments and blank lines are skipped" `Quick (fun () ->
        let text = "c hello\n\np cnf 2 1\n1 -2 0\n" in
        let cnf = Dimacs.of_string text in
        Alcotest.(check int) "nvars" 2 cnf.Dimacs.nvars;
        check "clause" true (cnf.Dimacs.clauses = [ [ 1; -2 ] ]));
    Alcotest.test_case "solver_of_cnf" `Quick (fun () ->
        let s = Dimacs.solver_of_cnf { Dimacs.nvars = 2; clauses = [ [ 1 ]; [ -1; 2 ] ] } in
        check "sat" true (Solver.solve s = Solver.Sat);
        check "x2" true (Solver.value s 2)) ]

let suites = [ ("sat.solver", solver_tests); ("sat.dimacs", dimacs_tests) ]
