open Wb_bignum

let nat = Alcotest.testable (fun ppf v -> Nat.pp ppf v) Nat.equal

let small_nat_gen = QCheck.map (fun v -> abs v) QCheck.int

let nat_pair = QCheck.pair small_nat_gen small_nat_gen

let nat_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"of_int/to_int roundtrip" ~count:500 small_nat_gen (fun v ->
           Nat.to_int_opt (Nat.of_int v) = Some v));
    Prop.qtest
      (QCheck.Test.make ~name:"add agrees with int" ~count:500
         QCheck.(pair (int_bound (1 lsl 40)) (int_bound (1 lsl 40)))
         (fun (a, b) -> Nat.to_int_opt (Nat.add (Nat.of_int a) (Nat.of_int b)) = Some (a + b)));
    Prop.qtest
      (QCheck.Test.make ~name:"mul agrees with int" ~count:500
         QCheck.(pair (int_bound (1 lsl 30)) (int_bound (1 lsl 30)))
         (fun (a, b) -> Nat.to_int_opt (Nat.mul (Nat.of_int a) (Nat.of_int b)) = Some (a * b)));
    Prop.qtest
      (QCheck.Test.make ~name:"sub inverts add" ~count:500 nat_pair (fun (a, b) ->
           let na = Nat.of_int a and nb = Nat.of_int b in
           Nat.equal (Nat.sub (Nat.add na nb) nb) na));
    Prop.qtest
      (QCheck.Test.make ~name:"divmod identity" ~count:500
         QCheck.(pair small_nat_gen (int_range 1 1_000_000))
         (fun (a, b) ->
           let q, r = Nat.divmod (Nat.of_int a) (Nat.of_int b) in
           Nat.compare r (Nat.of_int b) < 0
           && Nat.equal (Nat.add (Nat.mul q (Nat.of_int b)) r) (Nat.of_int a)));
    Prop.qtest
      (QCheck.Test.make ~name:"string roundtrip" ~count:300 small_nat_gen (fun v ->
           Nat.equal (Nat.of_string (Nat.to_string (Nat.of_int v))) (Nat.of_int v)));
    Prop.qtest
      (QCheck.Test.make ~name:"compare is total order consistent with int" ~count:500 nat_pair
         (fun (a, b) -> compare a b = Nat.compare (Nat.of_int a) (Nat.of_int b)));
    Alcotest.test_case "big multiplication cross-factorisations" `Quick (fun () ->
        (* 2^100 * 3^50 = 6^50 * 2^50: same value through different routes. *)
        Alcotest.check nat "2^100*3^50"
          (Nat.mul (Nat.pow_int 6 50) (Nat.pow_int 2 50))
          (Nat.mul (Nat.pow_int 2 100) (Nat.pow_int 3 50));
        Alcotest.(check string) "10^30" ("1" ^ String.make 30 '0') (Nat.to_string (Nat.pow_int 10 30)));
    Alcotest.test_case "pow chain" `Quick (fun () ->
        Alcotest.check nat "2^10" (Nat.of_int 1024) (Nat.pow_int 2 10);
        Alcotest.check nat "7^0" Nat.one (Nat.pow_int 7 0);
        Alcotest.check nat "(2^30)^2" (Nat.mul (Nat.pow_int 2 30) (Nat.pow_int 2 30)) (Nat.pow (Nat.pow_int 2 30) 2));
    Alcotest.test_case "bit_length and nth_bit" `Quick (fun () ->
        Alcotest.(check int) "bl 0" 0 (Nat.bit_length Nat.zero);
        Alcotest.(check int) "bl 1" 1 (Nat.bit_length Nat.one);
        Alcotest.(check int) "bl 2^64" 65 (Nat.bit_length (Nat.pow_int 2 64));
        Alcotest.(check bool) "bit 64 of 2^64" true (Nat.nth_bit (Nat.pow_int 2 64) 64);
        Alcotest.(check bool) "bit 10 of 2^64" false (Nat.nth_bit (Nat.pow_int 2 64) 10));
    Alcotest.test_case "shift_left = mul by power of two" `Quick (fun () ->
        let v = Nat.of_string "123456789123456789123456789" in
        Alcotest.check nat "shift 67" (Nat.mul v (Nat.pow_int 2 67)) (Nat.shift_left v 67));
    Alcotest.test_case "sub underflow raises" `Quick (fun () ->
        Alcotest.check_raises "sub" (Invalid_argument "Nat.sub: negative result") (fun () ->
            ignore (Nat.sub (Nat.of_int 3) (Nat.of_int 4))));
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        Alcotest.check_raises "div" Division_by_zero (fun () ->
            ignore (Nat.divmod Nat.one Nat.zero)));
    Alcotest.test_case "divmod with huge operands" `Quick (fun () ->
        let a = Nat.pow_int 10 60 in
        let b = Nat.pow_int 10 25 in
        let q, r = Nat.divmod a b in
        Alcotest.check nat "q" (Nat.pow_int 10 35) q;
        Alcotest.check nat "r" Nat.zero r);
    Alcotest.test_case "log2_floor" `Quick (fun () ->
        Alcotest.(check int) "log2 1" 0 (Nat.log2_floor Nat.one);
        Alcotest.(check int) "log2 2^80" 80 (Nat.log2_floor (Nat.pow_int 2 80));
        Alcotest.(check int) "log2 (2^80 - 1)" 79 (Nat.log2_floor (Nat.sub (Nat.pow_int 2 80) Nat.one))) ]

let zint_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"ring ops agree with int" ~count:1000
         QCheck.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
         (fun (a, b) ->
           let za = Zint.of_int a and zb = Zint.of_int b in
           Zint.to_int_opt (Zint.add za zb) = Some (a + b)
           && Zint.to_int_opt (Zint.sub za zb) = Some (a - b)
           && Zint.to_int_opt (Zint.mul za zb) = Some (a * b)
           && Zint.sign za = compare a 0
           && compare a b = Zint.compare za zb));
    Alcotest.test_case "negation and printing" `Quick (fun () ->
        Alcotest.(check string) "pos" "42" (Zint.to_string (Zint.of_int 42));
        Alcotest.(check string) "neg" "-42" (Zint.to_string (Zint.of_int (-42)));
        Alcotest.(check string) "zero" "0" (Zint.to_string (Zint.neg Zint.zero)));
    Alcotest.test_case "to_nat_opt" `Quick (fun () ->
        Alcotest.(check bool) "neg none" true (Zint.to_nat_opt (Zint.of_int (-1)) = None);
        Alcotest.(check bool) "pos some" true
          (match Zint.to_nat_opt (Zint.of_int 7) with
          | Some n -> Wb_bignum.Nat.equal n (Wb_bignum.Nat.of_int 7)
          | None -> false)) ]

let suites = [ ("bignum.nat", nat_tests); ("bignum.zint", zint_tests) ]
