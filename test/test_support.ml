open Wb_support

let check = Alcotest.(check bool)

let prng_tests =
  [ Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Prng.create 123 and b = Prng.create 123 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "bits" (Prng.bits64 a) (Prng.bits64 b)
        done);
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let a = Prng.create 1 and b = Prng.create 2 in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Prng.bits64 a = Prng.bits64 b then incr same
        done;
        check "mostly different" true (!same < 4));
    Alcotest.test_case "copy replays" `Quick (fun () ->
        let a = Prng.create 5 in
        ignore (Prng.bits64 a);
        let b = Prng.copy a in
        Alcotest.(check int64) "bits" (Prng.bits64 a) (Prng.bits64 b));
    Alcotest.test_case "split is independent of parent draw count" `Quick (fun () ->
        let a = Prng.create 9 in
        let c = Prng.split a in
        check "child differs from fresh parent stream" true (Prng.bits64 c <> Prng.bits64 a));
    Prop.qtest
      (QCheck.Test.make ~name:"int respects bound" ~count:500
         QCheck.(pair small_int (int_range 1 1000))
         (fun (seed, bound) ->
           let g = Prng.create seed in
           let v = Prng.int g bound in
           v >= 0 && v < bound));
    Prop.qtest
      (QCheck.Test.make ~name:"in_range inclusive" ~count:500
         QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
         (fun (seed, lo, span) ->
           let g = Prng.create seed in
           let v = Prng.in_range g lo (lo + span) in
           v >= lo && v <= lo + span));
    Prop.qtest
      (QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
         QCheck.(pair small_int (int_range 0 40))
         (fun (seed, n) ->
           let g = Prng.create seed in
           let a = Array.init n (fun i -> i) in
           Prng.shuffle g a;
           Perm.is_permutation a));
    Prop.qtest
      (QCheck.Test.make ~name:"sample_without_replacement: sorted distinct in range" ~count:300
         QCheck.(triple small_int (int_range 0 30) (int_range 0 30))
         (fun (seed, a, b) ->
           let k = min a b and n = max a b in
           let g = Prng.create seed in
           let s = Prng.sample_without_replacement g k n in
           Array.length s = k
           && Array.for_all (fun v -> v >= 0 && v < n) s
           && Array.to_list s = List.sort_uniq compare (Array.to_list s)));
    Alcotest.test_case "float in [0,1)" `Quick (fun () ->
        let g = Prng.create 17 in
        for _ = 1 to 1000 do
          let f = Prng.float g in
          check "range" true (f >= 0.0 && f < 1.0)
        done) ]

let bitset_tests =
  let reference_ops seed n ops =
    (* Mirror operations on a Bitset and a module Set, compare. *)
    let module IS = Set.Make (Int) in
    let g = Prng.create seed in
    let s = Bitset.create n in
    let r = ref IS.empty in
    for _ = 1 to ops do
      let i = Prng.int g n in
      match Prng.int g 3 with
      | 0 ->
        Bitset.add s i;
        r := IS.add i !r
      | 1 ->
        Bitset.remove s i;
        r := IS.remove i !r
      | _ -> if Bitset.mem s i <> IS.mem i !r then failwith "mem mismatch"
    done;
    Bitset.to_list s = IS.elements !r && Bitset.cardinal s = IS.cardinal !r
  in
  [ Prop.qtest
      (QCheck.Test.make ~name:"bitset mirrors Set" ~count:100
         QCheck.(pair small_int (int_range 1 200))
         (fun (seed, n) -> reference_ops seed n 300));
    Alcotest.test_case "set-algebra on word boundaries" `Quick (fun () ->
        let n = 130 in
        let a = Bitset.of_list n [ 0; 62; 63; 64; 126; 129 ] in
        let b = Bitset.of_list n [ 62; 64; 100; 129 ] in
        let u = Bitset.copy a in
        Bitset.union_into u b;
        Alcotest.(check (list int)) "union" [ 0; 62; 63; 64; 100; 126; 129 ] (Bitset.to_list u);
        let i = Bitset.copy a in
        Bitset.inter_into i b;
        Alcotest.(check (list int)) "inter" [ 62; 64; 129 ] (Bitset.to_list i);
        let d = Bitset.copy a in
        Bitset.diff_into d b;
        Alcotest.(check (list int)) "diff" [ 0; 63; 126 ] (Bitset.to_list d);
        check "subset" true (Bitset.subset i a);
        check "not subset" false (Bitset.subset b a));
    Alcotest.test_case "iter is increasing" `Quick (fun () ->
        let s = Bitset.of_list 300 [ 299; 0; 150; 63; 64 ] in
        let prev = ref (-1) in
        Bitset.iter
          (fun v ->
            check "increasing" true (v > !prev);
            prev := v)
          s);
    Alcotest.test_case "bounds are checked" `Quick (fun () ->
        let s = Bitset.create 10 in
        Alcotest.check_raises "add" (Invalid_argument "Bitset.add: out of range") (fun () ->
            Bitset.add s 10)) ]

let bitbuf_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"nat roundtrip (list)" ~count:300
         QCheck.(small_list (int_range 0 1_000_000))
         (fun vals ->
           let w = Bitbuf.Writer.create () in
           List.iter (Bitbuf.Writer.nat w) vals;
           let r = Bitbuf.Reader.of_bits (Bitbuf.Writer.to_bits w) in
           List.for_all (fun v -> Bitbuf.Reader.nat r = v) vals && Bitbuf.Reader.remaining r = 0));
    Prop.qtest
      (QCheck.Test.make ~name:"fixed roundtrip" ~count:300
         QCheck.(pair (int_range 0 62) (int_range 0 max_int))
         (fun (width, v) ->
           let v = if width = 0 then 0 else v land ((1 lsl min width 61) - 1) in
           let width = if width > 61 then 61 else width in
           let w = Bitbuf.Writer.create () in
           Bitbuf.Writer.fixed w ~width v;
           let r = Bitbuf.Reader.of_bits (Bitbuf.Writer.to_bits w) in
           Bitbuf.Reader.fixed r ~width = v));
    Prop.qtest
      (QCheck.Test.make ~name:"gamma/delta roundtrip, delta no longer for big values" ~count:300
         QCheck.(int_range 1 10_000_000)
         (fun v ->
           let w1 = Bitbuf.Writer.create () in
           Bitbuf.Writer.gamma w1 v;
           let w2 = Bitbuf.Writer.create () in
           Bitbuf.Writer.delta w2 v;
           let r1 = Bitbuf.Reader.of_bits (Bitbuf.Writer.to_bits w1) in
           let r2 = Bitbuf.Reader.of_bits (Bitbuf.Writer.to_bits w2) in
           Bitbuf.Reader.gamma r1 = v && Bitbuf.Reader.delta r2 = v
           && (v < 32 || Bitbuf.Writer.length_bits w2 <= Bitbuf.Writer.length_bits w1)));
    Alcotest.test_case "width_of" `Quick (fun () ->
        List.iter
          (fun (v, w) -> Alcotest.(check int) (string_of_int v) w (Bitbuf.width_of v))
          [ (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (255, 8); (256, 9) ]);
    Alcotest.test_case "underflow raises" `Quick (fun () ->
        let r = Bitbuf.Reader.of_bits (Bitbuf.Bits.of_bools [| true |]) in
        ignore (Bitbuf.Reader.bit r);
        Alcotest.check_raises "bit" Bitbuf.Reader.Underflow (fun () -> ignore (Bitbuf.Reader.bit r)));
    Alcotest.test_case "mixed stream" `Quick (fun () ->
        let w = Bitbuf.Writer.create () in
        Bitbuf.Writer.bit w true;
        Bitbuf.Writer.fixed w ~width:7 99;
        Bitbuf.Writer.nat w 0;
        Bitbuf.Writer.gamma w 1;
        Bitbuf.Writer.delta w 1000;
        let r = Bitbuf.Reader.of_bits (Bitbuf.Writer.to_bits w) in
        check "bit" true (Bitbuf.Reader.bit r);
        Alcotest.(check int) "fixed" 99 (Bitbuf.Reader.fixed r ~width:7);
        Alcotest.(check int) "nat" 0 (Bitbuf.Reader.nat r);
        Alcotest.(check int) "gamma" 1 (Bitbuf.Reader.gamma r);
        Alcotest.(check int) "delta" 1000 (Bitbuf.Reader.delta r)) ]

(* The block operations against their bit-at-a-time definitions.  The
   reference packing is the packed layout spelled out: bit [i] in byte
   [i / 8] at position [i mod 8], padding zero. *)
let pack_reference bits =
  let b = Bytes.make ((Array.length bits + 7) / 8) '\000' in
  Array.iteri
    (fun i set ->
      if set then Bytes.set_uint8 b (i / 8) (Bytes.get_uint8 b (i / 8) lor (1 lsl (i mod 8))))
    bits;
  Bytes.to_string b

let bit_chunks = QCheck.(small_list (map Array.of_list (list_of_size Gen.(0 -- 150) bool)))

let string_of_bits b =
  String.init (Bitbuf.Bits.length b) (fun i -> if Bitbuf.Bits.get b i then '1' else '0')

(* A reader script: each step is one read, logged with its result, and the
   first [Underflow] ends the log with the position it happened at. *)
type read_op = Bit | Fixed of int | Nat | Read_bits of int

let run_script r ops =
  let remaining0 = Bitbuf.Reader.remaining r in
  let rec go acc = function
    | [] -> List.rev acc
    | op :: rest -> (
      match
        match op with
        | Bit -> if Bitbuf.Reader.bit r then "1" else "0"
        | Fixed width -> Printf.sprintf "f%d" (Bitbuf.Reader.fixed r ~width)
        | Nat -> Printf.sprintf "n%d" (Bitbuf.Reader.nat r)
        | Read_bits k -> string_of_bits (Bitbuf.Reader.read_bits r k)
      with
      | v -> go (v :: acc) rest
      | exception Bitbuf.Reader.Underflow ->
        List.rev (Printf.sprintf "underflow@%d" (remaining0 - Bitbuf.Reader.remaining r) :: acc))
  in
  go [] ops

let gen_script =
  QCheck.Gen.(
    list_size (0 -- 40)
      (frequency
         [ (3, return Bit); (2, map (fun w -> Fixed w) (0 -- 20)); (2, return Nat);
           (2, map (fun k -> Read_bits k) (0 -- 40)) ]))

let bitbuf_block_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"Writer.append_bits at every bit offset equals a loop of Writer.bit"
         ~count:200 bit_chunks
         (fun chunks ->
           List.for_all
             (fun start ->
               let wb = Bitbuf.Writer.create () and wl = Bitbuf.Writer.create () in
               for i = 1 to start do
                 Bitbuf.Writer.bit wb (i land 1 = 1);
                 Bitbuf.Writer.bit wl (i land 1 = 1)
               done;
               List.iter
                 (fun c ->
                   Bitbuf.Writer.append_bits wb (Bitbuf.Bits.of_bools c);
                   Array.iter (Bitbuf.Writer.bit wl) c;
                   (* an odd bit between chunks moves the next one's offset *)
                   Bitbuf.Writer.bit wb true;
                   Bitbuf.Writer.bit wl true)
                 chunks;
               Bitbuf.Writer.to_bits wb = Bitbuf.Writer.to_bits wl)
             (List.init 8 Fun.id)));
    Prop.qtest
      (QCheck.Test.make ~name:"blit_packed is the packed contents, padding zero" ~count:300
         QCheck.(pair bit_chunks (int_range 0 5))
         (fun (chunks, dst_off) ->
           let w = Bitbuf.Writer.create () in
           List.iter (fun c -> Bitbuf.Writer.append_bits w (Bitbuf.Bits.of_bools c)) chunks;
           let packed = pack_reference (Array.concat chunks) in
           let n = String.length packed in
           (* surround the target range with set bytes the blit must not touch *)
           let dst = Bytes.make (dst_off + n + 2) '\255' in
           Bitbuf.Writer.blit_packed w dst ~dst_off;
           Bytes.sub_string dst dst_off n = packed
           && Bytes.sub_string dst 0 dst_off = String.make dst_off '\255'
           && Bytes.sub_string dst (dst_off + n) 2 = "\255\255"));
    Prop.qtest
      (QCheck.Test.make
         ~name:"of_packed and of_bits read the same values and underflow at the same bit"
         ~count:400
         (QCheck.make
            QCheck.Gen.(
              triple (map Array.of_list (list_size (0 -- 120) bool)) (0 -- 3) gen_script))
         (fun (bits, off, script) ->
           (* junk before [off] and in the padding of the last byte must not
              be read *)
           let packed = Bytes.of_string (String.make off '\170' ^ pack_reference bits) in
           let nbits = Array.length bits in
           if nbits mod 8 <> 0 then begin
             let last = Bytes.length packed - 1 in
             Bytes.set_uint8 packed last (Bytes.get_uint8 packed last lor (0xff lsl (nbits mod 8) land 0xff))
           end;
           let rp = Bitbuf.Reader.of_packed (Bytes.to_string packed) ~off ~nbits in
           run_script rp script = run_script (Bitbuf.Reader.of_bits (Bitbuf.Bits.of_bools bits)) script));
    Prop.qtest
      (QCheck.Test.make ~name:"Reader.read_bits at every offset returns the same bits, padding zero"
         ~count:200
         (QCheck.make QCheck.Gen.(map Array.of_list (list_size (0 -- 120) bool)))
         (fun bits ->
           let nbits = Array.length bits in
           (* set junk around the range, which must not reach the result *)
           let packed = Bytes.of_string ("\255" ^ pack_reference bits) in
           if nbits mod 8 <> 0 then begin
             let last = Bytes.length packed - 1 in
             Bytes.set_uint8 packed last (Bytes.get_uint8 packed last lor (0xff lsl (nbits mod 8) land 0xff))
           end;
           let packed = Bytes.to_string packed in
           List.for_all
             (fun p ->
               p > nbits
               ||
               let k = (nbits - p) * (p + 1) / 8 in
               List.for_all
                 (fun r ->
                   for _ = 1 to p do ignore (Bitbuf.Reader.bit r) done;
                   (* structural equality: same bits and zero padding *)
                   Bitbuf.Reader.read_bits r k = Bitbuf.Bits.of_bools (Array.sub bits p k)
                   && Bitbuf.Reader.remaining r = nbits - p - k)
                 [ Bitbuf.Reader.of_bits (Bitbuf.Bits.of_bools bits);
                   Bitbuf.Reader.of_packed packed ~off:1 ~nbits ])
             (List.init 8 Fun.id)));
    Prop.qtest
      (QCheck.Test.make ~name:"Bits.hash: equal strings agree, an appended false bit differs"
         ~count:200
         QCheck.(pair (array_of_size Gen.(0 -- 70) bool) small_nat)
         (fun (bits, seed) ->
           let w = Bitbuf.Writer.create () in
           Array.iter (Bitbuf.Writer.bit w) bits;
           let h = Bitbuf.Bits.hash ~seed (Bitbuf.Bits.of_bools bits) in
           (* Equal strings built two ways agree; the length is folded in,
              so trailing-zero padding is not a collision. *)
           h = Bitbuf.Bits.hash ~seed (Bitbuf.Writer.to_bits w)
           && h <> Bitbuf.Bits.hash ~seed (Bitbuf.Bits.of_bools (Array.append bits [| false |]))));
    Alcotest.test_case "read_bits underflows before consuming, on both constructors" `Quick (fun () ->
        List.iter
          (fun (name, r) ->
            ignore (Bitbuf.Reader.bit r);
            Alcotest.check_raises name Bitbuf.Reader.Underflow (fun () ->
                ignore (Bitbuf.Reader.read_bits r 10));
            Alcotest.(check int) (name ^ " remaining") 8 (Bitbuf.Reader.remaining r);
            Alcotest.(check int) (name ^ " rest") 8 (Bitbuf.Bits.length (Bitbuf.Reader.read_bits r 8)))
          [ ("of_bits", Bitbuf.Reader.of_bits (Bitbuf.Bits.of_bools (Array.make 9 true)));
            ("of_packed", Bitbuf.Reader.of_packed "\255\001" ~off:0 ~nbits:9) ]);
    Alcotest.test_case "of_packed refuses a range outside the string" `Quick (fun () ->
        Alcotest.check_raises "past the end"
          (Invalid_argument "Bitbuf.Reader.of_packed: range outside the string") (fun () ->
            ignore (Bitbuf.Reader.of_packed "ab" ~off:1 ~nbits:9));
        Alcotest.(check int) "exact fit" 9
          (Bitbuf.Reader.remaining (Bitbuf.Reader.of_packed "abc" ~off:1 ~nbits:9))) ]

let dynarray_tests =
  [ Alcotest.test_case "push/pop/last/truncate" `Quick (fun () ->
        let d = Dynarray.create () in
        for i = 0 to 99 do
          Dynarray.push d i
        done;
        Alcotest.(check int) "len" 100 (Dynarray.length d);
        Alcotest.(check int) "last" 99 (Dynarray.last d);
        Alcotest.(check int) "pop" 99 (Dynarray.pop d);
        Dynarray.truncate d 10;
        Alcotest.(check (list int)) "list" (List.init 10 Fun.id) (Dynarray.to_list d));
    Prop.qtest
      (QCheck.Test.make ~name:"to_array/of_array roundtrip" ~count:200
         QCheck.(small_list int)
         (fun l ->
           let d = Dynarray.of_array (Array.of_list l) in
           Dynarray.to_list d = l)) ]

let heap_tests =
  [ Prop.qtest
      (QCheck.Test.make ~name:"drain sorts" ~count:200
         QCheck.(small_list int)
         (fun l ->
           let h = Heap.of_array ~cmp:compare (Array.of_list l) in
           Heap.drain h = List.sort compare l));
    Alcotest.test_case "peek/pop interplay" `Quick (fun () ->
        let h = Heap.create ~cmp:compare in
        Alcotest.(check (option int)) "empty" None (Heap.pop h);
        Heap.push h 5;
        Heap.push h 2;
        Heap.push h 9;
        Alcotest.(check (option int)) "peek" (Some 2) (Heap.peek h);
        Alcotest.(check (option int)) "pop" (Some 2) (Heap.pop h);
        Alcotest.(check int) "len" 2 (Heap.length h)) ]

let perm_tests =
  [ Alcotest.test_case "iter_all visits n! distinct" `Quick (fun () ->
        for n = 0 to 6 do
          let seen = Hashtbl.create 720 in
          Perm.iter_all n (fun p ->
              check "is perm" true (Perm.is_permutation p);
              Hashtbl.replace seen (Array.to_list p) ());
          Alcotest.(check int)
            (Printf.sprintf "n=%d" n)
            (if n = 0 then 1 else Perm.factorial n)
            (Hashtbl.length seen)
        done);
    Prop.qtest
      (QCheck.Test.make ~name:"inverse . apply = id" ~count:200
         QCheck.(pair small_int (int_range 1 30))
         (fun (seed, n) ->
           let p = Perm.random (Prng.create seed) n in
           let inv = Perm.inverse p in
           Array.for_all (fun i -> inv.(p.(i)) = i) (Array.init n Fun.id))) ]

let mix_tests =
  [ Alcotest.test_case "deterministic and nonzero" `Quick (fun () ->
        Alcotest.(check int) "stable" (Mix.mix 42) (Mix.mix 42);
        check "mix 0 <> 0" true (Mix.mix 0 <> 0);
        check "nonnegative" true (Mix.mix min_int >= 0 && Mix.mix max_int >= 0));
    Prop.qtest
      (QCheck.Test.make ~name:"no trivial collisions on small ints" ~count:1
         QCheck.unit
         (fun () ->
           let seen = Hashtbl.create 4096 in
           for i = 0 to 4095 do
             Hashtbl.replace seen (Mix.mix i) ()
           done;
           Hashtbl.length seen = 4096));
    Prop.qtest
      (QCheck.Test.make ~name:"combine is order-dependent" ~count:200
         QCheck.(pair small_nat small_nat)
         (fun (a, b) ->
           QCheck.assume (a <> b);
           Mix.combine (Mix.combine 0 a) b <> Mix.combine (Mix.combine 0 b) a)) ]

let deque_tests =
  [ Alcotest.test_case "owner LIFO, thief FIFO" `Quick (fun () ->
        let d = Deque.create ~capacity:2 () in
        for i = 1 to 5 do
          Deque.push d i
        done;
        Alcotest.(check (option int)) "pop newest" (Some 5) (Deque.pop d);
        Alcotest.(check (option int)) "steal oldest" (Some 1) (Deque.steal d);
        Alcotest.(check (option int)) "steal next" (Some 2) (Deque.steal d);
        Alcotest.(check (option int)) "pop" (Some 4) (Deque.pop d);
        Alcotest.(check (option int)) "pop last" (Some 3) (Deque.pop d);
        Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
        Alcotest.(check (option int)) "empty steal" None (Deque.steal d));
    Alcotest.test_case "grows past initial capacity" `Quick (fun () ->
        let d = Deque.create ~capacity:1 () in
        for i = 0 to 999 do
          Deque.push d i
        done;
        Alcotest.(check int) "size" 1000 (Deque.size d);
        for i = 999 downto 0 do
          Alcotest.(check (option int)) "pop order" (Some i) (Deque.pop d)
        done);
    Alcotest.test_case "two-domain steal stress: every element exactly once" `Quick (fun () ->
        (* The owner interleaves pushes and pops while a thief drains from
           the top; between them every pushed element must surface exactly
           once.  Exercises the pop/steal CAS race on the last element. *)
        let d = Deque.create ~capacity:4 () in
        let n = 20_000 in
        let stolen = ref [] in
        let thief =
          Domain.spawn (fun () ->
              let taken = ref 0 in
              while !taken < n / 4 do
                match Deque.steal d with
                | Some v ->
                  stolen := v :: !stolen;
                  incr taken
                | None -> Domain.cpu_relax ()
              done)
        in
        let popped = ref [] in
        let next = ref 0 in
        while !next < n do
          Deque.push d !next;
          incr next;
          if !next mod 3 = 0 then
            match Deque.pop d with
            | Some v -> popped := v :: !popped
            | None -> ()
        done;
        Domain.join thief;
        let rec drain () =
          match Deque.pop d with
          | Some v ->
            popped := v :: !popped;
            drain ()
          | None -> ()
        in
        drain ();
        let all = List.rev_append !stolen !popped in
        Alcotest.(check int) "total count" n (List.length all);
        let sorted = List.sort Int.compare all in
        check "each element exactly once" true
          (List.for_all2 Int.equal sorted (List.init n Fun.id))) ]

let cset_tests =
  [ Alcotest.test_case "add/mem/cardinal, zero remapped" `Quick (fun () ->
        let t = Cset.create ~limit:100 () in
        check "added" true (Cset.add t 7 = `Added);
        check "present" true (Cset.add t 7 = `Present);
        check "mem" true (Cset.mem t 7);
        check "not mem" false (Cset.mem t 8);
        check "zero digest works" true (Cset.add t 0 = `Added);
        check "zero present" true (Cset.add t 0 = `Present);
        Alcotest.(check int) "cardinal" 2 (Cset.cardinal t);
        check "capacity is a power of two" true
          (let c = Cset.capacity t in
           c land (c - 1) = 0));
    Alcotest.test_case "fills up to limit then reports Full" `Quick (fun () ->
        let t = Cset.create ~limit:16 () in
        Alcotest.(check int) "limit clamp" 16 (Cset.limit t);
        for i = 1 to 16 do
          check "added" true (Cset.add t (Mix.mix i) = `Added)
        done;
        check "full" true (Cset.add t (Mix.mix 99) = `Full);
        check "existing still present" true (Cset.add t (Mix.mix 3) = `Present));
    Alcotest.test_case "two-domain adds claim each digest exactly once" `Quick (fun () ->
        let t = Cset.create ~limit:20_000 () in
        let n = 10_000 in
        let adds k =
          (* Both domains race over the same digest set, offset so they
             collide constantly. *)
          let mine = ref 0 in
          for i = 0 to n - 1 do
            let i = if k = 0 then i else n - 1 - i in
            match Cset.add t (Mix.mix i) with
            | `Added -> incr mine
            | `Present -> ()
            | `Full -> Alcotest.fail "unexpected Full"
          done;
          !mine
        in
        let other = Domain.spawn (fun () -> adds 1) in
        let a = adds 0 in
        let b = Domain.join other in
        Alcotest.(check int) "claims partition the digests" n (a + b);
        Alcotest.(check int) "cardinal" n (Cset.cardinal t)) ]

(* The rank set against the obvious model: a sorted, duplicate-free list. *)
let rankset_tests =
  let agrees n s model =
    Rankset.cardinal s = List.length model
    && Rankset.to_list s = model
    && List.rev (Rankset.fold (fun acc v -> v :: acc) [] s) = model
    && (let seen = ref [] in
        Rankset.iter (fun v -> seen := v :: !seen) s;
        List.rev !seen = model)
    && List.for_all Fun.id (List.mapi (fun k v -> Rankset.nth s k = v) model)
    && List.for_all
         (fun v -> Rankset.mem s v = List.mem v model)
         (List.init (n + 2) (fun v -> v - 1))
  in
  [ Prop.qtest
      (QCheck.Test.make ~name:"add/remove/nth/mem/iter/copy/blit against a sorted list" ~count:200
         QCheck.(pair (int_range 0 70) (list (pair (int_range 0 3) small_nat)))
         (fun (n, ops) ->
           (* op 0 adds, 1 removes, 2 takes a copy, 3 blits the copy back. *)
           let s = Rankset.create n in
           let model = ref [] in
           let saved = ref (Rankset.copy s, []) in
           List.for_all
             (fun (op, x) ->
               (if n > 0 then
                  let v = x mod n in
                  match op with
                  | 0 ->
                    Rankset.add s v;
                    if not (List.mem v !model) then model := List.sort compare (v :: !model)
                  | 1 ->
                    Rankset.remove s v;
                    model := List.filter (fun u -> u <> v) !model
                  | 2 -> saved := (Rankset.copy s, !model)
                  | _ ->
                    Rankset.blit ~src:(fst !saved) ~dst:s;
                    model := snd !saved);
               agrees n s !model && agrees n (fst !saved) (snd !saved))
             ops));
    Alcotest.test_case "bounds" `Quick (fun () ->
        let s = Rankset.create 3 in
        Alcotest.check_raises "add" (Invalid_argument "Rankset.add: out of range") (fun () ->
            Rankset.add s 3);
        Alcotest.check_raises "nth" (Invalid_argument "Rankset.nth") (fun () ->
            ignore (Rankset.nth s 0));
        Alcotest.check_raises "blit" (Invalid_argument "Rankset.blit: capacities differ")
          (fun () -> Rankset.blit ~src:(Rankset.create 4) ~dst:s)) ]

let suites =
  [ ("support.prng", prng_tests);
    ("support.bitset", bitset_tests);
    ("support.bitbuf", bitbuf_tests);
    ("support.bitbuf-block", bitbuf_block_tests);
    ("support.dynarray", dynarray_tests);
    ("support.heap", heap_tests);
    ("support.perm", perm_tests);
    ("support.mix", mix_tests);
    ("support.deque", deque_tests);
    ("support.cset", cset_tests);
    ("support.rankset", rankset_tests) ]
