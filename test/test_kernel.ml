(* Kernel invariants that no single protocol test would notice.

   Golden executions: every registry protocol on its sweep instances under
   six adversaries, printed field by field and hashed.  The pinned digest
   was computed on the list-based kernel that preceded the worklist one, so
   any change to what an execution does — outcome, write order, the round
   a node activated or wrote in, payload sizes, composition counts, stats,
   or (n <= 7) the exhaustive verifier's counts — changes it.  The transcript
   covers every protocol in [Reg.all ()], so adding a registry protocol
   changes the digest without any kernel change: recompute it on the
   parent's kernel (the parent tree plus the new protocol), never on the
   tree under test.  The case is [`Slow] (about 20 s, most of it [verify] at n = 7):
   a plain [dune runtest] runs it, a [--quick-tests] pass skips it. *)

open Wb_model
module Reg = Wb_protocols.Registry
module Prng = Wb_support.Prng

let sizes = [ 6; 7; 16; 40; 120 ]
let seeds = [ 1; 2; 3 ]

let adversaries g ~seed =
  let prio = Array.init (Wb_graph.Graph.n g) Fun.id in
  Prng.shuffle (Prng.create (seed + 1000)) prio;
  [ Adversary.min_id;
    Adversary.max_id;
    Adversary.alternating_extremes;
    Adversary.last_writer_neighbor_avoider g;
    Adversary.random (Prng.create seed);
    Adversary.by_priority prio ]

let add_ints buf a =
  Array.iter (fun x -> Buffer.add_string buf (string_of_int x); Buffer.add_char buf ',') a;
  Buffer.add_char buf ';'

let add_outcome buf = function
  | Engine.Success a -> Buffer.add_string buf (Format.asprintf "success %a" Answer.pp a)
  | Engine.Deadlock -> Buffer.add_string buf "deadlock"
  | Engine.Size_violation { node; bits; bound } ->
    Buffer.add_string buf (Printf.sprintf "size %d %d %d" node bits bound)
  | Engine.Output_error e -> Buffer.add_string buf ("error " ^ e)

let add_run buf (r : Engine.run) =
  add_outcome buf r.Engine.outcome;
  Buffer.add_char buf '|';
  List.iter (add_ints buf)
    [ r.Engine.writes; r.activation_round; r.write_round; r.message_bits; r.compose_count ];
  let s = r.Engine.stats in
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d\n" s.Engine.rounds s.max_message_bits s.total_bits)

let add_verify buf (e : Reg.entry) g =
  let problem = e.Reg.problem (Wb_graph.Graph.n g) in
  let check (r : Engine.run) =
    match r.Engine.outcome with
    | Engine.Success a -> Problems.valid_answer problem g a
    | Engine.Deadlock | Engine.Size_violation _ | Engine.Output_error _ -> false
  in
  match Engine.verify_packed e.Reg.protocol g check with
  | Ok v ->
    Buffer.add_string buf
      (Printf.sprintf "verify %b %d %d %d %d\n" v.Engine.valid v.states v.finals v.dedup_hits
         v.orbit_collapses)
  | Error (`Limit l) -> Buffer.add_string buf (Printf.sprintf "verify limit %d\n" l)

let transcript () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (e : Reg.entry) ->
      List.iter
        (fun n ->
          List.iter
            (fun seed ->
              let g = Reg.sweep_graph e ~seed ~n in
              Buffer.add_string buf (Printf.sprintf "%s n=%d seed=%d\n" e.Reg.key n seed);
              List.iter
                (fun adv ->
                  Buffer.add_string buf (Adversary.name adv ^ " ");
                  add_run buf (Engine.run_packed e.Reg.protocol g adv))
                (adversaries g ~seed);
              if n <= 7 then add_verify buf e g)
            seeds)
        sizes)
    (Reg.all ());
  Buffer.contents buf

let golden = "1d8c628b1dba9311d777de19e1e0e1c8"

(* Minor-heap words allocated per write by one [Engine.run_packed] of
   SIMASYNC build-forest on a random tree under min-id.  Allocation is
   deterministic, so unlike a timing this measures the same on any host;
   a kernel that did O(n) work per write would allocate O(n) per write. *)
let words_per_write n =
  let e = Option.get (Reg.find "build-forest") in
  let g = Wb_graph.Gen.random_tree (Prng.create 1) n in
  let before = Gc.minor_words () in
  let run = Engine.run_packed e.Reg.protocol g Adversary.min_id in
  let words = Gc.minor_words () -. before in
  if not (Engine.succeeded run) then Alcotest.failf "build-forest failed at n=%d" n;
  words /. float_of_int n

let suites =
  [ ( "kernel.golden",
      [ Alcotest.test_case "registry x sweep x six adversaries" `Slow (fun () ->
            Alcotest.(check string) "transcript digest" golden
              (Digest.to_hex (Digest.string (transcript ())))) ] );
    ( "kernel.alloc",
      [ Alcotest.test_case "words per write flat from n=1000 to n=8000" `Quick (fun () ->
            let small = words_per_write 1000 and large = words_per_write 8000 in
            if large > 1.25 *. small then
              Alcotest.failf "%.0f words/write at n=8000 vs %.0f at n=1000" large small);
        (* An absolute ceiling as well: a payload stored one heap word per
           bit, or a per-write copy the kernel does not need, shows here
           before it shows in any timing. *)
        Alcotest.test_case "at most 170 words per write at n=1000" `Quick (fun () ->
            let words = words_per_write 1000 in
            if words > 170. then Alcotest.failf "%.1f words/write at n=1000, ceiling 170" words) ] ) ]
