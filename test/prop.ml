(* The one way a property becomes an Alcotest case.  QCheck_alcotest
   self-seeds every run unless given a random state, which would make the
   Tier-1 suite draw fresh inputs each time; here every property gets its
   own state seeded from [QCHECK_SEED] when that is set (how scripts/ci.sh
   runs its rotating-seed pass) and from a fixed constant otherwise, so a
   plain run is reproducible bit for bit and independent of test order.
   Properties count as [`Quick] (QCheck_alcotest's default is [`Slow]) so
   that a [--quick-tests] pass, like the rotating-seed one, still runs
   every one of them. *)

let default_seed = 2012

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None -> default_seed
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "QCHECK_SEED must be an integer, got %S" s))

let qtest t =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| seed |]) t
