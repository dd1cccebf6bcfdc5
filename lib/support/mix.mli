(** Deterministic 63-bit integer mixing for canonical-state digests.

    The exploration stack identifies machine configurations by Zobrist-style
    incremental hashes: each state component contributes [mix (encode
    component)] XORed into a running lane, so the lane is insensitive to the
    order in which components were added — exactly the board-order
    insensitivity the canonical digest needs (see docs/EXPLORATION.md).

    The finalizer is the splitmix64 avalanche (the same one {!Prng} seeds
    with), truncated to OCaml's 63-bit [int].  It is a fixed pure function:
    digests are reproducible across runs, processes and architectures with
    63-bit ints. *)

val mix : int -> int
(** Avalanche [x] into a well-distributed non-negative 63-bit value.
    [mix 0 <> 0], so XOR-accumulated lanes stay distinguishable from the
    empty lane. *)

val combine : int -> int -> int
(** [combine acc x] folds [x] into [acc] order-dependently (for hashing
    sequences, as opposed to the XOR idiom for multisets). *)
