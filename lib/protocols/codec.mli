(** Shared wire helpers for protocol payloads.

    Everything a protocol writes goes through {!Wb_support.Bitbuf}; this
    module adds the two encodings the protocols share: identifiers (positive
    naturals, self-delimiting) and arbitrary-precision naturals (for the
    power sums of Section 3, which exceed the native word). *)

val write_id : Wb_support.Bitbuf.Writer.t -> int -> unit
(** Paper identifier, [>= 1]. *)

val read_id : Wb_support.Bitbuf.Reader.t -> int

val write_int : Wb_support.Bitbuf.Writer.t -> int -> unit
(** Natural number ([>= 0]), self-delimiting. *)

val read_int : Wb_support.Bitbuf.Reader.t -> int

val write_signed : Wb_support.Bitbuf.Writer.t -> int -> unit
(** Any native int, zig-zag coded. *)

val read_signed : Wb_support.Bitbuf.Reader.t -> int

val write_big : Wb_support.Bitbuf.Writer.t -> Wb_bignum.Nat.t -> unit
val read_big : Wb_support.Bitbuf.Reader.t -> Wb_bignum.Nat.t

val write_payload : Wb_support.Bitbuf.Writer.t -> Wb_support.Bitbuf.Bits.t -> unit
(** Length-prefixed embedding of a whole message payload — used by the
    reduction transformers, whose messages carry simulated inner-protocol
    messages verbatim. *)

val read_payload : Wb_support.Bitbuf.Reader.t -> Wb_support.Bitbuf.Bits.t
(** Inverse of {!write_payload}.
    @raise Wb_support.Bitbuf.Reader.Underflow if the declared length runs
    past the end of the reader, before allocating anything. *)

val payload_bits : int -> int
(** Upper bound on the embedded size of a payload of [b] bits. *)

val id_bits : int -> int
(** Upper bound on the encoded size of an identifier [<= n]. *)

val int_bits : int -> int
(** Upper bound on the encoded size of a natural [<= v]. *)

val big_bits : Wb_bignum.Nat.t -> int
(** Upper bound on the encoded size of a natural [<= v]. *)
