(** A whiteboard message: the author's node index plus a bit-exact payload.

    The author index is part of the board bookkeeping (the paper's messages
    conventionally begin with [ID(v)], and every lower bound counts it);
    payload sizes are measured in bits and charged against the protocol's
    [f(n)] bound.  The payload is an immutable packed
    {!Wb_support.Bitbuf.Bits.t}: [(b + 7) / 8] bytes for [b] bits, shared
    as is by the board, the kernel's digest and the wire. *)

type t

val make : author:int -> payload:Wb_support.Bitbuf.Bits.t -> t
val author : t -> int
val payload : t -> Wb_support.Bitbuf.Bits.t
val size_bits : t -> int
val equal : t -> t -> bool

val reader : t -> Wb_support.Bitbuf.Reader.t
(** Fresh reader over the payload, reading it in place. *)

val of_writer : author:int -> Wb_support.Bitbuf.Writer.t -> t
(** The bits written so far, as one [(b + 7) / 8]-byte copy. *)

val pp : Format.formatter -> t -> unit
