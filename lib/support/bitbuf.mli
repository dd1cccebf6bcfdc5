(** Bit-exact message buffers.

    Whiteboard messages are measured in bits (the paper's size bounds are
    [O(log n)] or [o(n)] bits), so payloads are encoded through this module
    rather than through native values.  [Writer] appends bits to a growable
    buffer; [Reader] consumes them in order; [Bits] is a finished, immutable
    bit string — the payload of a whiteboard message.  Elias gamma/delta
    codes give self-delimiting naturals so message layouts need no explicit
    lengths.

    Every bit string here has one representation, the packed layout: bit
    [i] of a stream lives in byte [i / 8] at bit position [i mod 8],
    LSB-first within each byte.  The writer builds it, {!Bits.t} stores it,
    the wire carries it, and a {!Reader.t} reads it in place from a string
    and a byte offset (its one source).  The padding bits past the end of a
    writer's or a {!Bits.t}'s last byte are zero, so a bit string of [b]
    bits costs [(b + 7) / 8] bytes, and two {!Bits.t} are structurally
    equal exactly when they hold the same bits. *)

module Bits : sig
  type t
  (** An immutable bit string in the packed layout, padding bits zero. *)

  val empty : t

  val length : t -> int
  (** Number of bits. *)

  val get : t -> int -> bool
  (** [get b i] is bit [i].
      @raise Invalid_argument if [i] is outside [0 .. length b - 1]. *)

  val of_bools : bool array -> t

  val equal : t -> t -> bool
  (** Bit equality; agrees with structural equality. *)

  val hash : seed:int -> t -> int
  (** Hash the bits under [seed] with {!Mix.combine}, seven bytes per
      step, then the length: strings that differ only by trailing zero
      bits hash apart.  Deterministic across runs and processes. *)
end

module Writer : sig
  type t

  val create : unit -> t

  val length_bits : t -> int
  (** Number of bits written so far. *)

  val bit : t -> bool -> unit

  val fixed : t -> width:int -> int -> unit
  (** [fixed w ~width v] appends the [width] low bits of [v], most significant
      first.  Requires [0 <= width <= 62] and [0 <= v < 2^width]. *)

  val gamma : t -> int -> unit
  (** Elias gamma code of a positive integer. *)

  val delta : t -> int -> unit
  (** Elias delta code of a positive integer. *)

  val nat : t -> int -> unit
  (** Self-delimiting code of a natural ([>= 0]): delta of [v + 1]. *)

  val append_bits : t -> Bits.t -> unit
  (** [append_bits w b] appends the bits of [b] in order, a byte at a time
      (shifted into place when [w] is not on a byte boundary), growing the
      buffer at most once. *)

  val to_bits : t -> Bits.t
  (** The bits written so far, as one [(length_bits w + 7) / 8]-byte copy. *)

  val blit_packed : t -> Bytes.t -> dst_off:int -> unit
  (** [blit_packed w dst ~dst_off] copies the bits written so far into
      [dst] from byte [dst_off], in the packed layout: [(length_bits w + 7) / 8]
      bytes, padding bits zero.
      @raise Invalid_argument if [dst] is too short. *)
end

module Reader : sig
  type t

  val of_bits : Bits.t -> t
  (** Read a bit string in place. *)

  val of_packed : string -> off:int -> nbits:int -> t
  (** [of_packed s ~off ~nbits] reads [nbits] bits in the packed layout
      from [s] starting at byte [off], in place: nothing is copied up front.
      Bits of the last byte past [nbits] are not read.
      @raise Invalid_argument if the [(nbits + 7) / 8] bytes from [off] do
      not lie inside [s]. *)

  val remaining : t -> int
  val bit : t -> bool

  val read_bits : t -> int -> Bits.t
  (** [read_bits r k] reads the next [k] bits as a bit string, a byte at a
      time.  Bits of the source past the [k] read are not copied: the
      result's padding is zero.
      @raise Underflow if fewer than [k] bits remain, before consuming or
      allocating anything.
      @raise Invalid_argument if [k] is negative. *)

  val fixed : t -> width:int -> int
  val gamma : t -> int
  val delta : t -> int
  val nat : t -> int

  exception Underflow
  (** Raised when reading past the end of the buffer. *)
end

val width_of : int -> int
(** [width_of v] is the number of bits needed to store [v >= 0]
    ([width_of 0 = 0]). *)
