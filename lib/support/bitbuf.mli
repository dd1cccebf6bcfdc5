(** Bit-exact message buffers.

    Whiteboard messages are measured in bits (the paper's size bounds are
    [O(log n)] or [o(n)] bits), so payloads are encoded through this module
    rather than through native values.  [Writer] appends bits to a growable
    buffer; [Reader] consumes them in order.  Elias gamma/delta codes give
    self-delimiting naturals so message layouts need no explicit lengths.

    The packed layout, used by {!Writer.blit_packed} and {!Reader.of_packed},
    puts bit [i] of a stream in byte [i / 8] at bit position [i mod 8]:
    LSB-first within each byte.  The writer leaves the bits past the end of
    the stream in the last byte zero; the reader never reads them. *)

module Writer : sig
  type t

  val create : unit -> t

  val length_bits : t -> int
  (** Number of bits written so far. *)

  val bit : t -> bool -> unit

  val bools : t -> bool array -> unit
  (** [bools w a] appends the bits of [a] in order, growing the buffer at
      most once. *)

  val fixed : t -> width:int -> int -> unit
  (** [fixed w ~width v] appends the [width] low bits of [v], most significant
      first.  Requires [0 <= width <= 62] and [0 <= v < 2^width]. *)

  val gamma : t -> int -> unit
  (** Elias gamma code of a positive integer. *)

  val delta : t -> int -> unit
  (** Elias delta code of a positive integer. *)

  val nat : t -> int -> unit
  (** Self-delimiting code of a natural ([>= 0]): delta of [v + 1]. *)

  val contents : t -> bool array
  (** Snapshot of the bits written so far. *)

  val blit_packed : t -> Bytes.t -> dst_off:int -> unit
  (** [blit_packed w dst ~dst_off] copies the bits written so far into
      [dst] from byte [dst_off], in the packed layout: [(length_bits w + 7) / 8]
      bytes, LSB-first within each byte, padding bits zero.  No
      intermediate array is built.
      @raise Invalid_argument if [dst] is too short. *)
end

module Reader : sig
  type t

  val of_bits : bool array -> t
  (** Read a bool array, one element per bit. *)

  val of_packed : string -> off:int -> nbits:int -> t
  (** [of_packed s ~off ~nbits] reads [nbits] bits in the packed layout
      (LSB-first within each byte) from [s] starting at byte [off], in place:
      nothing is copied or unpacked up front.  Bits of the last byte past
      [nbits] are not read.
      @raise Invalid_argument if the [(nbits + 7) / 8] bytes from [off] do
      not lie inside [s]. *)

  val remaining : t -> int
  val bit : t -> bool

  val bools : t -> int -> bool array
  (** [bools r k] reads the next [k] bits as an array: one [Array.sub] from
      an {!of_bits} source, a bit loop from an {!of_packed} one.
      @raise Underflow if fewer than [k] bits remain, before consuming any.
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
