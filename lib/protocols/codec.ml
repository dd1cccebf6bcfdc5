module W = Wb_support.Bitbuf.Writer
module R = Wb_support.Bitbuf.Reader
module Bits = Wb_support.Bitbuf.Bits
module Nat = Wb_bignum.Nat

let write_id w id =
  if id < 1 then invalid_arg "Codec.write_id: identifiers are positive";
  W.delta w id

let read_id = R.delta

let write_int = W.nat

let read_int = R.nat

let write_big w v =
  let len = Nat.bit_length v in
  W.nat w len;
  for i = len - 1 downto 0 do
    W.bit w (Nat.nth_bit v i)
  done

let read_big r =
  let len = R.nat r in
  let acc = ref Nat.zero in
  for i = len - 1 downto 0 do
    let shifted = Nat.shift_left !acc 1 in
    acc := (if R.bit r then Nat.add shifted Nat.one else shifted);
    ignore i
  done;
  !acc

let write_signed w v = W.nat w (if v >= 0 then 2 * v else (-2 * v) - 1)

let read_signed r =
  let z = R.nat r in
  if z land 1 = 0 then z / 2 else -((z + 1) / 2)

let write_payload w bits =
  W.nat w (Bits.length bits);
  W.append_bits w bits

(* [read_bits] checks the declared length against what remains before it
   allocates, so a forged length raises [R.Underflow]. *)
let read_payload r =
  let len = R.nat r in
  R.read_bits r len

(* Elias delta of v costs |v| + 2|‌|v|| - 1 bits with |x| = width of x. *)
let delta_bits v =
  let width = Wb_support.Bitbuf.width_of v in
  let width_width = Wb_support.Bitbuf.width_of width in
  width + (2 * width_width) - 1

let id_bits n = delta_bits (max n 1)

let int_bits v = delta_bits (v + 1)

let big_bits v =
  let len = Nat.bit_length v in
  int_bits len + len

let payload_bits b = int_bits b + b
