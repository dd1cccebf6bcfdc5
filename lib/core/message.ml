module Bits = Wb_support.Bitbuf.Bits

type t = { author : int; payload : Bits.t }

let make ~author ~payload = { author; payload }

let author m = m.author

let payload m = m.payload

let size_bits m = Bits.length m.payload

let equal a b = a.author = b.author && Bits.equal a.payload b.payload

let reader m = Wb_support.Bitbuf.Reader.of_bits m.payload

let of_writer ~author w = { author; payload = Wb_support.Bitbuf.Writer.to_bits w }

let pp ppf m =
  Format.fprintf ppf "#%d:" (m.author + 1);
  for i = 0 to Bits.length m.payload - 1 do
    Format.pp_print_char ppf (if Bits.get m.payload i then '1' else '0')
  done
