let width_of v =
  if v < 0 then invalid_arg "Bitbuf.width_of";
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

module Bits = struct
  (* [data] holds exactly [(len + 7) / 8] bytes, padding bits zero. *)
  type t = { len : int; data : string }

  let empty = { len = 0; data = "" }

  let length b = b.len

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Bitbuf.Bits.get";
    Char.code b.data.[i lsr 3] land (1 lsl (i land 7)) <> 0

  let of_bools a =
    let len = Array.length a in
    let data = Bytes.make ((len + 7) / 8) '\000' in
    Array.iteri
      (fun i set ->
        if set then Bytes.set_uint8 data (i lsr 3) (Bytes.get_uint8 data (i lsr 3) lor (1 lsl (i land 7))))
      a;
    { len; data = Bytes.unsafe_to_string data }

  let equal a b = a.len = b.len && String.equal a.data b.data

  (* Seven little-endian bytes (56 bits, inside OCaml's int) per step,
     then the length, so trailing zero bits are not a collision. *)
  let hash ~seed b =
    let s = b.data in
    let n = String.length s in
    let acc = ref (Mix.mix seed) and i = ref 0 in
    while !i < n do
      let stop = if n - !i < 7 then n else !i + 7 in
      let w = ref 0 in
      for j = stop - 1 downto !i do
        w := (!w lsl 8) lor Char.code (String.unsafe_get s j)
      done;
      acc := Mix.combine !acc !w;
      i := stop
    done;
    Mix.combine !acc b.len
end

module Writer = struct
  type t = { mutable bits : Bytes.t; mutable len : int }

  let create () = { bits = Bytes.make 16 '\000'; len = 0 }

  let length_bits w = w.len

  (* Grow (by doubling) until [extra] more bits fit.  Bytes past [len] are
     always zero: the buffer starts zeroed and only bits below [len] are
     ever set. *)
  let reserve w extra =
    let need = w.len + extra in
    let cap = Bytes.length w.bits in
    if need > 8 * cap then begin
      let size = ref (2 * cap) in
      while need > 8 * !size do size := 2 * !size done;
      let bigger = Bytes.make !size '\000' in
      Bytes.blit w.bits 0 bigger 0 cap;
      w.bits <- bigger
    end

  (* Append one bit into reserved capacity.  Bits are LSB-first within each
     byte, and the buffer starts zeroed, so only set bits need a store. *)
  let push w b =
    if b then begin
      let i = w.len lsr 3 in
      Bytes.set w.bits i (Char.unsafe_chr (Char.code (Bytes.get w.bits i) lor (1 lsl (w.len land 7))))
    end;
    w.len <- w.len + 1

  let bit w b =
    reserve w 1;
    push w b

  let fixed w ~width v =
    if width < 0 || width > 62 then invalid_arg "Bitbuf.fixed: width";
    if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg "Bitbuf.fixed: value out of range";
    reserve w width;
    for i = width - 1 downto 0 do
      push w ((v lsr i) land 1 = 1)
    done

  let gamma w v =
    if v <= 0 then invalid_arg "Bitbuf.gamma: needs positive";
    let width = width_of v in
    for _ = 1 to width - 1 do bit w false done;
    fixed w ~width v

  let delta w v =
    if v <= 0 then invalid_arg "Bitbuf.delta: needs positive";
    let width = width_of v in
    gamma w width;
    (* The leading 1 of [v] is implied by the gamma-coded width. *)
    fixed w ~width:(width - 1) (v - (1 lsl (width - 1)))

  let nat w v =
    if v < 0 then invalid_arg "Bitbuf.nat: needs natural";
    delta w (v + 1)

  (* Source byte [i] lands at bit [len mod 8] of destination byte
     [len / 8 + i]; its high bits spill into the next byte.  The
     destination bytes are zero past [len], so OR-ing is enough, and a
     spill is nonzero only when it holds bits below the new length, which
     [reserve] covered. *)
  let append_bits w (b : Bits.t) =
    let n = b.len in
    if n > 0 then begin
      reserve w n;
      let dst = w.len lsr 3 and sh = w.len land 7 in
      let nbytes = (n + 7) lsr 3 in
      if sh = 0 then Bytes.blit_string b.data 0 w.bits dst nbytes
      else
        for i = 0 to nbytes - 1 do
          let x = Char.code (String.unsafe_get b.data i) in
          let d = dst + i in
          Bytes.unsafe_set w.bits d
            (Char.unsafe_chr (Char.code (Bytes.unsafe_get w.bits d) lor ((x lsl sh) land 0xff)));
          let hi = x lsr (8 - sh) in
          if hi <> 0 then Bytes.set w.bits (d + 1) (Char.unsafe_chr hi)
        done;
      w.len <- w.len + n
    end

  let to_bits w = { Bits.len = w.len; data = Bytes.sub_string w.bits 0 ((w.len + 7) / 8) }

  let blit_packed w dst ~dst_off = Bytes.blit w.bits 0 dst dst_off ((w.len + 7) / 8)
end

module Reader = struct
  exception Underflow

  (* [len] bits in the packed layout, read in place from byte [off] of
     [s]: a message's own string, or a received wire frame. *)
  type t = { s : string; off : int; len : int; mutable pos : int }

  let of_bits (b : Bits.t) = { s = b.data; off = 0; len = b.len; pos = 0 }

  let of_packed s ~off ~nbits =
    if off < 0 || nbits < 0 || off + ((nbits + 7) / 8) > String.length s then
      invalid_arg "Bitbuf.Reader.of_packed: range outside the string";
    { s; off; len = nbits; pos = 0 }

  let remaining r = r.len - r.pos

  (* Inlined, so the Elias decoders below pay no call per bit. *)
  let[@inline] bit r =
    let p = r.pos in
    if p >= r.len then raise Underflow;
    r.pos <- p + 1;
    Char.code (String.unsafe_get r.s (r.off + (p lsr 3))) land (1 lsl (p land 7)) <> 0

  (* Destination byte [i] is source bits [pos + 8i ..], i.e. the high part
     of source byte [q + i] and the low part of [q + i + 1] when that byte
     is still inside the range.  Bits past the [k] read are masked off. *)
  let read_bits r k =
    if k < 0 then invalid_arg "Bitbuf.Reader.read_bits: negative length";
    if k > remaining r then raise Underflow;
    let p = r.pos in
    r.pos <- p + k;
    let nbytes = (k + 7) lsr 3 in
    let dst = Bytes.create nbytes in
    let q = r.off + (p lsr 3) and sh = p land 7 in
    if sh = 0 then Bytes.blit_string r.s q dst 0 nbytes
    else begin
      let last = r.off + ((r.len - 1) lsr 3) in
      for i = 0 to nbytes - 1 do
        let lo = Char.code (String.unsafe_get r.s (q + i)) lsr sh in
        let hi =
          if q + i < last then Char.code (String.unsafe_get r.s (q + i + 1)) lsl (8 - sh) else 0
        in
        Bytes.unsafe_set dst i (Char.unsafe_chr ((lo lor hi) land 0xff))
      done
    end;
    if k land 7 <> 0 then
      Bytes.set_uint8 dst (nbytes - 1) (Bytes.get_uint8 dst (nbytes - 1) land ((1 lsl (k land 7)) - 1));
    { Bits.len = k; data = Bytes.unsafe_to_string dst }

  let fixed r ~width =
    let v = ref 0 in
    for _ = 1 to width do
      v := (!v lsl 1) lor (if bit r then 1 else 0)
    done;
    !v

  let gamma r =
    let zeros = ref 0 in
    while not (bit r) do incr zeros done;
    let v = ref 1 in
    for _ = 1 to !zeros do
      v := (!v lsl 1) lor (if bit r then 1 else 0)
    done;
    !v

  let delta r =
    let width = gamma r in
    (1 lsl (width - 1)) lor fixed r ~width:(width - 1)

  let nat r = delta r - 1
end
