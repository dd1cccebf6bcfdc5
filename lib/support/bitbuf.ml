let width_of v =
  if v < 0 then invalid_arg "Bitbuf.width_of";
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

module Writer = struct
  type t = { mutable bits : Bytes.t; mutable len : int }

  let create () = { bits = Bytes.make 16 '\000'; len = 0 }

  let length_bits w = w.len

  (* Grow (by doubling) until [extra] more bits fit. *)
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

  let bools w bits =
    reserve w (Array.length bits);
    Array.iter (push w) bits

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

  let contents w = Array.init w.len (fun i -> Char.code (Bytes.get w.bits (i / 8)) land (1 lsl (i mod 8)) <> 0)

  let blit_packed w dst ~dst_off = Bytes.blit w.bits 0 dst dst_off ((w.len + 7) / 8)
end

module Reader = struct
  exception Underflow

  (* Message payloads arrive as bool arrays; wire frames as packed bytes
     read in place from [off]. *)
  type source = Bits of bool array | Packed of { s : string; off : int }

  type t = { src : source; len : int; mutable pos : int }

  let of_bits data = { src = Bits data; len = Array.length data; pos = 0 }

  let of_packed s ~off ~nbits =
    if off < 0 || nbits < 0 || off + ((nbits + 7) / 8) > String.length s then
      invalid_arg "Bitbuf.Reader.of_packed: range outside the string";
    { src = Packed { s; off }; len = nbits; pos = 0 }

  let remaining r = r.len - r.pos

  let packed_bit s off p = Char.code s.[off + (p lsr 3)] land (1 lsl (p land 7)) <> 0

  (* Inlined, so the Elias decoders below pay no call per bit: with the
     source match, [bit] is past the size the compiler inlines on its own. *)
  let[@inline] bit r =
    let p = r.pos in
    if p >= r.len then raise Underflow;
    r.pos <- p + 1;
    match r.src with
    | Bits a -> a.(p)
    | Packed { s; off } -> packed_bit s off p

  let bools r k =
    if k < 0 then invalid_arg "Bitbuf.Reader.bools: negative length";
    if k > remaining r then raise Underflow;
    let p = r.pos in
    r.pos <- p + k;
    match r.src with
    | Bits a -> Array.sub a p k
    | Packed { s; off } -> Array.init k (fun i -> packed_bit s off (p + i))

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
