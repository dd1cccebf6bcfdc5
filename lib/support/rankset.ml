(* [tree] is 1-based: [tree.(i)] counts the members in [(i - lowbit i), i),
   shifted by one so element [v] lives at index [v + 1].  [top] is the
   largest power of two <= n (1 when n = 0), where the rank descent
   starts. *)
type t = {
  n : int;
  tree : int array;
  member : Bytes.t;
  mutable card : int;
  top : int;
}

let create n =
  if n < 0 then invalid_arg "Rankset.create";
  let top = ref 1 in
  while !top * 2 <= n do
    top := !top * 2
  done;
  { n;
    tree = Array.make (n + 1) 0;
    member = Bytes.make n '\000';
    card = 0;
    top = !top }

let cardinal s = s.card

let mem s v = v >= 0 && v < s.n && Bytes.unsafe_get s.member v <> '\000'

let update s v d =
  let i = ref (v + 1) in
  while !i <= s.n do
    s.tree.(!i) <- s.tree.(!i) + d;
    i := !i + (!i land - !i)
  done

let check s v op = if v < 0 || v >= s.n then invalid_arg ("Rankset." ^ op ^ ": out of range")

let add s v =
  check s v "add";
  if not (mem s v) then begin
    Bytes.unsafe_set s.member v '\001';
    s.card <- s.card + 1;
    update s v 1
  end

let remove s v =
  check s v "remove";
  if mem s v then begin
    Bytes.unsafe_set s.member v '\000';
    s.card <- s.card - 1;
    update s v (-1)
  end

(* Binary-lifting descent: the longest prefix holding at most [k] members
   ends just before the member of rank [k]. *)
let nth s k =
  if k < 0 || k >= s.card then invalid_arg "Rankset.nth";
  let pos = ref 0 and rest = ref k and step = ref s.top in
  while !step > 0 do
    let next = !pos + !step in
    if next <= s.n && s.tree.(next) <= !rest then begin
      pos := next;
      rest := !rest - s.tree.(next)
    end;
    step := !step lsr 1
  done;
  !pos

(* Ascending walks descend the implicit tree of aligned blocks: the
   elements [b, b + size), b a multiple of size, holding c members split
   into halves whose lower one holds [tree.(b + size/2)] (all c when that
   index lies past n: no member lives there).  Empty blocks are skipped,
   so a walk over k members visits O(k log (n/k)) blocks, and never more
   than the 4n there are. *)
let fold f init s =
  let rec walk acc b size c =
    if size = 1 then f acc b
    else begin
      let h = size lsr 1 in
      let left = if b + h <= s.n then s.tree.(b + h) else c in
      let acc = if left > 0 then walk acc b h left else acc in
      if c > left then walk acc (b + h) h (c - left) else acc
    end
  in
  if s.card = 0 then init else walk init 0 (2 * s.top) s.card

let iter f s = fold (fun () v -> f v) () s

let to_list s = List.rev (fold (fun l v -> v :: l) [] s)

let copy s = { s with tree = Array.copy s.tree; member = Bytes.copy s.member }

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Rankset.blit: capacities differ";
  (* An element loop, not [Array.blit]: the compiler knows these are ints
     and stores them without the write barrier a generic blit into an old
     array pays per element. *)
  for i = 0 to src.n do
    Array.unsafe_set dst.tree i (Array.unsafe_get src.tree i)
  done;
  Bytes.blit src.member 0 dst.member 0 src.n;
  dst.card <- src.card
