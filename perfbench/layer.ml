(* Layer accounting for the traced run, done entirely from outside the
   libraries: every call into a layer's public function is bracketed by
   [enter]/[leave], and a span's self time (and self minor words) is its
   duration minus the durations of the spans opened inside it.

   The bracket allocates nothing — the open-span stack is preallocated int
   arrays, the clock is the unboxed monotonic one and [Gc.minor_words] is
   unboxed — so the minor words a layer reports are the layer's own, and
   they repeat exactly at a fixed seed.  Single-domain only: the traced run
   never brackets code that runs on another domain. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

type t = { name : string; mutable calls : int; mutable self_ns : int; mutable self_words : int }

let make name = { name; calls = 0; self_ns = 0; self_words = 0 }

let reset l =
  l.calls <- 0;
  l.self_ns <- 0;
  l.self_words <- 0

let self_s l = float_of_int l.self_ns *. 1e-9

let max_depth = 32
let open_layer = Array.make max_depth (make "root")
let start_ns = Array.make max_depth 0
let start_words = Array.make max_depth 0
let child_ns = Array.make max_depth 0
let child_words = Array.make max_depth 0
let depth = ref 0

let enter l =
  let d = !depth in
  open_layer.(d) <- l;
  child_ns.(d) <- 0;
  child_words.(d) <- 0;
  depth := d + 1;
  start_words.(d) <- minor_words ();
  start_ns.(d) <- now_ns ()

let leave () =
  let t = now_ns () in
  let w = minor_words () in
  let d = !depth - 1 in
  depth := d;
  let l = open_layer.(d) in
  let dur = t - start_ns.(d) and words = w - start_words.(d) in
  l.calls <- l.calls + 1;
  l.self_ns <- l.self_ns + dur - child_ns.(d);
  l.self_words <- l.self_words + words - child_words.(d);
  if d > 0 then begin
    child_ns.(d - 1) <- child_ns.(d - 1) + dur;
    child_words.(d - 1) <- child_words.(d - 1) + words
  end

(* For call sites off the hot path; hot wrappers inline enter/leave so no
   closure is allocated inside the measured window of the caller. *)
let span l f =
  enter l;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

(* A growable int buffer for latency samples (nanoseconds). *)
module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }
  let clear s = s.len <- 0

  let push s v =
    if s.len = Array.length s.data then begin
      let bigger = Array.make (2 * s.len) 0 in
      Array.blit s.data 0 bigger 0 s.len;
      s.data <- bigger
    end;
    s.data.(s.len) <- v;
    s.len <- s.len + 1

  let length s = s.len

  (* Nearest-rank percentile, [None] when empty. *)
  let percentile s p =
    if s.len = 0 then None
    else begin
      let a = Array.sub s.data 0 s.len in
      Array.sort compare a;
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int s.len)) - 1 in
      Some a.(max 0 (min (s.len - 1) rank))
    end
end
