(* The communication-cost counters, with the same zero-cost discipline as
   [Prof]: when disabled (the default), [record] is one atomic load — no
   registration, no histogram update — so a never-enabled process exposes
   no [cost.*] series at all.  The instruments are process-global
   singletons registered lazily on the first enabled write; parallel
   exploration workers may race the first fill, so the winner is published
   by compare-and-set and losers adopt it (the registry's idempotent
   [register] hands every contender the same series anyway). *)

let enabled =
  Atomic.make
    (match Sys.getenv_opt "WB_COST" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | Some _ | None -> false)

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

type instruments = { total_bits : Metrics.counter; message_bits : Metrics.histogram }

let inst_cell : instruments option Atomic.t = Atomic.make None

let instruments () =
  match Atomic.get inst_cell with
  | Some i -> i
  | None ->
    let i =
      { total_bits = Metrics.counter ~help:"bits appended to boards (cost ledger)" "cost.total_bits";
        message_bits =
          Metrics.histogram ~help:"encode width per message, bits" "cost.message_bits" }
    in
    if Atomic.compare_and_set inst_cell None (Some i) then i
    else Option.get (Atomic.get inst_cell)

let record ~bits =
  if Atomic.get enabled then begin
    let i = instruments () in
    Metrics.add i.total_bits bits;
    Metrics.observe i.message_bits bits
  end

(* ---- theorem-bound certificates --------------------------------------- *)

type certificate = {
  form : string;
  envelope : n:int -> int;
  floor : (n:int -> int) option;
  floor_class : string option;
}

type verdict = {
  n : int;
  measured : int;
  envelope_bits : int;
  floor_bits : int option;
  envelope_ok : bool;
  floor_ok : bool;
}

let check cert ~n ~measured =
  let envelope_bits = cert.envelope ~n in
  let floor_bits = Option.map (fun f -> f ~n) cert.floor in
  { n;
    measured;
    envelope_bits;
    floor_bits;
    envelope_ok = measured <= envelope_bits;
    floor_ok = (match floor_bits with None -> true | Some fl -> measured >= fl) }

let verdict_ok v = v.envelope_ok && v.floor_ok
