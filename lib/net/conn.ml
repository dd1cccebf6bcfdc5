module Obs = Wb_obs

type fault = Timeout | Closed | Bad_frame of Wire.error

module Metrics = struct
  let connections = Obs.Metrics.counter ~help:"connections accepted by referee servers" "net.connections"
  let frames_sent = Obs.Metrics.counter ~help:"wire frames sent" "net.frames_sent"
  let frames_received = Obs.Metrics.counter ~help:"wire frames received" "net.frames_received"
  let bytes_sent = Obs.Metrics.counter ~help:"wire bytes sent (header + body)" "net.bytes_sent"
  let bytes_received = Obs.Metrics.counter ~help:"wire bytes received" "net.bytes_received"

  let malformed_frames =
    Obs.Metrics.counter ~help:"frames rejected as malformed or oversized" "net.malformed_frames"

  let timeouts = Obs.Metrics.counter ~help:"reads that exceeded the connection timeout" "net.timeouts"
  let disconnects = Obs.Metrics.counter ~help:"connections lost before RUN-END" "net.disconnects"
end

(* Per-connection byte totals, filled in by the transport closures (which
   are built before the record exists) and read by the session layer to
   correlate wire traffic with the board bits it carried. *)
type stats = { mutable sent_bytes : int; mutable recv_bytes : int }

type t = {
  peer_name : string;
  send_fn : Obs.Span.context option -> Wire.frame -> (unit, fault) result;
  recv_fn : unit -> (Wire.frame * Obs.Span.context option, fault) result;
  close_fn : unit -> unit;
  stats : stats;
  mutable closed : bool;
}

let peer c = c.peer_name

let fresh_stats () = { sent_bytes = 0; recv_bytes = 0 }

let make_ctx_with ~stats ~peer ~send ~recv ~close =
  { peer_name = peer; send_fn = send; recv_fn = recv; close_fn = close; stats; closed = false }

let make_ctx ~peer ~send ~recv ~close =
  make_ctx_with ~stats:(fresh_stats ()) ~peer ~send ~recv ~close

(* Context-blind assembly for fault-injection tests: outgoing contexts are
   dropped, incoming frames carry none. *)
let make ~peer ~send ~recv ~close =
  make_ctx ~peer
    ~send:(fun _ctx frame -> send frame)
    ~recv:(fun () -> Result.map (fun f -> (f, None)) (recv ()))
    ~close

let note_fault = function
  | Timeout -> Obs.Metrics.incr Metrics.timeouts
  | Closed -> Obs.Metrics.incr Metrics.disconnects
  | Bad_frame _ -> Obs.Metrics.incr Metrics.malformed_frames

let send ?ctx c frame =
  if c.closed then Error Closed
  else
    match c.send_fn ctx frame with
    | Ok () ->
      Obs.Metrics.incr Metrics.frames_sent;
      Ok ()
    | Error f ->
      note_fault f;
      Error f

let recv_ctx c =
  if c.closed then Error Closed
  else
    match c.recv_fn () with
    | Ok pair ->
      Obs.Metrics.incr Metrics.frames_received;
      Ok pair
    | Error f ->
      note_fault f;
      Error f

let recv c = Result.map fst (recv_ctx c)

let close c =
  if not c.closed then begin
    c.closed <- true;
    c.close_fn ()
  end

let is_closed c = c.closed

let bytes_sent c = c.stats.sent_bytes

let bytes_received c = c.stats.recv_bytes

let fault_to_string = function
  | Timeout -> "read timeout"
  | Closed -> "connection closed"
  | Bad_frame e -> Wire.error_to_string e

(* ---- socket transport ------------------------------------------------- *)

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

(* Read exactly [len] bytes; [`Eof] on a clean close at a frame boundary
   is still reported as [Closed] by the caller. *)
let read_exact fd buf len =
  let got = ref 0 in
  let status = ref `Ok in
  while !status = `Ok && !got < len do
    match Unix.read fd buf !got (len - !got) with
    | 0 -> status := `Eof
    | n -> got := !got + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> status := `Timeout
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> status := `Eof
  done;
  !status

(* A peer that vanishes turns our next write into SIGPIPE, which would kill
   the whole referee; writes must fail with EPIPE (reported as [Closed])
   instead.  Installed on first socket use so non-network users of the
   library keep their signal disposition; the once-only is an Atomic
   exchange, not a [lazy] — per-connection threads racing the first force
   of a shared lazy would raise RacyLazy on OCaml 5, and [set_signal] is
   idempotent anyway. *)
let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let of_fd ?(timeout = 5.0) ~peer fd =
  ignore_sigpipe ();
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout with Unix.Unix_error _ -> ());
  (* The referee's sync-then-query pattern is two small back-to-back writes;
     without TCP_NODELAY, Nagle holds the second until the peer's delayed ACK
     (~40ms), which multiplies into seconds per session and trips read
     timeouts on long-idle nodes. *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let stats = fresh_stats () in
  let send ctx frame =
    let bytes = Wire.encode ?ctx frame in
    match write_all fd (Bytes.unsafe_of_string bytes) 0 (String.length bytes) with
    | () ->
      Obs.Metrics.add Metrics.bytes_sent (String.length bytes);
      stats.sent_bytes <- stats.sent_bytes + String.length bytes;
      Ok ()
    | exception Unix.Unix_error _ -> Error Closed
  in
  let recv () =
    let header = Bytes.create Wire.header_bytes in
    match read_exact fd header Wire.header_bytes with
    | `Eof -> Error Closed
    | `Timeout -> Error Timeout
    | `Ok -> (
      Obs.Metrics.add Metrics.bytes_received Wire.header_bytes;
      stats.recv_bytes <- stats.recv_bytes + Wire.header_bytes;
      match Wire.decode_header (Bytes.unsafe_to_string header) with
      | Error e -> Error (Bad_frame e)
      | Ok (body_len, crc) -> (
        let body = Bytes.create body_len in
        match read_exact fd body body_len with
        | `Eof -> Error Closed
        | `Timeout -> Error Timeout
        | `Ok -> (
          Obs.Metrics.add Metrics.bytes_received body_len;
          stats.recv_bytes <- stats.recv_bytes + body_len;
          match Wire.decode_body ~crc (Bytes.unsafe_to_string body) with
          | Ok pair -> Ok pair
          | Error e -> Error (Bad_frame e))))
  in
  let close () =
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  make_ctx_with ~stats ~peer ~send ~recv ~close

(* ---- deterministic loopback ------------------------------------------- *)

exception Hangup

let loopback_served ~peer ~handler =
  let inbox = Queue.create () in
  let hung_up = ref false in
  let stats = fresh_stats () in
  let roundtrip ?ctx frame =
    let bytes = Wire.encode ?ctx frame in
    Obs.Metrics.add Metrics.bytes_sent (String.length bytes);
    Obs.Metrics.add Metrics.bytes_received (String.length bytes);
    (* every loopback frame is both sent and received by this process *)
    stats.sent_bytes <- stats.sent_bytes + String.length bytes;
    stats.recv_bytes <- stats.recv_bytes + String.length bytes;
    match Wire.decode_ctx bytes with
    | Ok pair -> pair
    | Error e -> raise (Failure ("loopback codec violation: " ^ Wire.error_to_string e))
  in
  let send ctx frame =
    if !hung_up then Error Closed
    else begin
      let frame, ctx = roundtrip ?ctx frame in
      match handler ~ctx frame with
      | replies ->
        List.iter (fun f -> Queue.push (roundtrip f) inbox) replies;
        Ok ()
      | exception Hangup ->
        hung_up := true;
        Error Closed
    end
  in
  let recv () =
    if Queue.is_empty inbox then Error Closed else Ok (Queue.pop inbox)
  in
  make_ctx_with ~stats ~peer ~send ~recv ~close:(fun () -> ())
