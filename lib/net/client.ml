module M = Wb_model
module Obs = Wb_obs

type finished = { outcome : string; detail : string; rounds : int }

type phase = Joining | Running of int | Finished of finished | Failed of string

(* The protocol's [local] type is existential, so once the view is known we
   close over it and expose just the two board-driven operations. *)
type driver = { wants : M.Board.t -> bool; compose : M.Board.t -> Wb_support.Bitbuf.Bits.t }

type joined = {
  node : int;
  replica : M.Board.t;
  driver : driver;
  mutable generation : int option;  (* of the last BOARD-DELTA applied *)
  mutable written_at : int option;
}

type t = {
  protocol : M.Protocol.t;
  key : string;
  session : string;
  node_pref : int option;
  trace : Obs.Trace.t option;
  parent : Obs.Span.context option;
  mutable minter : Obs.Span.minter;
  mutable phase : phase;
  mutable joined : joined option;
  mutable composes : int;
}

let minter_seed parent = match parent with Some c -> c.Obs.Span.trace lxor c.Obs.Span.span | None -> 2

let create ~protocol ~key ~session ?node_pref ?trace ?parent () =
  { protocol;
    key;
    session;
    node_pref;
    trace;
    parent;
    minter = Obs.Span.minter ~seed:(minter_seed parent) ();
    phase = Joining;
    joined = None;
    composes = 0 }

let hello t = Wire.Hello { session = t.session; protocol = t.key; node_pref = t.node_pref }

let phase t = t.phase

let node_id t = Option.map (fun j -> j.node) t.joined

let board t = Option.map (fun j -> j.replica) t.joined

let composes t = t.composes

let make_driver (module P : M.Protocol.S) view =
  let local = ref (P.init view) in
  { wants = (fun board -> P.wants_to_activate view board !local);
    compose =
      (fun board ->
        let writer, l = P.compose view board !local in
        local := l;
        Wb_support.Bitbuf.Writer.to_bits writer) }

let fail t msg =
  t.phase <- Failed msg;
  [ Wire.Error { code = Wire.Unexpected_frame; detail = msg } ]

(* A handler span parents under the incoming RPC's context when the frame
   carries one (the referee's net.rpc.* span), falling back to the client's
   own configured parent — that link is what stitches client work into the
   driver's trace across the wire. *)
let with_span t ~ctx ~round name f =
  match t.trace with
  | None -> f ()
  | Some tr ->
    let parent = match ctx with Some _ -> ctx | None -> t.parent in
    let attrs =
      match node_id t with None -> [] | Some v -> [ ("node", string_of_int (v + 1)) ]
    in
    let sp = Obs.Span.start ?parent ~attrs ~round t.minter tr name in
    let result = f () in
    Obs.Span.finish ~round tr sp;
    result

let handle t ~ctx frame =
  match (t.phase, frame) with
  | (Finished _ | Failed _), _ -> []
  | Joining, Wire.Hello_ack { session; node; n; neighbors; bound = _ } ->
    if session <> t.session then fail t "HELLO-ACK for a different session"
    else begin
      let view = M.View.of_parts ~id:node ~n ~neighbors in
      t.joined <-
        Some
          { node;
            replica = M.Board.create n;
            driver = make_driver t.protocol view;
            generation = None;
            written_at = None };
      t.phase <- Running node;
      (* Every client of a session shares the driver's parent context, so a
         parent-derived seed alone would mint the same ids on every node;
         salt with the node id now that it is known. *)
      t.minter <-
        Obs.Span.minter ~seed:(minter_seed t.parent lxor ((node + 1) * 0x9e3779b9)) ();
      []
    end
  | Joining, Wire.Error { code; detail } ->
    t.phase <- Failed (Printf.sprintf "%s: %s" (Wire.error_code_name code) detail);
    []
  | Joining, f -> fail t ("expected HELLO-ACK, got " ^ Wire.opcode_name f)
  | Running _, Wire.Board_delta { from_pos; generation; messages } ->
    let j = Option.get t.joined in
    let stale =
      match j.generation with Some g -> g <> generation && from_pos > 0 | None -> false
    in
    if stale then fail t "board generation changed under an incremental delta"
    else if from_pos <> M.Board.length j.replica then
      fail t
        (Printf.sprintf "BOARD-DELTA from %d but replica has %d messages" from_pos
           (M.Board.length j.replica))
    else begin
      j.generation <- Some generation;
      match
        List.iter
          (fun (author, payload) ->
            M.Board.append j.replica (M.Message.make ~author ~payload))
          messages
      with
      | () -> []
      | exception Invalid_argument msg -> fail t ("invalid BOARD-DELTA: " ^ msg)
    end
  | Running _, Wire.Activate_query { round } ->
    let j = Option.get t.joined in
    with_span t ~ctx ~round "client.activate" (fun () ->
        [ Wire.Activate_reply { round; activate = j.driver.wants j.replica } ])
  | Running _, Wire.Compose_request { round } ->
    let j = Option.get t.joined in
    t.composes <- t.composes + 1;
    with_span t ~ctx ~round "client.compose" (fun () ->
        [ Wire.Compose_reply { round; payload = j.driver.compose j.replica } ])
  | Running _, Wire.Write_grant { round = _; position } ->
    (Option.get t.joined).written_at <- Some position;
    []
  | Running _, Wire.Run_end { outcome; detail; rounds } ->
    t.phase <- Finished { outcome; detail; rounds };
    []
  | Running _, Wire.Error { code; detail } ->
    t.phase <- Failed (Printf.sprintf "%s: %s" (Wire.error_code_name code) detail);
    []
  | Running _, f -> fail t ("unexpected frame while running: " ^ Wire.opcode_name f)

let run t conn =
  let finish r =
    Conn.close conn;
    r
  in
  match Conn.send ?ctx:t.parent conn (hello t) with
  | Error f -> finish (Error (Conn.fault_to_string f))
  | Ok () ->
    let rec pump () =
      match Conn.recv_ctx conn with
      | Error f -> finish (Error (Conn.fault_to_string f))
      | Ok (frame, ctx) -> (
        let replies = handle t ~ctx frame in
        let send_failure =
          List.fold_left
            (fun acc reply ->
              match acc with
              | Some _ -> acc
              | None -> (
                match Conn.send conn reply with Ok () -> None | Error f -> Some f))
            None replies
        in
        match send_failure with
        | Some f -> finish (Error (Conn.fault_to_string f))
        | None -> (
          match t.phase with
          | Finished fin -> finish (Ok fin)
          | Failed msg -> finish (Error msg)
          | Joining | Running _ -> pump ()))
    in
    pump ()
