module P = Wb_model
module G = Wb_graph.Graph
module W = Wb_support.Bitbuf.Writer
module Bits = Wb_support.Bitbuf.Bits
module Codec = Wb_protocols.Codec

let gadget g ~s ~t =
  let n = G.n g in
  if s = t || s < 0 || t < 0 || s >= n || t >= n then invalid_arg "Triangle_reduction.gadget";
  G.extend g ~extra:1 ~new_edges:[ (s, n); (t, n) ]

let gadget_faithful g =
  assert (not (Wb_graph.Algo.has_triangle g));
  let n = G.n g in
  let ok = ref true in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      if Wb_graph.Algo.has_triangle (gadget g ~s ~t) <> G.mem_edge g s t then ok := false
    done
  done;
  !ok

(* One simulated SIMASYNC message of the inner protocol: composed from the
   empty board and a synthetic view. *)
let simulate_message (module A : P.Protocol.S) ~inner_n ~id ~neighbors =
  let view = P.View.of_parts ~id ~n:inner_n ~neighbors in
  let writer, _local = A.compose view (P.Board.create inner_n) (A.init view) in
  Wb_support.Bitbuf.Writer.to_bits writer

let transform (protocol : P.Protocol.t) : P.Protocol.t =
  let (module A) = protocol in
  if A.model <> P.Model.Sim_async then
    invalid_arg "Triangle_reduction.transform: inner protocol must be SIMASYNC";
  let module Impl = struct
    let name = Printf.sprintf "build-from[%s]" A.name

    let model = P.Model.Sim_async

    let traits = P.Protocol.Traits.opaque

    let message_bound ~n =
      Codec.id_bits n + (2 * Codec.payload_bits (A.message_bound ~n:(n + 1)))

    type local = unit

    let init _ = ()

    let wants_to_activate _ _ () = true

    let compose view _board () =
      let inner_n = P.View.n view + 1 in
      let plain =
        simulate_message (module A) ~inner_n ~id:(P.View.id view) ~neighbors:(P.View.neighbors view)
      in
      let with_apex =
        simulate_message (module A) ~inner_n ~id:(P.View.id view)
          ~neighbors:(Array.append (P.View.neighbors view) [| inner_n - 1 |])
      in
      let w = W.create () in
      Codec.write_id w (P.View.paper_id view);
      Codec.write_payload w plain;
      Codec.write_payload w with_apex;
      (w, ())

    let output ~n board =
      let inner_n = n + 1 in
      let plain = Array.make n Bits.empty and with_apex = Array.make n Bits.empty in
      P.Board.iter
        (fun m ->
          let r = P.Message.reader m in
          let id = Codec.read_id r in
          plain.(id - 1) <- Codec.read_payload r;
          with_apex.(id - 1) <- Codec.read_payload r)
        board;
      let edges = ref [] in
      for s = 0 to n - 1 do
        for t = s + 1 to n - 1 do
          (* Reassemble the whiteboard the inner protocol would produce on
             the gadget G'_{s,t} and ask its output function. *)
          let inner_board = P.Board.create inner_n in
          for i = 0 to n - 1 do
            let payload = if i = s || i = t then with_apex.(i) else plain.(i) in
            P.Board.append inner_board (P.Message.make ~author:i ~payload)
          done;
          let apex = simulate_message (module A) ~inner_n ~id:n ~neighbors:[| s; t |] in
          P.Board.append inner_board (P.Message.make ~author:n ~payload:apex);
          (match A.output ~n:inner_n inner_board with
          | P.Answer.Bool true -> edges := (s, t) :: !edges
          | P.Answer.Bool false -> ()
          | _ -> failwith "Triangle_reduction: inner protocol did not answer a boolean")
        done
      done;
      P.Answer.Graph (G.of_edges n !edges)
  end in
  (module Impl)
