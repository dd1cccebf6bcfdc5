module P = Wb_model
module G = Wb_graph.Graph
module W = Wb_support.Bitbuf.Writer
module Bits = Wb_support.Bitbuf.Bits
module Codec = Wb_protocols.Codec

let gadget g ~i ~j =
  let n = G.n g in
  if i = j || i < 0 || j < 0 || i >= n || j >= n then invalid_arg "Mis_reduction.gadget";
  let apex_edges = ref [] in
  for v = 0 to n - 1 do
    if v <> i && v <> j then apex_edges := (v, n) :: !apex_edges
  done;
  G.extend g ~extra:1 ~new_edges:!apex_edges

let gadget_faithful g =
  let n = G.n g in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let h = gadget g ~i ~j in
      let full = Wb_graph.Algo.is_maximal_independent_set h [ n; i; j ] in
      if G.mem_edge g i j then begin
        if full then ok := false;
        if not (Wb_graph.Algo.is_maximal_independent_set h [ n; i ]) then ok := false;
        if not (Wb_graph.Algo.is_maximal_independent_set h [ n; j ]) then ok := false
      end
      else if not full then ok := false
    done
  done;
  !ok

let simulate_message (module A : P.Protocol.S) ~inner_n ~id ~neighbors =
  let view = P.View.of_parts ~id ~n:inner_n ~neighbors in
  let writer, _local = A.compose view (P.Board.create inner_n) (A.init view) in
  Wb_support.Bitbuf.Writer.to_bits writer

let transform ~make_inner : P.Protocol.t =
  let module Impl = struct
    let name = "build-from[mis-oracle]"

    let model = P.Model.Sim_async

    let traits = P.Protocol.Traits.opaque

    let inner ~n : P.Protocol.t =
      let p = make_inner ~root:n in
      if P.Protocol.model p <> P.Model.Sim_async then
        invalid_arg "Mis_reduction.transform: inner protocol must be SIMASYNC";
      p

    let message_bound ~n =
      let (module A) = inner ~n in
      Codec.id_bits n + (2 * Codec.payload_bits (A.message_bound ~n:(n + 1)))

    type local = unit

    let init _ = ()

    let wants_to_activate _ _ () = true

    (* In any gadget the node's view differs only in whether the apex is a
       neighbour, and k ∈ {i, j} exactly when it is NOT: two messages cover
       every G^(x)_{i,j}. *)
    let compose view _board () =
      let n = P.View.n view in
      let inner_n = n + 1 in
      let (module A) = inner ~n in
      let detached =
        simulate_message (module A) ~inner_n ~id:(P.View.id view) ~neighbors:(P.View.neighbors view)
      in
      let attached =
        simulate_message (module A) ~inner_n ~id:(P.View.id view)
          ~neighbors:(Array.append (P.View.neighbors view) [| inner_n - 1 |])
      in
      let w = W.create () in
      Codec.write_id w (P.View.paper_id view);
      Codec.write_payload w detached;
      Codec.write_payload w attached;
      (w, ())

    let output ~n board =
      let inner_n = n + 1 in
      let (module A) = inner ~n in
      let detached = Array.make n Bits.empty and attached = Array.make n Bits.empty in
      P.Board.iter
        (fun m ->
          let r = P.Message.reader m in
          let id = Codec.read_id r in
          detached.(id - 1) <- Codec.read_payload r;
          attached.(id - 1) <- Codec.read_payload r)
        board;
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let inner_board = P.Board.create inner_n in
          for v = 0 to n - 1 do
            let payload = if v = i || v = j then detached.(v) else attached.(v) in
            P.Board.append inner_board (P.Message.make ~author:v ~payload)
          done;
          let apex_neighbors =
            Array.of_list (List.filter (fun v -> v <> i && v <> j) (List.init n Fun.id))
          in
          let apex = simulate_message (module A) ~inner_n ~id:n ~neighbors:apex_neighbors in
          P.Board.append inner_board (P.Message.make ~author:n ~payload:apex);
          (match A.output ~n:inner_n inner_board with
          | P.Answer.Node_set s ->
            (* {x, v_i, v_j} is answered exactly on non-edges. *)
            if List.sort compare s <> [ i; j; n ] then edges := (i, j) :: !edges
          | _ -> failwith "Mis_reduction: inner protocol did not answer a node set")
        done
      done;
      P.Answer.Graph (G.of_edges n !edges)
  end in
  (module Impl)
