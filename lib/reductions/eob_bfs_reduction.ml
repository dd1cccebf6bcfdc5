module P = Wb_model
module G = Wb_graph.Graph

let input_ok g = G.n g mod 2 = 0 && G.n g >= 2 && Wb_graph.Algo.is_even_odd_bipartite g

(* Input index x <-> gadget index x + 1 <-> paper id j = x + 2.
   Pendants: odd j gets v_{j+n-2} (gadget index x + s), even j gets
   v_{j+n} (gadget index x + s + 2), and v_1 = index 0 attaches to
   target's pendant. *)
let pendant_of ~s x = if (x + 2) mod 2 = 1 then x + s else x + s + 2

let gadget g ~target =
  if not (input_ok g) then invalid_arg "Eob_bfs_reduction.gadget: input must be EOB of even order";
  let s = G.n g in
  if target < 0 || target >= s || target mod 2 = 0 then
    invalid_arg "Eob_bfs_reduction.gadget: target must be an odd node index";
  let shifted = List.map (fun (u, v) -> (u + 1, v + 1)) (G.edges g) in
  let pendants = List.init s (fun x -> (x + 1, pendant_of ~s x)) in
  let hook = (0, pendant_of ~s target) in
  G.of_edges ((2 * s) + 1) (hook :: (pendants @ shifted))

let gadget_faithful g ~target =
  let h = gadget g ~target in
  let dist = Wb_graph.Algo.bfs_dist h 0 in
  let ok = ref true in
  for x = 0 to G.n g - 1 do
    if x mod 2 = 0 then
      (* even paper id in the gadget: the Figure 2 characterisation. *)
      if dist.(x + 1) = 3 <> G.mem_edge g target x then ok := false
  done;
  !ok

let depths_from_forest parent =
  let n = Array.length parent in
  let depth = Array.make n (-1) in
  let root = Array.make n (-1) in
  let rec resolve v =
    if depth.(v) < 0 then begin
      if parent.(v) < 0 then begin
        depth.(v) <- 0;
        root.(v) <- v
      end
      else begin
        resolve parent.(v);
        depth.(v) <- depth.(parent.(v)) + 1;
        root.(v) <- root.(parent.(v))
      end
    end
  in
  for v = 0 to n - 1 do
    resolve v
  done;
  (depth, root)

(* Neighbourhood, inside gadget G_target, of a gadget node that is NOT an
   input node: v_1 (index 0) or a pendant (indices s+1 .. 2s). *)
let simulated_neighbors ~s ~target m =
  if m = 0 then [| pendant_of ~s target |]
  else begin
    let owner =
      let x1 = m - s in
      if x1 >= 0 && x1 <= s - 1 && (x1 + 2) mod 2 = 1 then x1 else m - s - 2
    in
    assert (pendant_of ~s owner = m);
    let base = [ owner + 1 ] in
    let with_hook = if m = pendant_of ~s target then 0 :: base else base in
    Array.of_list with_hook
  end

let transform (protocol : P.Protocol.t) : P.Protocol.t =
  let (module A) = protocol in
  if A.model <> P.Model.Sim_sync then
    invalid_arg "Eob_bfs_reduction.transform: inner protocol must be SIMSYNC";
  let module Impl = struct
    let name = Printf.sprintf "build-eob-from[%s]" A.name

    let model = P.Model.Sim_sync

    let traits = P.Protocol.Traits.opaque

    let message_bound ~n = A.message_bound ~n:((2 * n) + 1)

    type local = A.local option

    let init _ = None

    let wants_to_activate _ _ _ = true

    (* The input node's gadget view: its input neighbours, shifted by one,
       plus its own pendant — identical in every G_i, which is the heart of
       the reduction. *)
    let inner_view view =
      let s = P.View.n view in
      let x = P.View.id view in
      let nbrs = Array.map (fun u -> u + 1) (P.View.neighbors view) in
      P.View.of_parts ~id:(x + 1) ~n:((2 * s) + 1)
        ~neighbors:(Array.append nbrs [| pendant_of ~s x |])

    (* Translate the outer board (authors 0..s-1) into inner coordinates
       (authors 1..s), payloads verbatim. *)
    let inner_board_of board =
      let s = P.Board.n board in
      let inner = P.Board.create ((2 * s) + 1) in
      P.Board.iter
        (fun m ->
          inner
          |> Fun.flip P.Board.append
               (P.Message.make ~author:(P.Message.author m + 1) ~payload:(P.Message.payload m)))
        board;
      inner

    let compose view board local =
      let gview = inner_view view in
      let alocal = match local with Some l -> l | None -> A.init gview in
      let writer, alocal = A.compose gview (inner_board_of board) alocal in
      (writer, Some alocal)

    (* Replay one gadget: the outer board supplies the first s messages (in
       the adversary's real order); v_{n+1} .. v_{2n-1} and finally v_1 are
       simulated with full SIMSYNC semantics (every pending node recomposes
       each round). *)
    let replay_gadget ~s ~target outer_payloads =
      let inner_n = (2 * s) + 1 in
      let simulated_order = List.init s (fun i -> s + 1 + i) @ [ 0 ] in
      let views =
        List.map
          (fun m -> (m, P.View.of_parts ~id:m ~n:inner_n ~neighbors:(simulated_neighbors ~s ~target m)))
          simulated_order
      in
      let locals = Hashtbl.create 8 in
      List.iter (fun (m, view) -> Hashtbl.replace locals m (A.init view)) views;
      let board = P.Board.create inner_n in
      let recompose_all () =
        List.iter
          (fun (m, view) ->
            if not (P.Board.has_author board m) then begin
              let writer, l = A.compose view board (Hashtbl.find locals m) in
              Hashtbl.replace locals m l;
              ignore writer
            end)
          views
      in
      (* First the real nodes, in their real write order... *)
      List.iter
        (fun (author, payload) ->
          recompose_all ();
          P.Board.append board (P.Message.make ~author:(author + 1) ~payload))
        outer_payloads;
      (* ...then the simulated tail in the canonical order. *)
      List.iter
        (fun (m, view) ->
          recompose_all ();
          let writer, l = A.compose view board (Hashtbl.find locals m) in
          Hashtbl.replace locals m l;
          P.Board.append board (P.Message.of_writer ~author:m writer))
        views;
      A.output ~n:inner_n board

    let output ~n board =
      let s = n in
      if s mod 2 <> 0 then failwith "Eob_bfs_reduction: input order must be even";
      let outer_payloads =
        P.Board.fold (fun acc m -> (P.Message.author m, P.Message.payload m) :: acc) [] board
        |> List.rev
      in
      let edges = ref [] in
      let target = ref 1 in
      while !target < s do
        (match replay_gadget ~s ~target:!target outer_payloads with
        | P.Answer.Forest parent ->
          let depth, root = depths_from_forest parent in
          for x = 0 to s - 1 do
            if x mod 2 = 0 && depth.(x + 1) = 3 && root.(x + 1) = 0 then
              edges := (min !target x, max !target x) :: !edges
          done
        | _ -> failwith "Eob_bfs_reduction: inner protocol did not answer a forest");
        target := !target + 2
      done;
      P.Answer.Graph (G.of_edges s !edges)
  end in
  (module Impl)
