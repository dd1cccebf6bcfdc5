module C = Candidates

type t = { name : string; choose : Board.t -> C.t -> int }

let name a = a.name

let choose a board candidates =
  if C.length candidates = 0 then invalid_arg "Adversary.choose: no candidates";
  let pick = a.choose board candidates in
  if not (C.mem candidates pick) then invalid_arg "Adversary.choose: picked a non-candidate";
  pick

let first c = C.nth c 0

let last c = C.nth c (C.length c - 1)

let min_id = { name = "min-id"; choose = (fun _ c -> first c) }

let max_id = { name = "max-id"; choose = (fun _ c -> last c) }

let random rng =
  { name = "random"; choose = (fun _ c -> C.nth c (Wb_support.Prng.int rng (C.length c))) }

let by_priority prio =
  { name = "priority";
    choose =
      (fun _ c -> C.fold (fun best v -> if prio.(v) > prio.(best) then v else best) (first c) c) }

let last_writer_neighbor_avoider g =
  { name = "avoid-last-writer-neighbors";
    choose =
      (fun board c ->
        match Board.last board with
        | None -> first c
        | Some m ->
          let w = Message.author m in
          (* The smallest candidate not adjacent to [w], scanning by rank
             so the search stops at the first hit. *)
          let rec scan k =
            if k = C.length c then first c
            else
              let v = C.nth c k in
              if Wb_graph.Graph.mem_edge g w v then scan (k + 1) else v
          in
          scan 0) }

let alternating_extremes =
  { name = "alternating-extremes";
    choose = (fun board c -> if Board.length board mod 2 = 0 then first c else last c) }
