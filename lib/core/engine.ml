module Obs = Wb_obs

type outcome = Machine.outcome =
  | Success of Answer.t
  | Deadlock
  | Size_violation of { node : int; bits : int; bound : int }
  | Output_error of string

type stats = Machine.stats = { rounds : int; max_message_bits : int; total_bits : int }

type run = Machine.run = {
  outcome : outcome;
  writes : int array;
  stats : stats;
  activation_round : int array;
  write_round : int array;
  message_bits : int array;
  compose_count : int array;
  board : Board.t;
}

let default_max_rounds = Machine.default_max_rounds
let succeeded = Machine.succeeded
let answer = Machine.answer
let outcome_tag = Machine.outcome_tag
let outcome_equal = Machine.outcome_equal
let stats_equal = Machine.stats_equal

(* Registry entries are process-global and idempotent: every Engine.Make
   instantiation shares them.  The per-round engine.* metrics live with the
   kernel in {!Machine}; the per-driver ones are here. *)
let m_runs = Obs.Metrics.counter ~help:"completed Engine.run executions" "engine.runs"

let m_explore_execs =
  Obs.Metrics.counter ~help:"complete executions visited by explore" "engine.explore_executions"

let () = Obs.Metrics.probe ~help:"total 64-bit PRNG draws" "prng.draws" Wb_support.Prng.total_draws

(* Canonical-exploration counters (ISSUE 9): cumulative across verify calls,
   surfaced by `wbctl explore --stats` and the explore bench. *)
let m_dedup_hits =
  Obs.Metrics.counter ~help:"schedule prefixes merged into an already-visited configuration"
    "explore.dedup_hits"

let m_orbit =
  Obs.Metrics.counter ~help:"candidate writes pruned to symmetry-orbit representatives"
    "explore.orbit_collapses"

let m_steals = Obs.Metrics.counter ~help:"exploration tasks stolen between workers" "explore.steals"

let m_states =
  Obs.Metrics.counter ~help:"distinct configurations claimed by the canonical explorer"
    "explore.states"

let m_table_slots =
  Obs.Metrics.gauge ~help:"visited-table slot capacity of the last verify" "explore.table_slots"

let m_table_used =
  Obs.Metrics.gauge ~help:"visited-table entries of the last verify" "explore.table_used"

(* Profiling sites (zero-cost unless Wb_obs.Prof is enabled), shared by
   every Engine.Make instantiation like the metrics above. *)
let prof_run = Obs.Prof.site "engine.run"
let prof_worker = Obs.Prof.site "explore.worker"

exception Limit_exceeded

type verification = {
  valid : bool;
  states : int;
  finals : int;
  dedup_hits : int;
  orbit_collapses : int;
  steals : int;
  group_order : int;
  dedup : bool;
}

module Make (P : Protocol.S) = struct
  module N = struct
    let model = P.model
    let message_bound = P.message_bound

    type local = P.local

    let init = P.init
    let wants_to_activate ~round:_ view board local = P.wants_to_activate view board local

    let compose ~round:_ view board local =
      let writer, local = P.compose view board local in
      Some (Message.of_writer ~author:(View.id view) writer, local)

    let output = P.output
  end

  module M = Machine.Make (N)

  let run ?max_rounds ?trace ?span g adv =
    let m = M.init ?max_rounds ?trace ?span g in
    let rec loop () =
      match M.step m with
      | `Choices candidates ->
        M.pick m (Adversary.choose adv (M.board m) candidates);
        loop ()
      | `Write _ -> loop ()
      | `Done run -> run
    in
    let result = Obs.Prof.phase prof_run loop in
    Obs.Metrics.incr m_runs;
    result

  (* Depth-first enumeration of every adversarial schedule over one live
     machine, snapshot/restore at each choice point.  [List.for_all]
     short-circuits on the first failing subtree, so the execution count on
     a failing check depends on candidate order — [verify] never
     short-circuits; see docs/EXPLORATION.md. *)
  let explore ?(limit = 1_000_000) ?trace g check =
    let m = M.init ?trace g in
    let executions = ref 0 in
    let complete run =
      incr executions;
      Obs.Metrics.incr m_explore_execs;
      if !executions > limit then raise Limit_exceeded;
      check run
    in
    let rec go () =
      match M.step m with
      | `Write _ -> go ()
      | `Done run -> complete run
      | `Choices candidates ->
        (* A copy: the view is live and [restore] rewrites it. *)
        List.for_all
          (fun v ->
            let saved = M.snapshot m in
            M.pick m v;
            let ok = go () in
            M.restore m saved;
            ok)
          (Candidates.to_list candidates)
    in
    match go () with
    | all_ok -> Ok (all_ok, !executions)
    | exception Limit_exceeded -> Error (`Limit limit)

  let explore_exn ?limit ?trace g check =
    match explore ?limit ?trace g check with
    | Ok r -> r
    | Error (`Limit _) -> failwith "Engine.explore: execution limit exceeded"

  (* The one exhaustive walker (docs/EXPLORATION.md).  Keyed when the
     protocol's {!Protocol.Traits} promise confluence on [g]: every settled
     configuration is claimed by its {!M.digest} in a shared lock-free
     {!Wb_support.Cset} at {e discovery}, before expansion, so schedule
     prefixes reaching a claimed configuration merge and the claimed set is
     exactly the reachability closure of the walked tree — independent of
     which worker expands what and of the deque spill heuristic.  Keyless
     otherwise: nothing is claimed, every [`Done] is one checked execution,
     and the walk enumerates the whole schedule tree.  Neither mode
     short-circuits, so [states], [finals], [dedup_hits], [orbit_collapses]
     and the verdict are jobs-independent; [steals] alone is scheduling
     telemetry.

     Under a symmetry promise a sequential first phase — the same [expand],
     in the main domain before any worker spawns — prunes candidate writes
     to stabilizer-orbit representatives (prefix lex-leader: at a prefix
     whose stabilizer subgroup is [H], a candidate [v] survives iff it is
     minimal in its [H]-orbit; the child prefix keeps the point stabilizer
     of [v]).  Once the stabilizer is trivial no further pruning is
     possible, and the prefix becomes a seed for the workers. *)
  let verify ?(limit = 250_000) ?(jobs = 1) ?shards g check =
    if jobs < 1 then invalid_arg "Engine.verify: jobs must be >= 1";
    (match shards with
    | Some a when Array.length a <> jobs ->
      invalid_arg "Engine.verify: shards array length must equal jobs"
    | _ -> ());
    let table =
      if P.traits.Protocol.Traits.confluent g then Some (Wb_support.Cset.create ~limit ()) else None
    in
    let keyed = Option.is_some table in
    let group =
      match P.traits.Protocol.Traits.symmetry_fixed with
      | Some fixed_of when keyed -> (
        match Wb_graph.Auto.automorphisms ~fixed:(fixed_of g) g with Some a -> a | None -> [||])
      | _ -> [||]
    in
    let states = Atomic.make 0 in
    let finals = Atomic.make 0 in
    let hits = Atomic.make 0 in
    let collapses = Atomic.make 0 in
    let valid = Atomic.make true in
    let over = Atomic.make false in
    let claim m =
      match table with
      | None -> true
      | Some t -> (
        match Wb_support.Cset.add t (M.digest m) with
        | `Added -> true
        | `Present ->
          Atomic.incr hits;
          false
        | `Full ->
          Atomic.set over true;
          false)
    in
    let rec settle m =
      match M.step m with
      | `Write _ -> settle m
      | (`Choices _ | `Done _) as r -> r
    in
    (* Drive [m] to its next stable point, check the final reached there,
       and say whether [m] now sits on a newly claimed interior
       configuration.  Keyless, [limit] bounds executions; keyed, the table
       bounds configurations. *)
    let arrive m =
      match settle m with
      | `Choices _ ->
        let fresh = claim m in
        if fresh && keyed then Atomic.incr states;
        fresh
      | `Done run ->
        if claim m then
          if Atomic.fetch_and_add finals 1 >= limit && not keyed then Atomic.set over true
          else begin
            Obs.Metrics.incr m_explore_execs;
            if not (check run) then Atomic.set valid false
          end;
        false
    in
    (* Resolve every candidate of [m]'s open choice — orbit minima only
       while the stabilizer [stab] is nontrivial — and hand each newly
       claimed child to [descend] with [m] positioned on it, together with
       its reversed pick path. *)
    let expand m stab rev_path descend =
      match settle m with
      | `Done _ -> assert false (* entered at a claimed choice point *)
      | `Choices view ->
        (* A copy: the view is live and [restore] rewrites it. *)
        let candidates = Candidates.to_list view in
        let kept =
          if Array.length stab <= 1 then candidates
          else begin
            let kept =
              List.filter
                (fun v -> Array.fold_left (fun acc p -> min acc p.(v)) v stab = v)
                candidates
            in
            ignore (Atomic.fetch_and_add collapses (List.length candidates - List.length kept));
            kept
          end
        in
        (* One snapshot serves every candidate: [restore] leaves it intact. *)
        let saved = M.snapshot m in
        List.iter
          (fun v ->
            if not (Atomic.get over) then begin
              M.pick m v;
              if arrive m then descend v (v :: rev_path);
              M.restore m saved
            end)
          kept
    in
    (* Phase 1 (main domain): the orbit-pruned walk while the stabilizer is
       nontrivial; prefixes whose stabilizer collapses become seeds. *)
    let m0 = M.init g in
    let seeds = ref [] in
    let rec orbit_walk stab rev_path =
      expand m0 stab rev_path (fun v rev_path ->
          let stab = Array.of_list (List.filter (fun p -> p.(v) = v) (Array.to_list stab)) in
          if Array.length stab > 1 then orbit_walk stab rev_path else seeds := rev_path :: !seeds)
    in
    if arrive m0 then if Array.length group > 1 then orbit_walk group [] else seeds := [ [] ];
    let seeds = List.rev !seeds in
    let steals_total = Atomic.make 0 in
    let failure = Atomic.make None in
    (* Phase 2 (jobs domains): per-domain Chase–Lev deques seeded
       round-robin before any worker spawns (Domain.spawn publishes the
       pushes).  Each worker drives one machine of its own depth-first,
       spilling freshly claimed children to its deque while it runs low so
       idle workers can steal them; an item is a reversed pick path,
       replayed from the worker's root snapshot.  [outstanding] is the
       termination barrier; [over] stops every worker, on a limit or on the
       first exception, which is re-raised here after the joins. *)
    if (not (Atomic.get over)) && seeds <> [] then begin
      let deques = Array.init jobs (fun _ -> Wb_support.Deque.create ()) in
      List.iteri (fun i rev_path -> Wb_support.Deque.push deques.(i mod jobs) rev_path) seeds;
      let outstanding = Atomic.make (List.length seeds) in
      (* Worker [k] streams into its own ring (single-writer, so the
         non-thread-safe Ring is fine) under a per-domain "worker" root
         span, with its machine's "run" span below it.  Phase 1 runs
         untraced: its configurations belong to no worker. *)
      let worker k =
        let dq = deques.(k) in
        let trace = Option.map (fun a -> Obs.Trace.Ring.sink a.(k)) shards in
        let wroot =
          match trace with
          | None -> None
          | Some tr ->
            let minter = Obs.Span.minter ~seed:(k + 1) () in
            Some (tr, Obs.Span.start ~attrs:[ ("domain", string_of_int k) ] minter tr "worker")
        in
        let m = M.init ?trace ?span:(Option.map (fun (_, s) -> Obs.Span.context s) wroot) g in
        let root = M.snapshot m in
        let steals = ref 0 in
        let rec dfs rev_path =
          expand m [||] rev_path (fun _ rev_path ->
              if jobs > 1 && Wb_support.Deque.size dq < 16 then begin
                Atomic.incr outstanding;
                Wb_support.Deque.push dq rev_path
              end
              else dfs rev_path)
        in
        let process rev_path =
          M.restore m root;
          List.iter
            (fun v ->
              match settle m with
              | `Choices _ -> M.pick m v
              | `Done _ -> assert false (* items end at claimed choice points *))
            (List.rev rev_path);
          dfs rev_path
        in
        let rec loop () =
          if not (Atomic.get over) then
            match Wb_support.Deque.pop dq with
            | Some item -> run_item item
            | None -> scan 1
        and run_item item =
          process item;
          Atomic.decr outstanding;
          loop ()
        and scan d =
          if d >= jobs then begin
            if Atomic.get outstanding > 0 && not (Atomic.get over) then begin
              Domain.cpu_relax ();
              scan 1
            end
          end
          else
            match Wb_support.Deque.steal deques.((k + d) mod jobs) with
            | Some item ->
              incr steals;
              run_item item
            | None -> scan (d + 1)
        in
        (match Obs.Prof.phase prof_worker loop with
        | () -> ()
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)));
          Atomic.set over true);
        ignore (Atomic.fetch_and_add steals_total !steals);
        Option.iter (fun (tr, s) -> Obs.Span.finish tr s) wroot
      in
      let domains = List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
      worker 0;
      List.iter Domain.join domains
    end;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failure);
    let steals = Atomic.get steals_total in
    Obs.Metrics.add m_dedup_hits (Atomic.get hits);
    Obs.Metrics.add m_orbit (Atomic.get collapses);
    Obs.Metrics.add m_states (Atomic.get states);
    if steals > 0 then Obs.Metrics.add m_steals steals;
    Option.iter
      (fun t ->
        Obs.Metrics.set m_table_slots (Wb_support.Cset.capacity t);
        Obs.Metrics.set m_table_used (Wb_support.Cset.cardinal t))
      table;
    if Atomic.get over then
      Error (`Limit (match table with Some t -> Wb_support.Cset.limit t | None -> limit))
    else
      Ok
        {
          valid = Atomic.get valid;
          states = Atomic.get states;
          finals = Atomic.get finals;
          dedup_hits = Atomic.get hits;
          orbit_collapses = Atomic.get collapses;
          steals;
          group_order = max 1 (Array.length group);
          dedup = keyed;
        }
end

let run_packed ?max_rounds ?trace ?span (module P : Protocol.S) g adv =
  let module E = Make (P) in
  E.run ?max_rounds ?trace ?span g adv

let explore_packed ?limit ?trace (module P : Protocol.S) g check =
  let module E = Make (P) in
  E.explore ?limit ?trace g check

let explore_packed_exn ?limit ?trace (module P : Protocol.S) g check =
  let module E = Make (P) in
  E.explore_exn ?limit ?trace g check

let verify_packed ?limit ?jobs ?shards (module P : Protocol.S) g check =
  let module E = Make (P) in
  E.verify ?limit ?jobs ?shards g check
