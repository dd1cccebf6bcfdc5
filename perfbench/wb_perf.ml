(* The whiteboard benchmark: four workloads over the three public entry
   points — [Engine.run_packed], [Engine.verify_packed] and
   [Wb_net.Remote.run_loopback] — timed end to end with tracing off, and
   split layer by layer in a separate traced run.  See README.md for every
   metric, its unit and the layer metrics that feed it.

   wb_perf.exe --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object:
   {"correct": _, "attempted": _, "failed": _, "metrics": {name: {value, unit}}}. *)

module M = Wb_model
module G = Wb_graph
module R = Wb_protocols.Registry
module Net = Wb_net
module Obs = Wb_obs
module S = Layer.Samples

(* ---------------------------------------------------------------- *)
(* Layers and counters                                               *)

let l_gen = Layer.make "gen"
let l_machine = Layer.make "machine"
let l_activate = Layer.make "protocol.activate"
let l_compose = Layer.make "protocol.compose"
let l_output = Layer.make "protocol.output"
let l_adversary = Layer.make "adversary"
let l_explore = Layer.make "explore"
let l_auto = Layer.make "explore.auto"
let l_session = Layer.make "session"
let l_conn = Layer.make "conn"
let l_encode = Layer.make "wire.encode"
let l_decode = Layer.make "wire.decode"
let l_client = Layer.make "client"

(* The benchmark's own answer checks: bracketed so that their time is taken
   out of the layer that calls them (the explorer calls the check), never
   reported as a layer. *)
let l_check = Layer.make "check"

let traced_layers =
  [ l_machine; l_activate; l_compose; l_output; l_adversary; l_explore; l_auto; l_session;
    l_conn; l_encode; l_decode; l_client; l_check ]

(* The kernel's always-on write counter, read as a delta around a call. *)
let engine_writes = Obs.Metrics.counter "engine.writes"

let writes_during f =
  let w0 = Obs.Metrics.counter_value engine_writes in
  let r = f () in
  (r, Obs.Metrics.counter_value engine_writes - w0)

(* ---------------------------------------------------------------- *)
(* Protocol adapters                                                 *)

(* Timed runs: count every activate/compose hook call and time one in
   [sample_every] of them — the in-process counterpart of the referee's
   RPC, at a cost of one increment per call. *)
type hook_count = { mutable hooks : int; lat : S.t }

let hook_count = { hooks = 0; lat = S.create () }
let sample_every = 64

let counted (p : M.Protocol.t) : M.Protocol.t =
  let module P = (val p : M.Protocol.S) in
  (module struct
    include P

    let wants_to_activate view board local =
      let k = hook_count.hooks in
      hook_count.hooks <- k + 1;
      if k mod sample_every <> 0 then P.wants_to_activate view board local
      else begin
        let t0 = Layer.now_ns () in
        let r = P.wants_to_activate view board local in
        S.push hook_count.lat (Layer.now_ns () - t0);
        r
      end

    let compose view board local =
      let k = hook_count.hooks in
      hook_count.hooks <- k + 1;
      if k mod sample_every <> 0 then P.compose view board local
      else begin
        let t0 = Layer.now_ns () in
        let r = P.compose view board local in
        S.push hook_count.lat (Layer.now_ns () - t0);
        r
      end
  end)

(* Traced runs: every hook is a [protocol.*] span. *)
let timed (p : M.Protocol.t) : M.Protocol.t =
  let module P = (val p : M.Protocol.S) in
  (module struct
    include P

    let wants_to_activate view board local =
      Layer.enter l_activate;
      let r = P.wants_to_activate view board local in
      Layer.leave ();
      r

    let compose view board local =
      Layer.enter l_compose;
      let r = P.compose view board local in
      Layer.leave ();
      r

    let output ~n board =
      Layer.enter l_output;
      match P.output ~n board with
      | a ->
        Layer.leave ();
        a
      | exception e ->
        Layer.leave ();
        raise e
  end)

(* ---------------------------------------------------------------- *)
(* The three execution paths, untimed and traced                     *)

let steps = ref 0

(* [Engine.run] re-driven from here: the same kernel over the benchmark's
   own timed NODE adapter, so machine, protocol and adversary time split. *)
let traced_run (p : M.Protocol.t) g adv =
  let module P = (val timed p : M.Protocol.S) in
  let module N = struct
    let model = P.model
    let message_bound = P.message_bound

    type local = P.local

    let init = P.init
    let wants_to_activate ~round:_ view board local = P.wants_to_activate view board local

    let compose ~round:_ view board local =
      let writer, local = P.compose view board local in
      Some (M.Message.of_writer ~author:(M.View.id view) writer, local)

    let output = P.output
  end in
  let module K = M.Machine.Make (N) in
  let m = Layer.span l_machine (fun () -> K.init g) in
  let rec loop () =
    incr steps;
    Layer.enter l_machine;
    let s = K.step m in
    Layer.leave ();
    match s with
    | `Choices cs ->
      Layer.enter l_adversary;
      let v = M.Adversary.choose adv (K.board m) cs in
      Layer.leave ();
      Layer.enter l_machine;
      K.pick m v;
      Layer.leave ();
      loop ()
    | `Write _ -> loop ()
    | `Done run -> run
  in
  loop ()

(* Wire statistics of the traced loopback. *)
type wire = { mutable frames : int; mutable bytes : int; mutable board_bits : int; rtt : S.t }

let wire = { frames = 0; bytes = 0; board_bits = 0; rtt = S.create () }

let is_query = function Net.Wire.Activate_query _ | Net.Wire.Compose_request _ -> true | _ -> false
let is_reply = function Net.Wire.Activate_reply _ | Net.Wire.Compose_reply _ -> true | _ -> false

(* [Remote.run_loopback] re-assembled from its public parts, with each
   part bracketed: the client's [handle], the codec, the connection and
   the referee's [Session.run].  The transport mirrors
   [Conn.loopback_served] — every frame is encoded and decoded once on the
   way in and once on the way out. *)
let traced_loopback (p : M.Protocol.t) g adv =
  let module P = (val p : M.Protocol.S) in
  let n = G.Graph.n g in
  let tp = timed p in
  let rpc_start = ref 0 in
  let roundtrip ?ctx frame =
    Layer.enter l_encode;
    let bytes = Net.Wire.encode ?ctx frame in
    Layer.leave ();
    wire.frames <- wire.frames + 1;
    wire.bytes <- wire.bytes + String.length bytes;
    Layer.enter l_decode;
    let decoded = Net.Wire.decode_ctx bytes in
    Layer.leave ();
    match decoded with
    | Ok pair -> pair
    | Error e -> failwith ("loopback codec violation: " ^ Net.Wire.error_to_string e)
  in
  let conn v =
    let client =
      Net.Client.create ~protocol:tp ~key:"loopback" ~session:"loopback" ~node_pref:v ()
    in
    let inbox = Queue.create () in
    let send ctx frame =
      if is_query frame then rpc_start := Layer.now_ns ();
      Layer.enter l_conn;
      let frame, ctx = roundtrip ?ctx frame in
      Layer.enter l_client;
      let replies = Net.Client.handle client ~ctx frame in
      Layer.leave ();
      List.iter (fun f -> Queue.push (roundtrip f) inbox) replies;
      Layer.leave ();
      Ok ()
    in
    let recv () =
      Layer.enter l_conn;
      let r = if Queue.is_empty inbox then Error Net.Conn.Closed else Ok (Queue.pop inbox) in
      Layer.leave ();
      (match r with
      | Ok (f, _) when is_reply f -> S.push wire.rtt (Layer.now_ns () - !rpc_start)
      | _ -> ());
      r
    in
    let c =
      Net.Conn.make_ctx ~peer:(Printf.sprintf "node-%d" v) ~send ~recv ~close:(fun () -> ())
    in
    (match
       Net.Conn.send c
         (Net.Wire.Hello_ack
            { session = "loopback";
              node = v;
              n;
              neighbors = G.Graph.neighbors g v;
              bound = P.message_bound ~n })
     with
    | Ok () -> ()
    | Error f -> failwith ("loopback handshake failed: " ^ Net.Conn.fault_to_string f));
    c
  in
  let conns = Array.init n conn in
  let cfg =
    { Net.Session.protocol = tp; graph = g; adversary = adv; max_rounds = None; trace = None;
      parent = None }
  in
  let result = Layer.span l_session (fun () -> Net.Session.run cfg conns) in
  wire.board_bits <- wire.board_bits + result.Net.Session.run.M.Engine.stats.M.Engine.total_bits;
  result

(* RPC round trips of the timed loopback, measured around each wrapped
   connection: from the query leaving the referee to its reply arriving. *)
let rtt = S.create ()

let timing_wrap (_ : int) inner =
  let start = ref 0 in
  Net.Conn.make_ctx ~peer:(Net.Conn.peer inner)
    ~send:(fun ctx frame ->
      if is_query frame then start := Layer.now_ns ();
      Net.Conn.send ?ctx inner frame)
    ~recv:(fun () ->
      let r = Net.Conn.recv_ctx inner in
      (match r with Ok (f, _) when is_reply f -> S.push rtt (Layer.now_ns () - !start) | _ -> ());
      r)
    ~close:(fun () -> Net.Conn.close inner)

(* ---------------------------------------------------------------- *)
(* Operations                                                        *)

(* What one execution did.  Deterministic per operation. *)
type work = {
  writes : int;  (** node writes the kernel applied. *)
  configs : int;  (** configurations passed through or checked. *)
  executions : int;  (** complete executions checked. *)
  rpcs : int;  (** activate + compose hook calls (RPCs over the wire). *)
  states : int;
  finals : int;
  dedup_hits : int;
  orbit_collapses : int;
}

let no_work =
  { writes = 0; configs = 0; executions = 0; rpcs = 0; states = 0; finals = 0; dedup_hits = 0;
    orbit_collapses = 0 }

exception Check of string

let check cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Check s)) fmt

type op = {
  label : string;
  family : string;  (** ops of one family share a protocol and graph class. *)
  size : float;  (** the x of the time_slope fit. *)
  exec : trace:Obs.Trace.t option -> float * work;
      (** one checked execution with tracing off; the time covers the entry
          point call only.  [trace] is for the observability-overhead probe. *)
  exec_traced : unit -> float * work;
      (** one checked execution with every layer bracketed; also checks that
          it equals the untraced path's execution. *)
  jobs2 : (unit -> float * float) option;
      (** verify only: seconds at jobs 1 and at jobs 2, both checked. *)
  mutable times : float list;
  mutable work : work;
  lat : S.t;  (** where [exec] leaves its round trips: RPCs, or sampled hooks. *)
  mutable lat_p50s : float list;
      (** per execution, the median of those round trips, ns. *)
}

let time f =
  let t0 = Layer.now_ns () in
  let r = f () in
  (r, float_of_int (Layer.now_ns () - t0) *. 1e-9)

let entry key =
  match R.find key with Some e -> e | None -> failwith ("protocol not in the registry: " ^ key)

let answer_ok (e : R.entry) g (run : M.Engine.run) =
  match run.M.Engine.outcome with
  | M.Engine.Success a -> M.Problems.valid_answer (e.R.problem (G.Graph.n g)) g a
  | _ -> false

let mk_op ~label ~family ~size ?jobs2 ?(lat = hook_count.lat) exec exec_traced =
  { label; family; size; exec; exec_traced; jobs2; times = []; work = no_work; lat; lat_p50s = [] }

let gen f = Layer.span l_gen f

(* A seeded run of [Engine.run_packed] under a random adversary. *)
let run_op ~seed key ~family g =
  let e = entry key in
  let p = e.R.protocol in
  let n = G.Graph.n g in
  let adversary () = M.Adversary.random (Wb_support.Prng.create seed) in
  let work_of (run : M.Engine.run) rpcs =
    let writes = Array.length run.M.Engine.writes in
    { no_work with writes; configs = writes + 1; executions = 1; rpcs }
  in
  let exec ~trace =
    let adv = adversary () in
    let cp = counted p in
    let h0 = hook_count.hooks in
    let run, dt = time (fun () -> M.Engine.run_packed ?trace cp g adv) in
    check (answer_ok e g run) "%s n=%d: invalid answer" key n;
    (dt, work_of run (hook_count.hooks - h0))
  in
  let exec_traced () =
    let adv = adversary () in
    let a0 = l_activate.Layer.calls and c0 = l_compose.Layer.calls in
    let run, dt = time (fun () -> traced_run p g adv) in
    let reference = M.Engine.run_packed p g (adversary ()) in
    let diff = Net.Remote.diff_runs run reference in
    check (diff = []) "%s n=%d: traced run differs from Engine.run: %s" key n
      (String.concat "; " diff);
    check (answer_ok e g run) "%s n=%d: invalid answer" key n;
    (dt, work_of run (l_activate.Layer.calls - a0 + l_compose.Layer.calls - c0))
  in
  mk_op ~label:(Printf.sprintf "%s n=%d" key n) ~family ~size:(float_of_int n) exec exec_traced

(* [Engine.verify_packed ~jobs:1] with the configuration (or execution)
   count expected for the instance. *)
let verify_op key ~family ~label g ~expect =
  let e = entry key in
  let p = e.R.protocol in
  let check_run run = answer_ok e g run in
  let expect_ok (v : M.Engine.verification) =
    match expect with
    | `Canonical (states, finals) ->
      v.M.Engine.valid && v.M.Engine.dedup && v.M.Engine.states = states
      && v.M.Engine.finals = finals
    | `Executions execs -> v.M.Engine.valid && (not v.M.Engine.dedup) && v.M.Engine.finals = execs
  in
  let verify ?(jobs = 1) p check_run =
    match M.Engine.verify_packed ~jobs p g check_run with
    | Ok v ->
      check (expect_ok v) "%s: verify jobs=%d gave valid=%b states=%d finals=%d dedup=%b" label
        jobs v.M.Engine.valid v.M.Engine.states v.M.Engine.finals v.M.Engine.dedup;
      v
    | Error (`Limit l) -> raise (Check (Printf.sprintf "%s: verify hit its limit %d" label l))
  in
  let work_of (v : M.Engine.verification) writes rpcs =
    let canonical = v.M.Engine.dedup in
    { writes;
      configs = (if canonical then v.M.Engine.states + v.M.Engine.finals else 0);
      executions = (if canonical then 0 else v.M.Engine.finals);
      rpcs;
      states = v.M.Engine.states;
      finals = v.M.Engine.finals;
      dedup_hits = v.M.Engine.dedup_hits;
      orbit_collapses = v.M.Engine.orbit_collapses }
  in
  let exec ~trace:_ =
    let cp = counted p in
    let h0 = hook_count.hooks in
    let (v, writes), dt = time (fun () -> writes_during (fun () -> verify cp check_run)) in
    (dt, work_of v writes (hook_count.hooks - h0))
  in
  let traits = M.Protocol.traits p in
  let exec_traced () =
    let a0 = l_activate.Layer.calls and c0 = l_compose.Layer.calls in
    let traced_check run = Layer.span l_check (fun () -> check_run run) in
    let (v, writes), dt =
      time (fun () ->
          writes_during (fun () -> Layer.span l_explore (fun () -> verify (timed p) traced_check)))
    in
    (* The automorphism search verify runs first, repeated here on the same
       arguments so that its share can be read on its own. *)
    (match traits.M.Protocol.Traits.symmetry_fixed with
    | Some fixed_of when traits.M.Protocol.Traits.confluent g ->
      Layer.span l_auto (fun () -> ignore (G.Auto.automorphisms ~fixed:(fixed_of g) g))
    | _ -> ());
    (dt, work_of v writes (l_activate.Layer.calls - a0 + l_compose.Layer.calls - c0))
  in
  let jobs2 () =
    let _, t1 = time (fun () -> verify ~jobs:1 p check_run) in
    let _, t2 = time (fun () -> verify ~jobs:2 p check_run) in
    (t1, t2)
  in
  let size =
    match expect with
    | `Canonical (states, finals) -> float_of_int (states + finals)
    | `Executions execs -> float_of_int execs
  in
  mk_op ~label ~family ~size ~jobs2 exec exec_traced

(* A [Remote.run_loopback] session, checked fault-free and identical to
   [Engine.run] under the same adversary. *)
let net_op ~seed key ~family g =
  let e = entry key in
  let p = e.R.protocol in
  let n = G.Graph.n g in
  let adversary () = M.Adversary.random (Wb_support.Prng.create seed) in
  let reference = lazy (M.Engine.run_packed p g (adversary ())) in
  let check_session label (r : Net.Session.result) =
    check (r.Net.Session.faults = []) "%s n=%d: %s session recorded %d faults" key n label
      (List.length r.Net.Session.faults);
    let diff = Net.Remote.diff_runs r.Net.Session.run (Lazy.force reference) in
    check (diff = []) "%s n=%d: %s session differs from Engine.run: %s" key n label
      (String.concat "; " diff);
    check (answer_ok e g r.Net.Session.run) "%s n=%d: invalid answer" key n
  in
  let work_of (r : Net.Session.result) rpcs =
    let writes = Array.length r.Net.Session.run.M.Engine.writes in
    { no_work with writes; configs = writes + 1; executions = 1; rpcs }
  in
  let exec ~trace =
    let adv = adversary () in
    let r0 = S.length rtt in
    let r, dt =
      time (fun () -> Net.Remote.run_loopback ?trace ~wrap:timing_wrap ~protocol:p g adv)
    in
    check_session "loopback" r;
    (dt, work_of r (S.length rtt - r0))
  in
  let exec_traced () =
    let adv = adversary () in
    let r0 = S.length wire.rtt in
    let r, dt = time (fun () -> traced_loopback p g adv) in
    check_session "traced" r;
    (dt, work_of r (S.length wire.rtt - r0))
  in
  mk_op ~label:(Printf.sprintf "%s n=%d (loopback)" key n) ~family ~size:(float_of_int n) ~lat:rtt
    exec exec_traced

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)

let rng seed i = Wb_support.Prng.create ((seed * 1_000_003) + i)

(* Sparse connected graphs of mean degree about [deg], the same density at
   every n so that the sweep varies size only. *)
let sparse seed i n ~deg = G.Gen.random_connected (rng seed i) n (deg /. float_of_int n)

let run_frozen seed =
  List.concat
    [ List.mapi
        (fun i n ->
          let g = gen (fun () -> G.Gen.random_tree (rng seed i) n) in
          run_op ~seed:(seed + i) "build-forest" ~family:"build-forest" g)
        [ 500; 1000; 2000 ];
      List.mapi
        (fun i n ->
          let g = gen (fun () -> sparse seed (10 + i) n ~deg:4.) in
          run_op ~seed:(seed + 10 + i) "subgraph-sqrt" ~family:"subgraph-sqrt" g)
        [ 500; 1000; 2000 ] ]

let run_sync seed =
  List.concat_map
    (fun key ->
      List.mapi
        (fun i n ->
          let salt = (if key = "bfs" then 0 else 10) + i in
          let g = gen (fun () -> sparse seed salt n ~deg:6.) in
          run_op ~seed:(seed + salt) key ~family:key g)
        [ 125; 250; 500 ])
    [ "bfs"; "mis" ]

(* Configuration counts of the canonical instances: fixed graphs, so the
   counts are constants of a correct explorer.  The fallback instances run
   a SIMASYNC protocol, so every one of the n! write orders is an
   execution. *)
let mis_cycle = [ (8, (412, 26)); (10, (2_241, 55)); (12, (11_836, 113)); (14, (61_651, 229)) ]
let forest_path = [ (10, (992, 10)); (12, (4_032, 12)); (14, (16_256, 14)); (16, (65_280, 16)) ]
let factorial n = List.fold_left ( * ) 1 (List.init n (fun i -> i + 1))

let verify_ops seed ~mis ~forest ~ktree =
  List.concat
    [ List.map
        (fun n ->
          let g = gen (fun () -> G.Gen.cycle n) in
          verify_op "mis" ~family:"mis" ~label:(Printf.sprintf "mis C%d" n) g
            ~expect:(`Canonical (List.assoc n mis_cycle)))
        mis;
      List.map
        (fun n ->
          let g = gen (fun () -> G.Gen.path n) in
          verify_op "build-forest" ~family:"build-forest"
            ~label:(Printf.sprintf "build-forest P%d" n)
            g ~expect:(`Canonical (List.assoc n forest_path)))
        forest;
      List.map
        (fun n ->
          let g = gen (fun () -> G.Gen.random_ktree (rng seed (20 + n)) n ~k:2) in
          verify_op "build-2-degenerate" ~family:"build-2-degenerate"
            ~label:(Printf.sprintf "build-2-degenerate 2-tree n=%d" n)
            g
            ~expect:(`Executions (factorial n)))
        ktree ]

(* The timed sweep stays below a second an instance, so a run holds many
   executions of each; the parallel row uses the large instances, where
   two domains have enough work to split. *)
let verify_w seed =
  ( verify_ops seed ~mis:[ 8; 10; 12 ] ~forest:[ 10; 12; 14 ] ~ktree:[ 5; 6; 7 ],
    verify_ops seed ~mis:[ 14 ] ~forest:[ 16 ] ~ktree:[ 8 ] )

let net_loopback seed =
  List.concat
    [ List.mapi
        (fun i n ->
          let g = gen (fun () -> G.Gen.random_tree (rng seed i) n) in
          net_op ~seed:(seed + i) "build-forest" ~family:"build-forest" g)
        [ 32; 64; 128 ];
      List.mapi
        (fun i n ->
          let g = gen (fun () -> sparse seed (10 + i) n ~deg:6.) in
          net_op ~seed:(seed + 10 + i) "bfs" ~family:"bfs" g)
        [ 16; 32; 64 ] ]

(* Each builder gives the timed instances and the instances of the jobs-2
   row (verify only). *)
let workloads =
  [ ("run-frozen", fun seed -> (run_frozen seed, []));
    ("run-sync", fun seed -> (run_sync seed, []));
    ("verify", verify_w);
    ("net-loopback", fun seed -> (net_loopback seed, [])) ]

(* ---------------------------------------------------------------- *)
(* Statistics                                                        *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* Pooled within-family least-squares slope of ln(time) on ln(size): each
   family keeps its own intercept, so protocols of different constant cost
   share one exponent. *)
let slope points =
  let families = List.sort_uniq compare (List.map (fun (f, _, _) -> f) points) in
  let num = ref 0. and den = ref 0. in
  List.iter
    (fun f ->
      let pts =
        List.filter_map (fun (f', x, y) -> if f = f' then Some (log x, log y) else None) points
      in
      let k = float_of_int (List.length pts) in
      if k >= 2. then begin
        let mx = List.fold_left (fun a (x, _) -> a +. x) 0. pts /. k in
        let my = List.fold_left (fun a (_, y) -> a +. y) 0. pts /. k in
        List.iter
          (fun (x, y) ->
            num := !num +. ((x -. mx) *. (y -. my));
            den := !den +. ((x -. mx) *. (x -. mx)))
          pts
      end)
    families;
  if !den = 0. then nan else !num /. !den

(* Each op's best execution: the least time, and the least per-execution
   median round trip.  The host's interference only ever slows a run down,
   in bursts that can cover several consecutive executions, so the best of
   a run's executions is what repeats across runs; the median of all of
   them does not (see README.md). *)
let best xs = List.fold_left Float.min infinity xs

(* The best median RPC (or sampled hook) round trip of each op, averaged
   over the ops: every instance of the sweep counts once. *)
let mean_best_p50_ns ops =
  let bests =
    List.filter_map (fun o -> if o.lat_p50s = [] then None else Some (best o.lat_p50s)) ops
  in
  ratio (List.fold_left ( +. ) 0. bests) (float_of_int (List.length bests))

(* ---------------------------------------------------------------- *)
(* Host calibration                                                  *)

(* The shared host's speed drifts by up to 2x, in phases of seconds to
   tens of seconds that cover whole runs and hit every program alike.  A
   fixed loop of this file's own — no library code — is timed beside the
   work, and every end-to-end time is reported in the seconds of a host on
   which the loop takes [cal_nominal_s]: scaled by [cal_nominal_s] over the
   loop's time in the same phase.  A change to the library moves the work
   and not the loop, so it shows in full; a slow phase of the host moves
   both, and cancels (see README.md). *)
let cal_table = Array.init 65536 (fun i -> (i * 7919) land 65535)

(* Filled on the first call and updated in place after: the loop's
   garbage dies young, so it leaves the major heap — and [peak_heap_mb] —
   alone. *)
let cal_hash = Hashtbl.create 8192

let calibration_loop () =
  let acc = ref 0 in
  for r = 0 to 29 do
    for i = 0 to 65535 do
      acc := !acc + cal_table.(cal_table.((i + r) land 65535));
      if i land 15 = 0 then begin
        Hashtbl.replace cal_hash ((i + r) land 4095) !acc;
        acc := !acc + List.length (Sys.opaque_identity [ i; r ])
      end
    done
  done;
  ignore (Sys.opaque_identity !acc)

let cal_nominal_s = 0.005

(* The least calibration time of the timed run. *)
let cal_best = ref infinity

let calibrate () =
  let (), dt = time calibration_loop in
  cal_best := Float.min !cal_best dt;
  dt

(* ---------------------------------------------------------------- *)
(* Driver                                                            *)

let attempted = ref 0
let failed = ref 0

let attempt label f =
  incr attempted;
  match f () with
  | r -> Some r
  | exception e ->
    incr failed;
    Layer.depth := 0;
    let msg = match e with Check s -> s | e -> Printexc.to_string e in
    Printf.printf "FAILED %s: %s\n%!" label msg;
    None

(* Build the workload at least [min_setups] times and for at least
   [min_setup_s]: a fast set-up (verify's takes well under a millisecond)
   gets enough repetitions for a steady median.  Each build is calibrated
   by the loop timed just before it.  The last build is kept. *)
let min_setups = 9
let min_setup_s = 0.25
let setups = ref 0

let setup build seed =
  Layer.reset l_gen;
  let t0 = Layer.now_ns () in
  let rec go acc =
    let cal = calibrate () in
    let built, dt = time (fun () -> build seed) in
    let dt = dt *. cal_nominal_s /. cal in
    incr setups;
    if !setups >= min_setups && float_of_int (Layer.now_ns () - t0) *. 1e-9 >= min_setup_s then
      (built, median (dt :: acc))
    else go (dt :: acc)
  in
  go []

let record o (dt, w) =
  o.times <- dt :: o.times;
  o.work <- w

(* Every execution starts from a collected heap, so that none pays for the
   garbage of the one before (in the traced run, that includes the untraced
   reference run of each traced op) and the heap's peak depends on the
   instances, not on where the major cycles happened to fall. *)
let execute o f =
  Gc.full_major ();
  attempt o.label (fun () -> f o)

let run_pass ~deadline ~first ops f =
  List.iter
    (fun o ->
      if first || Layer.now_ns () < deadline then
        match execute o f with Some r -> record o r | None -> ())
    ops

let word_bytes = Sys.word_size / 8

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * word_bytes) /. 1e6

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let end_to_end ops ~setup_s =
  let timed = List.filter (fun o -> o.times <> []) ops in
  let scale = cal_nominal_s /. !cal_best in
  let best_time o = best o.times *. scale in
  let rate f =
    let ws = List.filter (fun o -> f o.work > 0) timed in
    ratio
      (float_of_int (List.fold_left (fun a o -> a + f o.work) 0 ws))
      (List.fold_left (fun a o -> a +. best_time o) 0. ws)
  in
  [ metric "setup_s" "s" setup_s;
    metric "writes_per_s" "writes/s" (rate (fun w -> w.writes));
    metric "time_slope" "1" (slope (List.map (fun o -> (o.family, o.size, best_time o)) timed));
    metric "configs_per_s" "configs/s" (rate (fun w -> w.configs));
    metric "executions_per_s" "execs/s" (rate (fun w -> w.executions));
    metric "rpcs_per_s" "RPC/s" (rate (fun w -> w.rpcs));
    metric "rpc_p50_us" "us" (mean_best_p50_ns timed *. scale /. 1e3);
    metric "peak_heap_mb" "MB" (peak_heap_mb ()) ]

(* The timed run: cycle over the ops until [seconds] have passed (the
   first cycle always completes), tracing off, with the calibration loop
   timed before the first cycle and after each. *)
let timed_run ops ~seconds =
  let deadline = Layer.now_ns () + int_of_float (seconds *. 1e9) in
  let first = ref true in
  cal_best := infinity;
  ignore (calibrate ());
  while !first || Layer.now_ns () < deadline do
    run_pass ~deadline ~first:!first ops (fun o ->
        S.clear o.lat;
        let r = o.exec ~trace:None in
        Option.iter
          (fun p50 -> o.lat_p50s <- float_of_int p50 :: o.lat_p50s)
          (S.percentile o.lat 50.);
        r);
    ignore (calibrate ());
    first := false
  done

(* ---- traced run ---- *)

type pass = {
  op_times : float array;  (** per op; infinity when the op failed. *)
  counts : (string * int) list;  (** must repeat exactly at a fixed seed. *)
  layer_s : (string * float) list;
  work : work;
  rtt_p99_us : float;
  board_bits : int;
}

let sum_work ws =
  List.fold_left
    (fun a w ->
      { writes = a.writes + w.writes;
        configs = a.configs + w.configs;
        executions = a.executions + w.executions;
        rpcs = a.rpcs + w.rpcs;
        states = a.states + w.states;
        finals = a.finals + w.finals;
        dedup_hits = a.dedup_hits + w.dedup_hits;
        orbit_collapses = a.orbit_collapses + w.orbit_collapses })
    no_work ws

let pass_over ops f = List.map (fun o -> (o, execute o f)) ops

let times_of results =
  Array.of_list (List.map (function _, Some (dt, _) -> dt | _, None -> infinity) results)

let traced_pass ops =
  List.iter Layer.reset traced_layers;
  steps := 0;
  wire.frames <- 0;
  wire.bytes <- 0;
  wire.board_bits <- 0;
  S.clear wire.rtt;
  let results = pass_over ops (fun o -> o.exec_traced ()) in
  let ok = List.filter_map (fun (o, r) -> Option.map (fun (_, w) -> (o, w)) r) results in
  let work = sum_work (List.map snd ok) in
  (* complete executions the explorer enumerated: verify ops only *)
  let explored =
    List.fold_left (fun a (o, w) -> if o.jobs2 <> None then a + w.executions else a) 0 ok
  in
  let counts =
    [ ("machine.writes", work.writes);
      ("machine.step_calls", !steps);
      ("protocol.activate_calls", l_activate.Layer.calls);
      ("protocol.compose_calls", l_compose.Layer.calls);
      ("adversary.choose_calls", l_adversary.Layer.calls);
      ("explore.states", work.states);
      ("explore.finals", work.finals);
      ("explore.dedup_hits", work.dedup_hits);
      ("explore.orbit_collapses", work.orbit_collapses);
      ("explore.executions", explored);
      ("conn.rpcs", S.length wire.rtt);
      ("wire.frames", wire.frames);
      ("wire.bytes", wire.bytes);
      ("client.handle_calls", l_client.Layer.calls) ]
    @ List.map (fun l -> (l.Layer.name ^ ".minor_words", l.Layer.self_words)) traced_layers
  in
  { op_times = times_of results;
    counts;
    layer_s = List.map (fun l -> (l.Layer.name, Layer.self_s l)) traced_layers;
    work;
    rtt_p99_us =
      (match S.percentile wire.rtt 99. with Some ns -> float_of_int ns /. 1e3 | None -> 0.);
    board_bits = wire.board_bits }

(* Best total over the ops both columns completed. *)
let best_totals a b =
  let sa = ref 0. and sb = ref 0. in
  Array.iteri
    (fun i x ->
      if Float.is_finite x && Float.is_finite b.(i) then begin
        sa := !sa +. x;
        sb := !sb +. b.(i)
      end)
    a;
  (!sa, !sb)

let best_per_op passes =
  let n = Array.length (List.hd passes) in
  Array.init n (fun i -> best (List.map (fun t -> t.(i)) passes))

(* Observability on versus off on one op: Trace (a counting sink), Cost
   and Prof, three alternating pairs, best of each side. *)
let obs_overhead o =
  let sink = Obs.Trace.of_fn ignore in
  let once on =
    Gc.full_major ();
    if on then begin
      Obs.Cost.enable ();
      Obs.Prof.enable ()
    end;
    let r =
      Fun.protect
        ~finally:(fun () ->
          Obs.Cost.disable ();
          Obs.Prof.disable ())
        (fun () ->
          attempt (o.label ^ " (obs)") (fun () ->
              o.exec ~trace:(if on then Some sink else None)))
    in
    Option.fold ~none:infinity ~some:fst r
  in
  let offs = ref [] and ons = ref [] in
  for _ = 1 to 3 do
    offs := once false :: !offs;
    ons := once true :: !ons
  done;
  100. *. (ratio (best !ons) (best !offs) -. 1.)

(* The observability probe repeats the second instance of the workload. *)
let obs_probe = 1

(* The traced run: untraced and traced passes alternate, at least two of
   each, until [seconds] have passed. *)
let traced ops ~parallel ~seconds =
  let deadline = Layer.now_ns () + int_of_float (seconds *. 1e9) in
  let untraced = ref [] and passes = ref [] in
  while List.length !passes < 2 || Layer.now_ns () < deadline do
    untraced := times_of (pass_over ops (fun o -> o.exec ~trace:None)) :: !untraced;
    passes := traced_pass ops :: !passes
  done;
  let passes = List.rev !passes in
  let first = List.hd passes in
  (* Exact-count self-test: every count of every traced pass must equal the
     first pass's. *)
  ignore
    (attempt "exact-count self-test" (fun () ->
         List.iter
           (fun p ->
             List.iter2
               (fun (k, a) (_, b) ->
                 check (a = b) "count %s differs between passes: %d vs %d" k a b)
               first.counts p.counts)
           passes));
  let layer_s name = median (List.map (fun p -> List.assoc name p.layer_s) passes) in
  let count name = float_of_int (List.assoc name first.counts) in
  let traced_s, untraced_s =
    best_totals (best_per_op (List.map (fun p -> p.op_times) passes)) (best_per_op !untraced)
  in
  let speedup =
    let pairs =
      List.filter_map
        (fun o ->
          match o.jobs2 with
          | Some f -> attempt (o.label ^ " (jobs 1 vs 2)") f
          | None -> None)
        parallel
    in
    ratio
      (List.fold_left (fun a (x, _) -> a +. x) 0. pairs)
      (List.fold_left (fun a (_, y) -> a +. y) 0. pairs)
  in
  let obs = obs_overhead (List.nth ops obs_probe) in
  let w = first.work in
  [ metric "gen.calls" "count" (float_of_int l_gen.Layer.calls /. float_of_int !setups);
    metric "gen.busy_s" "s" (Layer.self_s l_gen /. float_of_int !setups);
    metric "machine.writes" "count" (count "machine.writes");
    metric "machine.step_calls" "count" (count "machine.step_calls");
    metric "machine.self_s" "s" (layer_s "machine");
    metric "machine.self_share" "1"
      (median
         (List.map
            (fun p ->
              ratio (List.assoc "machine" p.layer_s)
                (Array.fold_left
                   (fun a t -> if Float.is_finite t then a +. t else a)
                   0. p.op_times))
            passes));
    metric "machine.minor_words" "words" (count "machine.minor_words");
    metric "protocol.activate_calls" "count" (count "protocol.activate_calls");
    metric "protocol.activate_s" "s" (layer_s "protocol.activate");
    metric "protocol.compose_calls" "count" (count "protocol.compose_calls");
    metric "protocol.compose_s" "s" (layer_s "protocol.compose");
    metric "protocol.compose_minor_words" "words" (count "protocol.compose.minor_words");
    metric "protocol.output_s" "s" (layer_s "protocol.output");
    metric "adversary.choose_calls" "count" (count "adversary.choose_calls");
    metric "adversary.choose_s" "s" (layer_s "adversary");
    metric "explore.states" "count" (float_of_int w.states);
    metric "explore.finals" "count" (float_of_int w.finals);
    metric "explore.dedup_hits" "count" (float_of_int w.dedup_hits);
    metric "explore.dedup_ratio" "1"
      (ratio (float_of_int w.dedup_hits) (float_of_int (w.dedup_hits + w.states)));
    metric "explore.orbit_collapses" "count" (float_of_int w.orbit_collapses);
    metric "explore.executions" "count" (count "explore.executions");
    metric "explore.self_s" "s" (layer_s "explore");
    metric "explore.auto_s" "s" (layer_s "explore.auto");
    metric "explore.speedup_j2" "x" speedup;
    metric "wire.frames" "count" (count "wire.frames");
    metric "wire.bytes" "bytes" (count "wire.bytes");
    metric "wire.encode_s" "s" (layer_s "wire.encode");
    metric "wire.decode_s" "s" (layer_s "wire.decode");
    metric "wire.overhead_pct" "%"
      (100. *. ratio (8. *. count "wire.bytes") (float_of_int first.board_bits));
    metric "conn.rpcs" "count" (count "conn.rpcs");
    metric "conn.rpc_p99_us" "us" (median (List.map (fun p -> p.rtt_p99_us) passes));
    metric "client.handle_calls" "count" (count "client.handle_calls");
    metric "client.self_s" "s" (layer_s "client");
    metric "session.self_s" "s" (layer_s "session");
    metric "obs.overhead_pct" "%" obs;
    metric "tracing.overhead_pct" "%" (100. *. (ratio traced_s untraced_s -. 1.)) ]

(* ---------------------------------------------------------------- *)
(* Main                                                              *)

let usage () =
  prerr_endline
    "usage: wb_perf --workload (run-frozen|run-sync|verify|net-loopback) --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := (match int_of_string_opt s with Some s -> s | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some s when s > 0. -> s | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let build = match List.assoc_opt !workload workloads with Some b -> b | None -> usage () in
  Obs.Cost.disable ();
  Obs.Prof.disable ();
  let (ops, parallel), setup_s = setup build !seed in
  let metrics =
    if !trace then traced ops ~parallel ~seconds:!seconds
    else begin
      timed_run ops ~seconds:!seconds;
      end_to_end ops ~setup_s
    end
  in
  List.iter
    (fun o ->
      if o.times <> [] then
        Printf.printf "  %-36s %3d runs  best %.4f s  median %.4f s\n" o.label
          (List.length o.times) (best o.times) (median o.times))
    ops;
  if not !trace then
    Printf.printf "  (wall times; calibration loop best %.6f s, reported times scaled by %.4f)\n"
      !cal_best (cal_nominal_s /. !cal_best);
  (* A metric that could not be measured is a failure, never a null. *)
  let metrics =
    List.map
      (fun m ->
        if Float.is_finite m.value then m
        else begin
          incr failed;
          Printf.printf "FAILED %s: not measured\n" m.name;
          { m with value = 0. }
        end)
      metrics
  in
  List.iter (fun m -> Printf.printf "%-30s %16.6g %s\n" m.name m.value m.unit_) metrics;
  Printf.printf "%-30s %16.6g %s\n" "failed_ratio"
    (ratio (float_of_int !failed) (float_of_int (max 1 !attempted)))
    "1";
  let json =
    Obs.Json.Obj
      [ ("correct", Obs.Json.Bool (!failed = 0));
        ("attempted", Obs.Json.Int !attempted);
        ("failed", Obs.Json.Int !failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Obs.Json.Obj
                     [ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit_) ] ))
               metrics) ) ]
  in
  print_endline (Obs.Json.to_string json)
