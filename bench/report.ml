(* The shared bench report: every bench driver (bench/main.exe sections
   and `wbctl bench`) emits its machine-readable
   sidecar through this module, so all of them share one schema-versioned
   envelope —

     { schema: 1, bench, seed, git, params, wall_s, rows, metrics, registry }

   [metrics] is the flat name -> number map scripts/benchdiff.ml diffs
   across runs (numeric row fields are auto-flattened into it as
   "<row>.<field>"); [registry] is the full Wb_obs.Metrics snapshot for
   forensic reading.  Bumping the shape means bumping [schema_version]. *)

module J = Wb_obs.Json

let schema_version = 1

(* ---- uniform bench CLI -------------------------------------------------- *)

module Cli = struct
  (* Every bench main accepts the same flags: [--seed N] overrides the
     bench's historical default seed (recorded in the report either way),
     [--out FILE] redirects the sidecar, [--fast] trims instance lists for
     CI.  Remaining arguments pass through in [rest] (section names for
     bench/main.exe; anything else is the binary's error to report). *)
  type t = { seed : int option; out : string option; fast : bool; rest : string list }

  let usage name = Printf.sprintf "usage: %s [--seed N] [--out FILE] [--fast] [SECTION...]" name

  let parse ?(argv = Sys.argv) () =
    let name = Filename.basename argv.(0) in
    let die () =
      prerr_endline (usage name);
      exit 2
    in
    let rec go acc rest = function
      | [] -> { acc with rest = List.rev rest }
      | "--seed" :: v :: tl -> (
        match int_of_string_opt v with
        | Some s -> go { acc with seed = Some s } rest tl
        | None -> die ())
      | "--out" :: v :: tl -> go { acc with out = Some v } rest tl
      | "--fast" :: tl -> go { acc with fast = true } rest tl
      | [ "--seed" ] | [ "--out" ] -> die ()
      | arg :: _ when String.length arg >= 2 && String.equal (String.sub arg 0 2) "--" ->
        die ()
      | arg :: tl -> go acc (arg :: rest) tl
    in
    go { seed = None; out = None; fast = false; rest = [] } []
      (List.tl (Array.to_list argv))

  let seed t ~default = match t.seed with Some s -> s | None -> default
end

(* ---- report assembly ---------------------------------------------------- *)

type t = {
  bench : string;
  seed : int;
  params : (string * J.t) list;
  started : float;
  mutable rows : J.t list;  (* newest first *)
  mutable metrics : (string * float) list;  (* newest first *)
}

let git_rev () =
  match Sys.getenv_opt "WB_GIT_REV" with
  | Some s when not (String.equal s "") -> s
  | _ -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when not (String.equal line "") -> line
      | _ -> "unknown"
    with Unix.Unix_error _ | Sys_error _ -> "unknown")

let create ?(params = []) ~bench ~seed () =
  { bench; seed; params; started = Unix.gettimeofday (); rows = []; metrics = [] }

let add_metric t key v = t.metrics <- (key, v) :: t.metrics

(* Numeric row fields feed the diffable metric map as "<row>.<field>";
   one level of nested objects (the rpc bench's per-histogram sub-rows)
   flattens as "<row>.<field>.<subfield>". *)
let flatten t ~name fields =
  let num prefix (k, v) =
    match v with
    | J.Int i -> add_metric t (Printf.sprintf "%s.%s" prefix k) (float_of_int i)
    | J.Float f -> add_metric t (Printf.sprintf "%s.%s" prefix k) f
    | _ -> ()
  in
  List.iter
    (fun (k, v) ->
      match v with
      | J.Obj sub -> List.iter (num (Printf.sprintf "%s.%s" name k)) sub
      | v -> num name (k, v))
    fields

let add_row t ~name fields =
  t.rows <- J.Obj (("name", J.String name) :: fields) :: t.rows;
  flatten t ~name fields

let to_json t =
  let wall = Unix.gettimeofday () -. t.started in
  let metrics =
    ("wall_s", J.Float wall)
    :: List.rev_map (fun (k, v) -> (k, J.Float v)) t.metrics
  in
  J.Obj
    [ ("schema", J.Int schema_version);
      ("bench", J.String t.bench);
      ("seed", J.Int t.seed);
      ("git", J.String (git_rev ()));
      ("params", J.Obj t.params);
      ("wall_s", J.Float wall);
      ("rows", J.List (List.rev t.rows));
      ("metrics", J.Obj metrics);
      ("registry", Wb_obs.Metrics.dump_json ()) ]

let default_out t = "BENCH_" ^ t.bench ^ ".json"

let write ?out t =
  let doc = to_json t in
  let file = match out with Some f -> f | None -> default_out t in
  let oc = open_out file in
  J.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" file;
  doc

(* ---- loading / history -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match J.of_string (read_file path) with
  | Ok j -> Ok j
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | exception Sys_error e -> Error e

let load_history path =
  match read_file path with
  | exception Sys_error _ -> []
  | contents ->
    String.split_on_char '\n' contents
    |> List.filter_map (fun line ->
           if String.equal (String.trim line) "" then None
           else match J.of_string line with Ok j -> Some j | Error _ -> None)

let append_history ~history doc =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      J.to_channel oc doc;
      output_char oc '\n')

(* ---- schema accessors --------------------------------------------------- *)

let schema_of doc = match J.member "schema" doc with Some (J.Int v) -> Some v | _ -> None

let bench_of doc =
  match J.member "bench" doc with Some (J.String s) -> Some s | _ -> None

let metrics_of doc =
  match J.member "metrics" doc with
  | Some (J.Obj kvs) ->
    List.filter_map
      (fun (k, v) ->
        match v with
        | J.Int i -> Some (k, float_of_int i)
        | J.Float f -> Some (k, f)
        | _ -> None)
      kvs
  | _ -> []
