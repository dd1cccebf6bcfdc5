(* Standalone validator for the opt-in instrumentation artifacts of the
   [check-prof] and [check-cost] aliases:

     check_metrics.exe (--expect-FAM | --forbid-FAM) FILE...

   where FAM is "prof" or "cost".  Every *.om.txt FILE must be a
   grammatically valid OpenMetrics exposition (checked with the same
   Openmetrics.validate the unit tests pin down); every *.json FILE must
   be a metrics-registry snapshot.  In either form, FAM.* series must be
   present under --expect and absent under --forbid — the on-disk proof
   that the instrumentation is opt-in and that a never-enabled process
   registers nothing. *)

module J = Wb_obs.Json
module M = Wb_obs.Metrics

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_metrics: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* family series in a registry snapshot: any counter, gauge or histogram
   named under "FAM." — prof only registers histograms, cost a counter
   and a histogram. *)
let family_in_json ~family path body =
  let v =
    match J.of_string body with
    | Ok v -> v
    | Error msg -> fail "%s: invalid JSON: %s" path msg
  in
  (match J.member "histograms" v with
  | Some (J.Obj _) -> ()
  | Some _ -> fail "%s: histograms is not an object" path
  | None -> fail "%s: not a metrics snapshot (no histograms member)" path);
  let prefix = family ^ "." in
  List.exists
    (fun section ->
      match J.member section v with
      | Some (J.Obj kvs) -> List.exists (fun (k, _) -> starts_with ~prefix k) kvs
      | _ -> false)
    [ "counters"; "gauges"; "histograms" ]

(* family series in an exposition: TYPE lines declaring a FAM_ family. *)
let family_in_om ~family path body =
  (match M.Openmetrics.validate body with
  | Ok () -> ()
  | Error msg -> fail "%s: invalid OpenMetrics exposition: %s" path msg);
  let prefix = "# TYPE " ^ family ^ "_" in
  List.exists (fun line -> starts_with ~prefix line) (String.split_on_char '\n' body)

let () =
  let expect, family, files =
    match List.tl (Array.to_list Sys.argv) with
    | "--expect-prof" :: files when files <> [] -> (true, "prof", files)
    | "--forbid-prof" :: files when files <> [] -> (false, "prof", files)
    | "--expect-cost" :: files when files <> [] -> (true, "cost", files)
    | "--forbid-cost" :: files when files <> [] -> (false, "cost", files)
    | _ ->
      fail "usage: check_metrics (--expect-prof | --forbid-prof | --expect-cost | --forbid-cost) \
            FILE..."
  in
  List.iter
    (fun path ->
      let body = read_file path in
      let has =
        if Filename.check_suffix path ".json" then family_in_json ~family path body
        else family_in_om ~family path body
      in
      (match (expect, has) with
      | true, false -> fail "%s: expected %s.* series, found none" path family
      | false, true -> fail "%s: found %s.* series in a run that never enabled them" path family
      | _ -> ());
      Printf.printf "ok %-32s %s series %s\n" path family
        (if has then "present" else "absent"))
    files
