(* Repo lint driver. Both modes parse with the compiler frontend and
   report an unparseable file as a [parse-failure] finding.

   [rhodos_lint DIR...] — the per-file lint rules over every .ml under
   the given directories (default: lib). Directories named "bench"
   get the Bench profile. Wired to the @lint alias on the tier-1
   runtest path.

   [rhodos_lint static [--json] [--baseline FILE] [--write-baseline
   FILE] [--self-test DIR] [DIR...]] — the whole-program analysis
   (call graph, may-block fixpoint, lock-order graph, wire-protocol
   coverage, exception flow, races, and three of the per-file rules).
   Exit 0 when clean against the baseline (if any), 1 on new findings,
   2 on usage/IO errors. Wired to the @staticcheck alias, part of
   @ci. *)

module Static = Rhodos_static.Static
module Finding = Rhodos_static.Finding
module Ast_rules = Rhodos_static.Ast_rules

let profile_of dir =
  if Filename.basename dir = "bench" then Ast_rules.Bench else Ast_rules.Library

let require_dir d =
  if not (Sys.file_exists d && Sys.is_directory d) then begin
    Format.eprintf "lint: no such directory: %s@." d;
    exit 2
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let usage_static () =
  Format.eprintf
    "usage: rhodos_lint static [--json] [--baseline FILE] [--write-baseline \
     FILE] [--self-test DIR] [--max-ms N] [DIR...]@.";
  exit 2

let run_static args =
  let json = ref false in
  let baseline = ref None in
  let write_baseline = ref None in
  let self_test = ref None in
  let max_ms = ref None in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--baseline" :: f :: rest ->
      baseline := Some f;
      parse rest
    | "--write-baseline" :: f :: rest ->
      write_baseline := Some f;
      parse rest
    | "--self-test" :: d :: rest ->
      self_test := Some d;
      parse rest
    | "--max-ms" :: n :: rest -> (
      match float_of_string_opt n with
      | Some v -> max_ms := Some v; parse rest
      | None -> usage_static ())
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage_static ()
    | d :: rest ->
      dirs := !dirs @ [ d ];
      parse rest
  in
  parse args;
  match !self_test with
  | Some dir ->
    require_dir dir;
    let ok, lines = Static.self_test ~dir in
    List.iter (fun l -> Format.printf "%s@." l) lines;
    if ok then Format.printf "staticcheck: self-test passed@."
    else begin
      Format.eprintf "staticcheck: self-test FAILED@.";
      exit 1
    end
  | None ->
    let dirs = match !dirs with [] -> [ "lib" ] | ds -> ds in
    List.iter require_dir dirs;
    (* Sys.time here, not in the library: bin/ is outside the
       host-clock-hygiene lint's jurisdiction, and the per-pass cost
       numbers are a CLI concern anyway. *)
    let report = Static.analyze ~clock:Sys.time ~dirs () in
    let baseline_keys =
      match !baseline with
      | None -> []
      | Some f ->
        if Sys.file_exists f then Finding.baseline_of_string (read_file f)
        else begin
          Format.eprintf "staticcheck: no such baseline: %s@." f;
          exit 2
        end
    in
    (match !write_baseline with
    | None -> ()
    | Some f ->
      let oc = open_out_bin f in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Finding.baseline_to_string
               (List.map Finding.key report.Static.findings))));
    let fresh, stale = Static.against_baseline report ~baseline:baseline_keys in
    if !json then
      print_string
        (Finding.list_to_json
           ~suppressed:report.Static.suppressed
           ~parse_failures:
             (List.map
                (fun (p, e) -> Printf.sprintf "%s: %s" p e)
                report.Static.parse_failures)
           ~timings:report.Static.timings
           ~extras:
             [
               ( "protection_map",
                 Rhodos_static.Racepass.locations_to_json
                   report.Static.race_locations );
             ]
           fresh)
    else begin
      List.iter (fun f -> Format.printf "%a@." Finding.pp f) fresh;
      (* A readable added/removed diff against the committed baseline:
         the sweep deviating must say exactly how. *)
      if fresh <> [] || stale <> [] then begin
        Format.eprintf "staticcheck: baseline diff (%d added, %d removed):@."
          (List.length fresh) (List.length stale);
        List.iter
          (fun f ->
            Format.eprintf "  + %s (%s:%d)@." (Finding.key f) f.Finding.file
              f.Finding.line)
          fresh;
        List.iter
          (fun k -> Format.eprintf "  - %s (stale: no longer found)@." k)
          stale
      end
    end;
    (* Wall-time budget: a generous ceiling so a later pass cannot
       silently blow up CI. *)
    let total_ms =
      1000. *. List.fold_left (fun a (_, s) -> a +. s) 0. report.Static.timings
    in
    (match !max_ms with
    | Some budget when total_ms > budget ->
      Format.eprintf
        "staticcheck: static suite took %.0f ms, over the %.0f ms budget \
         (per-pass: %s)@."
        total_ms budget
        (String.concat ", "
           (List.map
              (fun (p, s) -> Printf.sprintf "%s %.0fms" p (1000. *. s))
              report.Static.timings));
      exit 1
    | _ -> ());
    if fresh = [] then begin
      if not !json then
        Format.printf
          "staticcheck: %s clean (%d finding(s) baselined, %d suppressed)@."
          (String.concat " " dirs)
          (List.length baseline_keys)
          report.Static.suppressed
    end
    else begin
      Format.eprintf "staticcheck: %d new finding(s)@." (List.length fresh);
      exit 1
    end

let run_text dirs =
  let dirs = match dirs with [] -> [ "lib" ] | ds -> ds in
  List.iter require_dir dirs;
  let findings =
    List.concat_map (fun d -> Static.lint_dir ~profile:(profile_of d) d) dirs
  in
  List.iter (fun f -> Format.printf "%a@." Finding.pp f) findings;
  match findings with
  | [] -> Format.printf "lint: %s clean@." (String.concat " " dirs)
  | vs ->
    Format.eprintf "lint: %d violation(s)@." (List.length vs);
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "static" :: rest -> run_static rest
  | [] | [ _ ] -> run_text []
  | _ :: dirs -> run_text dirs
