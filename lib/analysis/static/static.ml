(* Driver for both lint entry points. [analyze]: load sources, build
   the call graph, run the passes, apply suppressions, and compare
   against a committed baseline. [lint_dir]: the per-file rules of a
   profile plus the missing-mli check. Pure — printing and exit codes
   live in bin/rhodos_lint. *)

type report = {
  findings : Finding.t list;
  suppressed : int;
  parse_failures : (string * string) list;
  files : Source.file list;
  timings : (string * float) list;
  race_locations : Racepass.location list;
}

(* Every rule a pass reports. Only a [static-ok] marker naming one of
   these can be stale: a doc comment that shows the syntax as
   [static-ok: reason] names no rule. *)
let pass_rules =
  [
    "may-block-under-lock"; "may-block-in-cell-update"; "lock-order-cycle";
    "wire-protocol-coverage"; "swallowed-control-exn"; "unmapped-wire-error";
    "leak-on-raise"; "ivar-unfilled-on-raise"; "escaping-raise-into-dispatch";
    "static-race"; "unsynchronized-cell-write"; "unmonitored-shared-state";
  ]
  @ Ast_rules.static_rules

(* A marker that suppressed nothing means the code it excused is gone,
   or a pass has lost sight of it; either way the marker must go. *)
let stale_suppressions files dropped =
  List.concat_map
    (fun (f : Source.file) ->
      List.filter_map
        (fun (line, rule) ->
          let used (x : Finding.t) =
            x.Finding.file = f.Source.path
            && Source.suppressed [ (line, rule) ] ~line:x.Finding.line
                 ~rule:x.Finding.rule
          in
          if List.mem rule pass_rules && not (List.exists used dropped) then
            Some
              (Finding.v ~rule:"stale-suppression" ~file:f.Source.path ~line
                 ~slug:rule
                 (Printf.sprintf
                    "static-ok marker for %s suppresses no finding; delete it"
                    rule))
          else None)
        f.Source.suppressions)
    files

(* One suppression reader for both entry points: (kept, dropped). *)
let partition_suppressed files findings =
  let suppressions_for path =
    match
      List.find_opt (fun (f : Source.file) -> f.Source.path = path) files
    with
    | Some f -> f.Source.suppressions
    | None -> []
  in
  List.partition
    (fun (f : Finding.t) ->
      not
        (Source.suppressed
           (suppressions_for f.Finding.file)
           ~line:f.Finding.line ~rule:f.Finding.rule))
    findings

(* [clock] defaults to a constant so the library stays free of host
   clocks (the host-clock-hygiene rule); the CLI passes [Sys.time] to
   get real per-pass wall-time in [--json]. *)
let analyze_files ?(clock = fun () -> 0.) files =
  let timings = ref [] in
  let timed name f =
    let t0 = clock () in
    let r = f () in
    timings := (name, clock () -. t0) :: !timings;
    r
  in
  let graph = timed "callgraph" (fun () -> Callgraph.build files) in
  let mb = timed "mayblock" (fun () -> Mayblock.compute graph) in
  let lock = timed "lockpass" (fun () -> Lockpass.run graph mb) in
  let proto = timed "protocol" (fun () -> Protocol.run graph) in
  let _exn, exn_findings =
    timed "exnflow" (fun () -> Exnflow.run graph lock)
  in
  let race = timed "racepass" (fun () -> Racepass.run graph mb lock) in
  let ast =
    timed "ast-rules" (fun () ->
        Ast_rules.run ~rules:Ast_rules.static_rules files)
  in
  let kept, dropped =
    partition_suppressed files
      (Finding.sort
         (lock.Lockpass.findings @ proto @ exn_findings
         @ race.Racepass.findings @ ast))
  in
  {
    findings = Finding.sort (kept @ stale_suppressions files dropped);
    suppressed = List.length dropped;
    parse_failures =
      List.filter_map
        (fun (f : Source.file) ->
          Option.map
            (fun (line, e) -> (Printf.sprintf "%s:%d" f.Source.path line, e))
            f.Source.parse_error)
        files;
    files;
    timings = List.rev !timings;
    race_locations = race.Racepass.locations;
  }

let analyze ?clock ~dirs () =
  analyze_files ?clock (List.concat_map Source.load_dir dirs)

(* ------------------------------------------------------------------ *)
(* Per-file lint ([rhodos_lint DIR])                                   *)
(* ------------------------------------------------------------------ *)

let lint_files ?(profile = Ast_rules.Library) files =
  fst
    (partition_suppressed files
       (Ast_rules.run ~rules:(Ast_rules.profile_rules profile) files))

let lint_source ?profile ~file src =
  lint_files ?profile [ Source.of_string ~path:file src ]

(* The one rule that reads the file system, not the parse tree. *)
let missing_mli (f : Source.file) =
  if Sys.file_exists (f.Source.path ^ "i") then []
  else
    [
      Finding.v ~rule:"missing-mli" ~file:f.Source.path ~line:1
        ~slug:"missing-mli" "library module has no .mli interface";
    ]

let lint_dir ?(profile = Ast_rules.Library) dir =
  let files = Source.load_dir dir in
  Finding.sort
    (lint_files ~profile files
    @
    match profile with
    | Library -> List.concat_map missing_mli files
    | Bench -> [])

let against_baseline report ~baseline =
  let keys = List.map Finding.key report.findings in
  let fresh =
    List.filter
      (fun f -> not (List.mem (Finding.key f) baseline))
      report.findings
  in
  let stale = List.filter (fun k -> not (List.mem k keys)) baseline in
  (fresh, stale)

(* ------------------------------------------------------------------ *)
(* Fixture self-test                                                   *)
(* ------------------------------------------------------------------ *)

(* Fixtures carry their expectations in comments:
   [(* expect: rule-a rule-b *)] — the findings in this file must be
   exactly that rule set; no directive (or [expect-clean]) — the file
   must be silent. *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let index_of hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let expected_rules src =
  match index_of src "expect:" with
  | None -> []
  | Some i ->
    let rest = String.sub src (i + 7) (String.length src - i - 7) in
    let stop =
      match index_of rest "*)" with
      | Some j -> String.sub rest 0 j
      | None -> rest
    in
    List.sort_uniq compare
      (List.filter
         (fun w -> w <> "")
         (String.split_on_char ' '
            (String.map (fun c -> if c = '\n' then ' ' else c) stop)))

let self_test ~dir =
  let report = analyze ~dirs:[ dir ] () in
  let ok = ref true in
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun (f : Source.file) ->
      let base = Filename.basename f.Source.path in
      let expected = expected_rules f.Source.src in
      let found =
        List.sort_uniq compare
          (List.filter_map
             (fun (x : Finding.t) ->
               if x.Finding.file = f.Source.path then Some x.Finding.rule
               else None)
             report.findings)
      in
      let expected =
        if expected = [] && contains f.Source.src "expect-clean" then []
        else expected
      in
      if found = expected then
        say "fixture %s: ok (%s)" base
          (if expected = [] then "clean"
           else String.concat ", " expected)
      else begin
        ok := false;
        say "fixture %s: FAIL expected [%s] got [%s]" base
          (String.concat ", " expected)
          (String.concat ", " found)
      end)
    report.files;
  (* The headline rules must come with evidence: a finding without a
     witness chain is useless to the reader and a regression here. *)
  let witnessed_rules =
    [
      "may-block-under-lock"; "lock-order-cycle"; "swallowed-control-exn";
      "leak-on-raise"; "ivar-unfilled-on-raise"; "unmapped-wire-error";
      "escaping-raise-into-dispatch"; "static-race";
      "unsynchronized-cell-write"; "unmonitored-shared-state";
    ]
  in
  List.iter
    (fun (x : Finding.t) ->
      if
        List.mem x.Finding.rule witnessed_rules
        && x.Finding.witness = []
      then begin
        ok := false;
        say "finding %s at %s:%d has no witness chain" x.Finding.rule
          x.Finding.file x.Finding.line
      end)
    report.findings;
  List.iter
    (fun (path, err) ->
      ok := false;
      say "fixture %s failed to parse: %s" (Filename.basename path) err)
    report.parse_failures;
  (!ok, List.rev !out)
