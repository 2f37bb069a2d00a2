(* Correctness-analysis driver.

   With no arguments (the @analyze alias): Table 1 model check, seeded
   deadlock-detector scenarios, determinism sanitizer (now also
   explorer-backed: N explored schedules on top of FIFO/FIFO/LIFO).

   Subcommands:
     explore [--json]        bounded model checking of the seed
                             scenarios + crash-point sweeps + the
                             lost-update negative control (@explore)
     sanitize [--json]       race/protocol sanitizers across explored
                             schedules of every shipped scenario, plus
                             the seeded-race negative control, which
                             both the happens-before and the lockset
                             pass must catch with a deterministically
                             replayable schedule (@sanitize)
     replay <scenario> <schedule>
                             deterministically re-execute one schedule
                             ("0,2,1" or "[]") and print the
                             interleaving trace *)

module Sim = Rhodos_sim.Sim
module Analysis = Rhodos_analysis
module Explore = Rhodos_analysis.Explore
module Scenarios = Rhodos_analysis.Scenarios
module Counter = Rhodos_util.Stats.Counter

let failures = ref 0

let section name ok detail =
  Format.printf "@[<v>== %s: %s@ %s@]@.@." name
    (if ok then "ok" else "FAIL")
    detail;
  if not ok then incr failures

(* ------------------------------------------------------------------ *)
(* 1. Table 1 model check                                              *)
(* ------------------------------------------------------------------ *)

let run_table_check () =
  let checks = Analysis.Table_check.run () in
  section "table-1 model check"
    (Analysis.Table_check.all_ok checks)
    (Format.asprintf "%a" Analysis.Table_check.pp_report checks)

(* ------------------------------------------------------------------ *)
(* 2. Deadlock detector: seeded cycle and seeded false abort           *)
(* ------------------------------------------------------------------ *)

let pp_outcome fmt (o : Analysis.Scenarios.deadlock_outcome) =
  Format.fprintf fmt
    "true_deadlocks=%d false_aborts=%d cycle=%s aborted=[%s]"
    o.true_deadlocks o.false_aborts
    (match o.cycle with
    | None -> "none"
    | Some c -> String.concat "->" (List.map string_of_int c))
    (String.concat ";" (List.map string_of_int o.aborted))

let run_deadlock_scenarios () =
  let o = Analysis.Scenarios.two_cycle () in
  section "deadlock: seeded 2-cycle"
    (o.true_deadlocks >= 1
    && (match o.cycle with Some (_ :: _ :: _) -> true | _ -> false)
    && o.aborted <> [])
    (Format.asprintf "%a" pp_outcome o);
  let o = Analysis.Scenarios.long_transaction_false_abort () in
  section "deadlock: long transaction, no cycle"
    (o.false_aborts >= 1 && o.true_deadlocks = 0 && o.aborted = [ 1 ])
    (Format.asprintf "%a" pp_outcome o)

(* ------------------------------------------------------------------ *)
(* 3. Determinism sanitizer                                            *)
(* ------------------------------------------------------------------ *)

(* An order-independent workload: clients bank into distinct cells,
   with sleeps, mailbox traffic and same-time wakeups. Must survive
   perturbed tie-breaking — and 32 explorer-enumerated interleavings —
   with identical observations. *)
let run_determinism () =
  let cells = 8 in
  let results = Array.make cells 0 in
  let setup sim =
    Array.fill results 0 cells 0;
    let mb = Sim.Mailbox.create sim in
    ignore
      (Sim.spawn ~name:"server" sim (fun () ->
           for _ = 1 to cells do
             let i = Sim.Mailbox.recv mb in
             results.(i) <- results.(i) + (i * i)
           done));
    for i = 0 to cells - 1 do
      ignore
        (Sim.spawn ~name:"client" sim (fun () ->
             Sim.sleep sim 1.;
             Sim.Mailbox.send mb i;
             Sim.sleep sim 2.;
             results.(i) <- results.(i) + 1))
    done
  in
  let observe _sim =
    String.concat ","
      (Array.to_list (Array.map string_of_int results))
  in
  let report =
    Analysis.Determinism.run_twice_compare ~schedules:32 ~setup ~observe ()
  in
  section "determinism sanitizer"
    (Analysis.Determinism.ok report)
    (Format.asprintf "%a" Analysis.Determinism.pp_report report)

(* ------------------------------------------------------------------ *)
(* explore subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let json_escape = Buffer.create 64

let jstr s =
  Buffer.clear json_escape;
  Buffer.add_char json_escape '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string json_escape "\\\""
      | '\\' -> Buffer.add_string json_escape "\\\\"
      | '\n' -> Buffer.add_string json_escape "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string json_escape (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char json_escape c)
    s;
  Buffer.add_char json_escape '"';
  Buffer.contents json_escape

let jints l =
  Printf.sprintf "[%s]" (String.concat "," (List.map string_of_int l))

let report_json (r : Explore.report) =
  let violation =
    match r.Explore.r_violation with
    | None -> "null"
    | Some v ->
      Printf.sprintf
        "{\"invariant\": %s, \"detail\": %s, \"schedule\": %s, \"found\": %s}"
        (jstr v.Explore.v_invariant) (jstr v.Explore.v_detail)
        (jints v.Explore.v_schedule) (jints v.Explore.v_found)
  in
  Printf.sprintf
    "{\"name\": %s, \"runs\": %d, \"max_choice_points\": %d, \"pruned\": %d, \
     \"exhausted\": %b, \"walks\": %d, \"violation\": %s}"
    (jstr r.Explore.r_scenario) r.Explore.r_runs r.Explore.r_max_choice_points
    r.Explore.r_pruned r.Explore.r_exhausted r.Explore.r_walks violation

let sweep_json name (s : Explore.sweep) =
  Printf.sprintf "{\"name\": %s, \"points\": %d, \"failures\": %d}" (jstr name)
    s.Explore.s_points
    (List.length s.Explore.s_failures)

let run_explore ~json () =
  let reports =
    List.map
      (fun (name, bounds, sc) ->
        let r = Explore.explore ~bounds sc in
        let ok = r.Explore.r_violation = None && r.Explore.r_exhausted in
        if not json then
          section ("explore: " ^ name) ok
            (Format.asprintf "%a" Explore.pp_report r)
        else if not ok then incr failures;
        r)
      (Scenarios.explorer_scenarios ())
  in
  let sweeps =
    [
      ("cache-crash-sweep", Scenarios.cache_crash_sweep ());
      ("agent-crash-sweep", Scenarios.agent_crash_sweep ());
    ]
  in
  List.iter
    (fun (name, (s : Explore.sweep)) ->
      let ok = s.Explore.s_failures = [] in
      if not json then
        section ("crash sweep: " ^ name) ok
          (Printf.sprintf "%d injection points, %d failures%s"
             s.Explore.s_points
             (List.length s.Explore.s_failures)
             (String.concat ""
                (List.map
                   (fun (k, inv, d) ->
                     Printf.sprintf "\n  point %d: %s: %s" k inv d)
                   s.Explore.s_failures)))
      else if not ok then incr failures)
    sweeps;
  (* Negative control: the deliberately reintroduced PR-3 lost-update
     bug must be caught, with a minimized schedule that still violates
     on deterministic replay. *)
  let buggy = Scenarios.lost_update_model ~fixed:false () in
  let bug_report = Explore.explore ~bounds:Explore.default_bounds buggy in
  let caught, replayable, cex =
    match bug_report.Explore.r_violation with
    | None -> (false, false, [])
    | Some v ->
      let _, viols, _ = Explore.replay buggy v.Explore.v_schedule in
      (true, viols <> [], v.Explore.v_schedule)
  in
  let fixed = Scenarios.lost_update_model ~fixed:true () in
  let fixed_report = Explore.explore ~bounds:Explore.default_bounds fixed in
  let fixed_ok =
    fixed_report.Explore.r_violation = None && fixed_report.Explore.r_exhausted
  in
  if not json then begin
    section "negative control: lost-update-bug caught"
      (caught && replayable)
      (Format.asprintf "%a" Explore.pp_report bug_report);
    section "lost-update-fixed survives exploration" fixed_ok
      (Format.asprintf "%a" Explore.pp_report fixed_report)
  end
  else begin
    if not (caught && replayable) then incr failures;
    if not fixed_ok then incr failures;
    Printf.printf
      "{\n\
      \  \"scenarios\": [\n    %s\n  ],\n\
      \  \"sweeps\": [\n    %s\n  ],\n\
      \  \"negative_control\": {\"caught\": %b, \"replayable\": %b, \
       \"schedule\": %s},\n\
      \  \"fixed_model\": %s\n\
       }\n"
      (String.concat ",\n    " (List.map report_json reports))
      (String.concat ",\n    "
         (List.map (fun (n, s) -> sweep_json n s) sweeps))
      caught replayable (jints cex)
      (report_json fixed_report)
  end

(* ------------------------------------------------------------------ *)
(* sanitize subcommand                                                 *)
(* ------------------------------------------------------------------ *)

(* Every shipped scenario carries its sanitizer in the world record,
   and sanitizer findings ride the explorer's violation channel — so
   "explore it and demand zero violations" runs the race and protocol
   passes across every explored interleaving, not just FIFO. *)
let run_sanitize ~json () =
  let small =
    { Explore.default_bounds with max_runs = 200; random_walks = 16 }
  in
  let shipped =
    List.map (fun (n, b, sc) -> (n, b, sc)) (Scenarios.explorer_scenarios ())
    @ [
        ("lost-update-fixed", small, Scenarios.lost_update_model ~fixed:true ());
        ("seeded-race-locked", small, Scenarios.seeded_race_model ~locked:true ());
      ]
  in
  let reports =
    List.map
      (fun (name, bounds, sc) ->
        let r = Explore.explore ~bounds sc in
        let ok = r.Explore.r_violation = None in
        if not json then
          section ("sanitize: " ^ name) ok
            (Format.asprintf "%a" Explore.pp_report r)
        else if not ok then incr failures;
        r)
      shipped
  in
  (* Negative control: the seeded lock-free RMW race. The
     happens-before pass must fire already under FIFO (the sanitizer
     reports the unordered step, not a corrupted final state),
     exploration must catch it, and its minimized schedule must still
     violate on deterministic replay. *)
  let buggy () = Scenarios.seeded_race_model ~locked:false () in
  let _, fifo_viols = Explore.run_schedule (buggy ()) [] in
  (* [both_passes] keeps its JSON key; the happens-before pass is the
     sanitizer's one race pass now. *)
  let both_passes = List.mem_assoc "sanitizer:data-race" fifo_viols in
  let bug_report = Explore.explore ~bounds:small (buggy ()) in
  let caught, replayable, cex =
    match bug_report.Explore.r_violation with
    | None -> (false, false, [])
    | Some v ->
      let _, viols, _ = Explore.replay (buggy ()) v.Explore.v_schedule in
      ( true,
        List.exists
          (fun (inv, _) -> String.length inv > 10
                           && String.sub inv 0 10 = "sanitizer:")
          viols,
        v.Explore.v_schedule )
  in
  if not json then begin
    section
      "negative control: seeded-race-bug caught by the happens-before pass"
      (caught && both_passes && replayable)
      (Printf.sprintf "FIFO findings: %s\n%s"
         (String.concat "; " (List.map fst fifo_viols))
         (Format.asprintf "%a" Explore.pp_report bug_report))
  end
  else begin
    if not (caught && both_passes && replayable) then incr failures;
    Printf.printf
      "{\n\
      \  \"scenarios\": [\n    %s\n  ],\n\
      \  \"negative_control\": {\"caught\": %b, \"both_passes\": %b, \
       \"replayable\": %b, \"schedule\": %s, \"fifo_findings\": [%s]}\n\
       }\n"
      (String.concat ",\n    " (List.map report_json reports))
      caught both_passes replayable (jints cex)
      (String.concat ", " (List.map (fun (inv, _) -> jstr inv) fifo_viols))
  end

(* ------------------------------------------------------------------ *)
(* replay subcommand                                                   *)
(* ------------------------------------------------------------------ *)

let run_replay name schedule_str =
  match Scenarios.find_scenario name with
  | None ->
    Format.eprintf "replay: unknown scenario %S@." name;
    Format.eprintf "known: %s@."
      (String.concat ", "
         (List.map (fun (n, _, _) -> n) (Scenarios.explorer_scenarios ())
         @ [
             "lost-update-fixed"; "lost-update-bug"; "seeded-race-bug";
             "seeded-race-locked";
           ]));
    exit 2
  | Some sc ->
    let schedule =
      match Explore.schedule_of_string schedule_str with
      | s -> s
      | exception Failure msg ->
        Format.eprintf "replay: %s@." msg;
        exit 2
    in
    let _run, violations, rendered = Explore.replay sc schedule in
    print_string rendered;
    (match violations with
    | [] -> Format.printf "violations: none@."
    | vs ->
      List.iter
        (fun (inv, detail) -> Format.printf "violation: %s: %s@." inv detail)
        vs)

(* ------------------------------------------------------------------ *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "explore" :: rest ->
    let json = List.mem "--json" rest in
    run_explore ~json ();
    if !failures > 0 then begin
      if not json then
        Format.eprintf "explore: %d analysis(es) failed@." !failures;
      exit 1
    end
    else if not json then Format.printf "explore: all analyses passed@."
  | _ :: "sanitize" :: rest ->
    let json = List.mem "--json" rest in
    run_sanitize ~json ();
    if !failures > 0 then begin
      if not json then
        Format.eprintf "sanitize: %d analysis(es) failed@." !failures;
      exit 1
    end
    else if not json then Format.printf "sanitize: all analyses passed@."
  | [ _; "replay"; name; schedule ] -> run_replay name schedule
  | _ :: "replay" :: _ ->
    Format.eprintf "usage: rhodos_analyze replay <scenario> <schedule>@.";
    exit 2
  | _ ->
    run_table_check ();
    run_deadlock_scenarios ();
    run_determinism ();
    if !failures > 0 then begin
      Format.eprintf "analyze: %d analysis(es) failed@." !failures;
      exit 1
    end
    else Format.printf "analyze: all analyses passed@."
