(* The evaluation harness: regenerates the paper's table and figure
   (E0, E1) and one experiment per quantitative claim (E2..E12), plus
   bechamel microbenchmarks of the hot data structures.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only E5    # one experiment
     dune exec bench/main.exe -- --only micro # microbenchmarks only
     dune exec bench/main.exe -- --list       # list experiments
     dune exec bench/main.exe -- --json baseline
       # run the tracked experiments, write BENCH_baseline.json
     dune exec bench/main.exe -- --baseline-check BENCH_baseline.json
       # rerun them; fail if a non-gc_* key differs from the file *)

let experiments =
  [
    ("E0", "Fig. 1 — architecture walk", Exp_e0.run);
    ("E1", "Table 1 — lock compatibility", Exp_e1.run);
    ("E2", "two disk references for files up to 0.5 MB", Exp_e2.run);
    ("E3", "the FIT contiguity count field", Exp_e3.run);
    ("E4", "fragments for metadata vs blocks-only", Exp_e4.run);
    ("E5", "64x64 extent array vs bitmap scan", Exp_e5.run);
    ("E6", "client caching vs the Bullet baseline", Exp_e6.run);
    ("E7", "WAL vs shadow pages vs hybrid commit", Exp_e7.run);
    ("E8", "locking granularity: record/page/file", Exp_e8.run);
    ("E9", "deadlock timeouts (LT sweep)", Exp_e9.run);
    ("E10", "file partitioning across disks", Exp_e10.run);
    ("E11", "reliability: crash, decay, duplication", Exp_e11.run);
    ("E12", "delayed-write vs write-through", Exp_e12.run);
    ("E13", "the replication service", Exp_e13.run);
    ("E14", "distribution transparency (goal 1)", Exp_e14.run);
    ("E15", "client data-path pipeline", Exp_e15.run);
    ("A1", "ablation: disk scheduling FCFS/SSTF/SCAN", Exp_a1.run);
    ("A2", "ablation: client cache size sweep", Exp_a2.run);
    ("A3", "ablation: fetch window / coalescing / read-ahead", Exp_a3.run);
    ("A4", "ablation: controlled scheduling / exploration depth", Exp_a4.run);
    ("A5", "ablation: race/protocol sanitizer overhead", Exp_a5.run);
    ("P0", "sim-core benchmark: events/sec, allocations/event", Exp_p0.run);
    ("micro", "bechamel microbenchmarks", Micro.run);
  ]

(* Size the minor heap to the workloads (32M words): the simulator's
   live set scales with pending events — a parked continuation and its
   waker survive until the wake event fires, which on the 10k-process
   loads is several default-sized minor collections away. Under the
   256k-word default roughly half of all allocation was promoted and
   the major GC dominated the event loop; at 32M words the same runs
   promote almost nothing. See DESIGN.md "Event-core memory layout". *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 32 * 1024 * 1024 }

(* Run every experiment that registered a JSON emitter (micro is
   wall-clock, so it stays out of the deterministic record; P0 reports
   host-time rates, so it lives in its own BENCH_simcore.json via
   --perf-write), each with its Gc deltas appended; returns their ids. *)
let run_tracked () =
  List.filter_map
    (fun (id, _, run) ->
      if id <> "P0" && Json_out.registered id then begin
        Json_out.with_gc id run;
        Some id
      end
      else None)
    experiments

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--list" ] ->
    List.iter (fun (id, what, _) -> Printf.printf "%-6s %s\n" id what) experiments
  | [ "--only"; id ] -> (
    match List.find_opt (fun (eid, _, _) -> String.lowercase_ascii eid = String.lowercase_ascii id) experiments with
    | Some (_, _, run) -> run ()
    | None ->
      Printf.eprintf "unknown experiment %S (try --list)\n" id;
      exit 1)
  | "--json" :: rest ->
    let name = match rest with [ name ] -> name | _ -> "run" in
    let ids = run_tracked () in
    Printf.printf "\nwrote %s\n" (Json_out.write ~only:ids ~name ())
  | [ "--baseline-check"; baseline ] ->
    (* The @baseline alias: rerun the tracked experiments and compare
       them with the committed BENCH_baseline.json. *)
    if not (Json_out.check_baseline ~only:(run_tracked ()) baseline) then exit 1
  | [ "--perf-write" ] ->
    (* Measure the sim-core loads and (re)write the committed perf
       baseline the @perf alias gates against. *)
    Exp_p0.run ();
    Printf.printf "\nwrote %s\n" (Json_out.write ~only:[ "P0" ] ~name:"simcore" ())
  | [ "--perf-check"; baseline ] ->
    (* The @perf alias: re-measure and compare against the committed
       BENCH_simcore.json; non-zero exit on regression. *)
    if not (Exp_p0.check ~baseline ()) then exit 1
  | [] ->
    Printf.printf
      "RHODOS distributed file facility — evaluation harness\n\
       (Panadiwal & Goscinski, ICDCS 1994; see EXPERIMENTS.md)\n";
    List.iter (fun (_, _, run) -> run ()) experiments
  | _ ->
    Printf.eprintf
      "usage: main.exe [--list | --only <id> | --json [name] | --baseline-check \
       <baseline> | --perf-write | --perf-check <baseline>]\n";
    exit 1
