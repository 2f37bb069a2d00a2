(* P0 — the sim-core self-benchmark behind the @perf gate.

   Two loads, plus a read-path allocation count and a recovery time:

   - the E15 shape: a cold 512 KiB sequential scan in 8 KiB
     application reads through the whole cluster stack — the
     representative "real work" mix of RPCs, disk events, cache fills
     and process wakeups;

   - 10k-process churn: 5000 mailbox ping-pong pairs on a bare Sim,
     interleaving sends, receives, yields and timers — the scheduler
     hot path with nothing else attached;

   - recovery: one [Cluster.recover_server] on [Cluster.default_config]
     after a few files and a committed transaction, in simulated ms.
     It is deterministic, so a change that rescans stable pages
     recovery does not need shows up exactly;

   - the commit path: single-client transfers straight into the
     transaction service, in commits/sec and words/txn, and in
     simulated ms per commit, which is deterministic, so one more
     forced log write per commit shows up exactly;

   - the read path: one remote client on [Cluster.default_config]
     scans a 1 MiB file in 8 KiB reads, cold and then warm, and counts
     every word the whole stack allocates per read (minor + major -
     promoted, the count the benchmark ledger makes). The 8 KiB
     buffers are too big for the minor heap, so [Gc.minor_words] alone
     would not see the data copies this key exists to pin.

   Each load is measured twice, for two different purposes:

   - the *timed* run executes with no profiler probe installed and
     takes wall time and [Gc.minor_words] around [Sim.run] only (the
     build/spawn phase is excluded). It is repeated [timed_runs] times
     and the best rate kept: wall clock measures the machine as much
     as the code, and the minimum wall time is the closest estimate of
     the code's own cost. E15's window is only ~500 events (about a
     millisecond) and its rate is bimodal from run to run, so it takes
     the best of [e15_timed_runs] instead; the window itself is
     unchanged. These are the numbers committed to BENCH_simcore.json
     and gated by `--perf-check`.

   - the *profiled* run arms lib/obs/profiler and prints the per-layer
     table: host time and words charged to the innermost span open in
     the dispatching process. The hooks cost clock and Gc reads per
     dispatch and per span event, so its rate is reported for context
     but is not the gated metric. Its words are gated: the profiler
     keeps its own allocation out of every layer, so E15's words per
     read in each layer repeat exactly and are committed as
     [e15_words_per_read_<layer>].

   (Earlier revisions armed the profiler around the whole load,
   spawn phase included, and gated on its numbers — conflating probe
   overhead and setup allocation with the event loop being measured.)

   `--perf-write` commits the timed numbers to BENCH_simcore.json;
   `--perf-check` (the @perf alias, part of @ci) re-measures and fails
   on regression beyond tolerance: events/sec is wall-clock noisy, so
   the floor is 0.6x baseline; allocations are deterministic for a
   given binary, so words/event gets a tight ceiling.

   The bench binary sizes the minor heap to the workload (see the
   [Gc.set] in bench/main.ml): parked continuations survive until
   their wake event fires, so the live set scales with pending events
   and the 256k-word default minor heap promotes roughly half of all
   allocation on the 10k-process loads. *)

open Common
module Fa = Rhodos_agent.File_agent
module Profiler = Rhodos_obs.Profiler

let () = Json_out.register "P0"
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let timed_runs = 3
let e15_timed_runs = 15

(* Probe-off measurement of [loop ()] on [sim]: host rate and minor
   words per dispatched event. *)
type timing = { dispatches : int; rate : float; words : float }

let timed tracer loop =
  let sim = Trace.sim tracer in
  let d0 = Sim.events_dispatched sim in
  let t0 = now_ns () in
  let m0 = Gc.minor_words () in
  loop ();
  let m1 = Gc.minor_words () in
  let t1 = now_ns () in
  let d = Sim.events_dispatched sim - d0 in
  {
    dispatches = d;
    rate = float_of_int d /. (float_of_int (t1 - t0) /. 1e9);
    words = (m1 -. m0) /. float_of_int d;
  }

let best_of n ~rate f =
  let best = ref (f ()) in
  for _ = 2 to n do
    let t = f () in
    if rate t > rate !best then best := t
  done;
  !best

(* A load measured both ways; [runs] is the timed repeat count. *)
type measured = { timing : timing; runs : int; report : Profiler.report }

(* ------------------------------------------------------------------ *)
(* The E15 shape: cold 512 KiB sequential scan through the stack.      *)

let e15_reads = kib 512 / kib 8

let e15_with measure =
  Cluster.run (fun _ t ->
      let ws = Cluster.add_client t ~name:"ws" in
      let d = Cluster.create_file ws "/data" in
      Cluster.pwrite ws d ~off:0 ~data:(pattern (kib 512));
      Fa.flush (Cluster.file_agent ws);
      Fs.drop_caches (Cluster.file_service t);
      Fa.invalidate_file (Cluster.file_agent ws)
        ~file:(Fa.descriptor_file (Cluster.file_agent ws) d);
      ignore (Cluster.lseek ws d (`Set 0));
      measure (Cluster.tracer t) (fun () ->
          for _ = 1 to e15_reads do
            ignore (Cluster.read ws d (kib 8))
          done))

let e15_load () =
  let timing =
    best_of e15_timed_runs ~rate:(fun t -> t.rate) (fun () -> e15_with timed)
  in
  let report = e15_with (fun tracer loop -> snd (Profiler.profile tracer loop)) in
  { timing; runs = e15_timed_runs; report }

(* ------------------------------------------------------------------ *)
(* The read path: a 1 MiB scan, cold then warm, words per read.        *)

let read_path_passes = 2
let read_path_reads_per_pass = kib 1024 / kib 8

(* Every word allocated so far: minor allocations that were promoted
   are in the major count too. *)
let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let read_path_load () =
  Cluster.run (fun _ t ->
      let ws = Cluster.add_client t ~name:"ws" in
      let d = Cluster.create_file ws "/data" in
      Cluster.pwrite ws d ~off:0 ~data:(pattern (kib 1024));
      Fa.flush (Cluster.file_agent ws);
      Fs.drop_caches (Cluster.file_service t);
      Fa.invalidate_file (Cluster.file_agent ws)
        ~file:(Fa.descriptor_file (Cluster.file_agent ws) d);
      let w0 = words_allocated () in
      for _ = 1 to read_path_passes do
        ignore (Cluster.lseek ws d (`Set 0));
        for _ = 1 to read_path_reads_per_pass do
          ignore (Cluster.read ws d (kib 8))
        done
      done;
      (words_allocated () -. w0)
      /. float_of_int (read_path_passes * read_path_reads_per_pass))

(* ------------------------------------------------------------------ *)
(* Recovery: simulated ms of one server recovery.                      *)

let recover_files = 4

let recover_load () =
  Cluster.run (fun sim t ->
      let ws = Cluster.add_client t ~name:"ws" in
      for i = 1 to recover_files do
        let d = Cluster.create_file ws (Printf.sprintf "/f%d" i) in
        Cluster.write ws d (pattern (kib 16));
        Cluster.close ws d
      done;
      Cluster.with_transaction ws (fun ta td ->
          let fd = Rhodos_agent.Transaction_agent.topen ta td ~path:"/f1" in
          Rhodos_agent.Transaction_agent.tpwrite ta td fd ~off:0
            ~data:(Bytes.of_string "committed"));
      ignore (Cluster.crash_server t);
      let t0 = Sim.now sim in
      ignore (Cluster.recover_server t);
      Sim.now sim -. t0)

(* ------------------------------------------------------------------ *)
(* 10k processes of pure scheduler churn on a bare Sim.                *)

let churn_pairs = 5_000
let churn_rounds = 30

let churn_build sim finished =
  for i = 0 to churn_pairs - 1 do
    let a = Sim.Mailbox.create sim and b = Sim.Mailbox.create sim in
    ignore
      (Sim.spawn ~name:(Printf.sprintf "ping%d" i) sim (fun () ->
           for r = 1 to churn_rounds do
             Sim.Mailbox.send a r;
             ignore (Sim.Mailbox.recv b);
             if r mod 8 = 0 then Sim.sleep sim 0.01 else Sim.yield sim
           done;
           incr finished));
    ignore
      (Sim.spawn ~name:(Printf.sprintf "pong%d" i) sim (fun () ->
           for _ = 1 to churn_rounds do
             Sim.Mailbox.send b (Sim.Mailbox.recv a)
           done))
  done

let churn_with measure =
  let sim = Sim.create () in
  let finished = ref 0 in
  churn_build sim finished;
  let r = measure (Trace.create sim) (fun () -> Sim.run sim) in
  assert (!finished = churn_pairs);
  r

let churn_load () =
  let timing = best_of timed_runs ~rate:(fun t -> t.rate) (fun () -> churn_with timed) in
  let report = churn_with (fun tracer loop -> snd (Profiler.profile tracer loop)) in
  { timing; runs = timed_runs; report }

(* ------------------------------------------------------------------ *)
(* The commit path: one client's two-account transfers straight into
   the transaction service over a stable-mirrored disk, with a log
   large enough that no checkpoint runs. A commit that read the
   intentions list back would cost more the longer the log grew, which
   is what the first two numbers catch; the simulated ms per commit
   counts the disk work of a commit. *)

let txn_transfers = 2_000
let txn_accounts = 64

type commit_timing = {
  commits_per_sec : float;
  words_per_txn : float;
  sim_ms_per_txn : float;
}

let txn_commit_run () =
  run_sim (fun sim ->
      let fs = make_fs ~with_stable:true sim in
      let ts = Txn.create ~config:{ Txn.default_config with Txn.log_fragments = 512 } ~fs () in
      let f = Fs.create_file fs in
      Fs.pwrite fs f ~off:0 (Bytes.make (txn_accounts * block_bytes) '0');
      let rng = Rng.create 1 in
      let balance = Bytes.make 16 '1' in
      let t0 = now_ns () in
      let m0 = Gc.minor_words () in
      let s0 = Sim.now sim in
      for _ = 1 to txn_transfers do
        let a = Rng.int rng txn_accounts in
        let b = (a + 1 + Rng.int rng (txn_accounts - 1)) mod txn_accounts in
        let txn = Txn.tbegin ts in
        List.iter
          (fun acct ->
            let off = acct * block_bytes in
            ignore (Txn.tread ~intent:`Update ts txn f ~off ~len:16);
            Txn.twrite ts txn f ~off balance)
          [ min a b; max a b ];
        Txn.tend ts txn
      done;
      let m1 = Gc.minor_words () in
      let t1 = now_ns () in
      let s1 = Sim.now sim in
      if Counter.get (Txn.stats ts) "log_checkpoints" <> 0 then
        failwith "P0 commit load: the intentions list was checkpointed";
      {
        commits_per_sec = float_of_int txn_transfers /. (float_of_int (t1 - t0) /. 1e9);
        words_per_txn = (m1 -. m0) /. float_of_int txn_transfers;
        sim_ms_per_txn = (s1 -. s0) /. float_of_int txn_transfers;
      })

let txn_commit_load () =
  best_of timed_runs ~rate:(fun t -> t.commits_per_sec) txn_commit_run

(* ------------------------------------------------------------------ *)
(* Queue microbenchmark: steady-state pop-min / re-add at three
   pending-set sizes. The re-add lands a small random delta past the
   popped minimum, so it never ties the popped time: every add goes
   through the heap and sifts through its full depth — the sustained
   -load shape of the heap, not the cold fill, and not the same-time
   ring (which churn exercises). *)

let qbench_ops = 200_000

let queue_bench n =
  let q = Rhodos_util.Prio_queue.create () in
  let module PQ = Rhodos_util.Prio_queue in
  let st = Random.State.make [| 0x5eed; n |] in
  for _ = 1 to n do
    PQ.add q ~prio:(Random.State.float st 10.) 0
  done;
  let t0 = now_ns () in
  for _ = 1 to qbench_ops do
    let p = PQ.unsafe_min_prio q in
    let v = PQ.pop_into q in
    PQ.add q ~prio:(p +. Random.State.float st 0.02) v
  done;
  let t1 = now_ns () in
  float_of_int qbench_ops /. (float_of_int (t1 - t0) /. 1e9)

let qbench_sizes = [ ("1k", 1_000); ("100k", 100_000); ("1m", 1_000_000) ]
let qbench_key sname = Printf.sprintf "qbench_heap_%s_ops_per_sec" sname

let queue_bench_all () =
  List.map (fun (sname, n) -> (qbench_key sname, queue_bench n)) qbench_sizes

(* ------------------------------------------------------------------ *)

let report_load label (m : measured) =
  note "%s:" label;
  note "timed (no probe, best of %d): %d events, %.0f events/s, %.1f words/event"
    m.runs m.timing.dispatches m.timing.rate m.timing.words;
  note "profiled (probe armed, attribution below):";
  print_string (Profiler.report_table m.report);
  print_newline ()

let load_metrics prefix (m : measured) =
  [ (prefix ^ "_dispatches", float_of_int m.timing.dispatches);
    (prefix ^ "_events_per_sec", m.timing.rate);
    (prefix ^ "_words_per_event", m.timing.words) ]

(* Words per read charged to each layer of the profiled E15 scan; the
   scheduler's share is not a layer of the stack. *)
let layer_prefix = "e15_words_per_read_"

let layer_metrics (m : measured) =
  List.filter_map
    (fun (l : Profiler.layer) ->
      if l.layer = "sim-core" then None
      else Some (layer_prefix ^ l.layer, l.words /. float_of_int e15_reads))
    m.report.layers
  |> List.sort compare

let run_reports () =
  header "P0 — sim-core benchmark: events/sec and allocations/event";
  let e15 = e15_load () in
  report_load "E15-shaped load (cold 512 KiB scan, full stack)" e15;
  let churn = churn_load () in
  report_load
    (Printf.sprintf "scheduler churn (%d processes, mailbox ping-pong)"
       (2 * churn_pairs))
    churn;
  let txn = txn_commit_load () in
  note "commit path (%d single-client transfers, no checkpoint, best of %d): \
        %.0f commits/s, %.0f words/txn, %.1f simulated ms/txn"
    txn_transfers timed_runs txn.commits_per_sec txn.words_per_txn txn.sim_ms_per_txn;
  let qb = queue_bench_all () in
  note "queue microbench (steady-state pop+re-add, ops/s):";
  List.iter (fun (k, v) -> note "  %-28s %12.0f" k v) qb;
  (* Last, so the timed loads run on the heap they always ran on. *)
  let read_path = read_path_load () in
  note "read path (1 MiB scan in 8 KiB reads, cold then warm, all words): \
        %.1f words/read"
    read_path;
  let recover_ms = recover_load () in
  note "recovery (one recover_server after %d files and a transaction): \
        %.1f simulated ms"
    recover_files recover_ms;
  let metrics =
    load_metrics "e15" e15 @ layer_metrics e15 @ load_metrics "churn" churn
    @ [ ("txn_commit_per_sec", txn.commits_per_sec);
        ("txn_commit_words_per_txn", txn.words_per_txn);
        ("txn_commit_sim_ms", txn.sim_ms_per_txn);
        ("read_path_words_per_read", read_path);
        ("recover_sim_ms", recover_ms) ]
    @ qb
  in
  List.iter (fun (k, v) -> Json_out.metric "P0" k v) metrics;
  metrics

let run () = ignore (run_reports ())

(* ------------------------------------------------------------------ *)
(* The @perf regression gate                                           *)
(* ------------------------------------------------------------------ *)

(* BENCH_simcore.json holds a single "P0" object written by our own
   Json_out. *)
let parse_baseline path =
  List.filter_map
    (fun ((_, key), v) -> Option.map (fun f -> (key, f)) (float_of_string_opt v))
    (Json_out.read_entries path)

(* events/sec must stay above [rate_floor] x baseline (wall-clock
   noisy, CI machines vary — but the timed-run methodology is min-of-N
   with no probe, so 0.6x holds comfortably on a quiet machine);
   words/event must stay below [alloc_ceiling] x baseline + a small
   absolute slack (deterministic for a given binary, so a tight bound
   holds). The read path's count is exact and one 8 KiB copy is about
   a third of it, so it gets [exact_ceiling]; so do E15's per-layer
   words per read, the recovery time and the simulated ms per commit,
   which repeat exactly. *)
let rate_floor = 0.6
let alloc_ceiling = 1.25
let exact_ceiling = 1.05
let alloc_slack_words = 16.

let check ~baseline () =
  let base = parse_baseline baseline in
  let metrics = run_reports () in
  let ok = ref true in
  (* a baseline key the run no longer produces is a gate that silently
     stopped gating: fail rather than skip it *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name metrics) then begin
        ok := false;
        note "perf: %-22s MISSING (in baseline %s, not produced by this run)"
          name baseline
      end)
    base;
  let gate name ~against =
    let current = List.assoc name metrics in
    match List.assoc_opt name base with
    | None ->
      note "perf: %-22s SKIP (not in baseline %s)" name baseline;
      ()
    | Some b ->
      let pass, bound = against current b in
      if pass then note "perf: %-22s ok    %.1f (baseline %.1f)" name current b
      else begin
        ok := false;
        note "perf: %-22s FAIL  %.1f vs bound %.1f (baseline %.1f)" name
          current bound b
      end
  in
  let rate name =
    gate name ~against:(fun current b ->
        let bound = rate_floor *. b in
        (current >= bound, bound))
  in
  let upper ?(ceiling = alloc_ceiling) ?(slack = alloc_slack_words) name =
    gate name ~against:(fun current b ->
        let bound = (ceiling *. b) +. slack in
        (current <= bound, bound))
  in
  rate "e15_events_per_sec";
  upper "e15_words_per_event";
  rate "churn_events_per_sec";
  upper "churn_words_per_event";
  rate "txn_commit_per_sec";
  upper "txn_commit_words_per_txn";
  upper ~ceiling:exact_ceiling ~slack:0. "txn_commit_sim_ms";
  upper ~ceiling:exact_ceiling "read_path_words_per_read";
  List.iter
    (fun (name, _) ->
      if String.starts_with ~prefix:layer_prefix name then
        upper ~ceiling:exact_ceiling name)
    metrics;
  upper ~ceiling:exact_ceiling ~slack:0. "recover_sim_ms";
  List.iter (fun (sname, _) -> rate (qbench_key sname)) qbench_sizes;
  if !ok then note "perf: gate passed (floor %.2fx rate, ceiling %.2fx allocs)"
      rate_floor alloc_ceiling
  else note "perf: gate FAILED against %s" baseline;
  !ok
