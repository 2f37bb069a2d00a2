(* P0 — the sim-core self-benchmark behind the @perf gate.

   Two loads:

   - the E15 shape: a cold 512 KiB sequential scan in 8 KiB
     application reads through the whole cluster stack — the
     representative "real work" mix of RPCs, disk events, cache fills
     and process wakeups;

   - 10k-process churn: 5000 mailbox ping-pong pairs on a bare Sim,
     interleaving sends, receives, yields and timers — the scheduler
     hot path with nothing else attached.

   Each load is measured twice, for two different purposes:

   - the *timed* run executes with no profiler probe installed and
     takes wall time and [Gc.minor_words] around [Sim.run] only (the
     build/spawn phase is excluded). It is repeated [timed_runs] times
     and the best rate kept: wall clock measures the machine as much
     as the code, and the minimum wall time is the closest estimate of
     the code's own cost. These are the numbers committed to
     BENCH_simcore.json and gated by `--perf-check`.

   - the *profiled* run arms lib/obs/profiler and prints the per-name
     attribution table. The probe adds two monotonic-clock reads and a
     stats update per dispatch (~190 ns here), so its rate is reported
     in the table for context but is not the gated metric.

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

(* Probe-off measurement of [loop ()] on [sim]: host rate and minor
   words per dispatched event. *)
type timing = { dispatches : int; rate : float; words : float }

let timed sim loop =
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

(* A load measured both ways. *)
type measured = { timing : timing; report : Profiler.report }

(* ------------------------------------------------------------------ *)
(* The E15 shape: cold 512 KiB sequential scan through the stack.      *)

let e15_with measure =
  Cluster.run (fun sim t ->
      let ws = Cluster.add_client t ~name:"ws" in
      let d = Cluster.create_file ws "/data" in
      Cluster.pwrite ws d ~off:0 ~data:(pattern (kib 512));
      Fa.flush (Cluster.file_agent ws);
      Fs.drop_caches (Cluster.file_service t);
      Fa.invalidate_file (Cluster.file_agent ws)
        ~file:(Fa.descriptor_file (Cluster.file_agent ws) d);
      ignore (Cluster.lseek ws d (`Set 0));
      measure sim (fun () ->
          for _ = 1 to kib 512 / kib 8 do
            ignore (Cluster.read ws d (kib 8))
          done))

let e15_load () =
  let timing = best_of timed_runs ~rate:(fun t -> t.rate) (fun () -> e15_with timed) in
  let report = e15_with (fun sim loop -> snd (Profiler.profile sim loop)) in
  { timing; report }

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
  let r = measure sim (fun () -> Sim.run sim) in
  assert (!finished = churn_pairs);
  r

let churn_load () =
  let timing = best_of timed_runs ~rate:(fun t -> t.rate) (fun () -> churn_with timed) in
  let report =
    churn_with (fun sim loop ->
        let prof = Profiler.create () in
        Profiler.arm prof sim;
        loop ();
        Profiler.disarm prof sim)
  in
  { timing; report }

(* ------------------------------------------------------------------ *)
(* The commit path: one client's two-account transfers straight into
   the transaction service over a stable-mirrored disk, with a log
   large enough that no checkpoint runs. A commit that read the
   intentions list back would cost more the longer the log grew, which
   is what these two numbers catch. *)

let txn_transfers = 2_000
let txn_accounts = 64

type commit_timing = { commits_per_sec : float; words_per_txn : float }

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
      if Counter.get (Txn.stats ts) "log_checkpoints" <> 0 then
        failwith "P0 commit load: the intentions list was checkpointed";
      {
        commits_per_sec = float_of_int txn_transfers /. (float_of_int (t1 - t0) /. 1e9);
        words_per_txn = (m1 -. m0) /. float_of_int txn_transfers;
      })

let txn_commit_load () =
  best_of timed_runs ~rate:(fun t -> t.commits_per_sec) txn_commit_run

(* ------------------------------------------------------------------ *)
(* Queue microbenchmark: steady-state pop-min / re-add against each
   backend at three pending-set sizes. The re-add lands a small random
   delta past the popped minimum, so the heap keeps sifting through
   its full depth and the wheel keeps rotating through its window —
   the sustained-load shape of each structure, not the cold fill. *)

let qbench_ops = 200_000

let queue_bench backend n =
  let q = Rhodos_util.Prio_queue.create ~backend () in
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

let queue_bench_all () =
  List.concat_map
    (fun (bname, backend) ->
      List.map
        (fun (sname, n) ->
          (Printf.sprintf "qbench_%s_%s_ops_per_sec" bname sname,
           queue_bench backend n))
        qbench_sizes)
    [ ("heap", Rhodos_util.Prio_queue.Heap); ("wheel", Rhodos_util.Prio_queue.Wheel) ]

(* ------------------------------------------------------------------ *)

let report_load label (m : measured) =
  note "%s:" label;
  note "timed (no probe, best of %d): %d events, %.0f events/s, %.1f words/event"
    timed_runs m.timing.dispatches m.timing.rate m.timing.words;
  note "profiled (probe armed, attribution below):";
  print_string (Profiler.report_table m.report);
  print_newline ()

let emit prefix (m : measured) =
  Json_out.metric "P0" (prefix ^ "_dispatches") (float_of_int m.timing.dispatches);
  Json_out.metric "P0" (prefix ^ "_events_per_sec") m.timing.rate;
  Json_out.metric "P0" (prefix ^ "_words_per_event") m.timing.words

let run_reports () =
  header "P0 — sim-core benchmark: events/sec and allocations/event";
  let e15 = e15_load () in
  report_load "E15-shaped load (cold 512 KiB scan, full stack)" e15;
  let churn = churn_load () in
  report_load
    (Printf.sprintf "scheduler churn (%d processes, mailbox ping-pong)"
       (2 * churn_pairs))
    churn;
  emit "e15" e15;
  emit "churn" churn;
  let txn = txn_commit_load () in
  note "commit path (%d single-client transfers, no checkpoint, best of %d): \
        %.0f commits/s, %.0f words/txn"
    txn_transfers timed_runs txn.commits_per_sec txn.words_per_txn;
  Json_out.metric "P0" "txn_commit_per_sec" txn.commits_per_sec;
  Json_out.metric "P0" "txn_commit_words_per_txn" txn.words_per_txn;
  let qb = queue_bench_all () in
  note "queue microbench (steady-state pop+re-add, ops/s):";
  List.iter
    (fun (k, v) ->
      note "  %-28s %12.0f" k v;
      Json_out.metric "P0" k v)
    qb;
  (e15, churn, txn, qb)

let run () = ignore (run_reports ())

(* ------------------------------------------------------------------ *)
(* The @perf regression gate                                           *)
(* ------------------------------------------------------------------ *)

(* BENCH_simcore.json holds a single "P0" object written by our own
   Json_out, so a line scan for ["key": number] pairs is a complete
   parse of it. *)
let parse_baseline path =
  let ic = open_in path in
  let kvs = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       match String.index_opt line ':' with
       | Some i when String.length line > 2 && line.[0] = '"' ->
         let key = String.sub line 1 (i - 2) in
         let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
         let v =
           if String.length v > 0 && v.[String.length v - 1] = ',' then
             String.sub v 0 (String.length v - 1)
           else v
         in
         (match float_of_string_opt v with
         | Some f -> kvs := (key, f) :: !kvs
         | None -> ())
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !kvs

(* events/sec must stay above [rate_floor] x baseline (wall-clock
   noisy, CI machines vary — but the timed-run methodology is min-of-N
   with no probe, so 0.6x holds comfortably on a quiet machine);
   words/event must stay below [alloc_ceiling] x baseline + a small
   absolute slack (deterministic for a given binary, so a tight bound
   holds). *)
let rate_floor = 0.6
let alloc_ceiling = 1.25
let alloc_slack_words = 16.

let check ~baseline () =
  let base = parse_baseline baseline in
  let e15, churn, txn, qb = run_reports () in
  let ok = ref true in
  let gate name ~current ~against =
    match List.assoc_opt name base with
    | None ->
      note "perf: %-22s SKIP (not in baseline %s)" name baseline;
      ()
    | Some b ->
      let pass, bound = against b in
      if pass then note "perf: %-22s ok    %.1f (baseline %.1f)" name current b
      else begin
        ok := false;
        note "perf: %-22s FAIL  %.1f vs bound %.1f (baseline %.1f)" name
          current bound b
      end
  in
  let rate name current =
    gate name ~current ~against:(fun b ->
        let bound = rate_floor *. b in
        (current >= bound, bound))
  in
  let alloc name current =
    gate name ~current ~against:(fun b ->
        let bound = (alloc_ceiling *. b) +. alloc_slack_words in
        (current <= bound, bound))
  in
  rate "e15_events_per_sec" e15.timing.rate;
  alloc "e15_words_per_event" e15.timing.words;
  rate "churn_events_per_sec" churn.timing.rate;
  alloc "churn_words_per_event" churn.timing.words;
  rate "txn_commit_per_sec" txn.commits_per_sec;
  alloc "txn_commit_words_per_txn" txn.words_per_txn;
  List.iter (fun (k, v) -> rate k v) qb;
  if !ok then note "perf: gate passed (floor %.2fx rate, ceiling %.2fx allocs)"
      rate_floor alloc_ceiling
  else note "perf: gate FAILED against %s" baseline;
  !ok
