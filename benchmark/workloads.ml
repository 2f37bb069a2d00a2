(* The four client workloads. Each runs inside one simulated process
   against a full [Cluster.default_config] cluster: it builds its data
   set, marks the start of the measured phase, drives its clients,
   marks the end, and then checks every output against its own model
   of the data. A mismatch raises [Violation]; it is not a failed op.

   [seed] drives only the generators: file sizes, Zipf picks, start
   offsets and arrival times. [scale] shrinks the op count (1.0 is the
   full run, 0.01 the smoke run); data sizes stay the same so the
   cache ratios hold. *)

module Sim = Rhodos_sim.Sim
module Cluster = Rhodos.Cluster
module Fa = Rhodos_agent.File_agent
module Ta = Rhodos_agent.Transaction_agent
module Fs = Rhodos_file.File_service
module Fsck = Rhodos_file.Fsck
module Txn = Rhodos_txn.Txn_service
module Rng = Rhodos_util.Rng
module Stats = Rhodos_util.Stats

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type ctx = {
  sim : Sim.t;
  cluster : Cluster.t;
  seed : int;
  scale : float;
  begin_measure : unit -> unit;
  end_measure : unit -> unit;
  before_crash : unit -> unit;
  after_recover : unit -> unit;
}

type result = {
  ops : int;  (** completed ops: reads, sessions or commits *)
  attempted : int;
  failed : int;
  latency : Stats.t;  (** simulated ms per op *)
  by_kind : (string * Stats.t) list;  (** "read", "write", "commit" *)
  user_bytes : int;  (** bytes the clients wrote *)
  extra : (string * float) list;
}

type t = { name : string; run : ctx -> result }

let kib n = n * 1024
let block = Fa.block_size
let scaled ctx n = max 1 (int_of_float (Float.round (ctx.scale *. float_of_int n)))
let stats () = Stats.create ~max_samples:200_000 ()

(* ------------------------------------------------------------------ *)
(* File contents and their model                                       *)
(* ------------------------------------------------------------------ *)

(* Word [i] of a file written under [salt] depends on both, so a read
   served from the wrong file, offset or version cannot match. *)
let fill buf ~off ~len ~salt =
  for i = off / 8 to ((off + len) / 8) - 1 do
    Bytes.set_int64_le buf (8 * i)
      (Int64.of_int ((salt * 0x2545F4914F6CDD1D) lxor ((i + 1) * 0x1E3779B97F4A7C15)))
  done

(* [data] equals [model] at [off], compared a word at a time. *)
let matches model ~off data =
  let n = Bytes.length data in
  let rec words i =
    i + 8 > n
    || ((Bytes.get_int64_ne data i : int64) = Bytes.get_int64_ne model (off + i) && words (i + 8))
  in
  let rec tail i = i >= n || (Bytes.get data i = Bytes.get model (off + i) && tail (i + 1)) in
  off + n <= Bytes.length model && words 0 && tail (n - (n mod 8))

(* Write a file through the raw service connection, bypassing the
   agent cache: an extending agent write larger than the cache loses
   data (see README, defect 1). *)
let preload client ~path ~size ~salt =
  let conn = Cluster.fs_conn client in
  let id = conn.create_file () in
  conn.bind ~path ~file_id:id;
  let model = Bytes.create size in
  fill model ~off:0 ~len:size ~salt;
  let chunk = kib 256 in
  let off = ref 0 in
  while !off < size do
    let len = min chunk (size - !off) in
    conn.pwrite id ~off:!off ~data:(Bytes.sub model !off len);
    off := !off + len
  done;
  model

(* Run one process per client and wait for all of them. *)
let run_clients ctx n body =
  let left = ref n in
  let all_done = Sim.Condition.create ctx.sim in
  for i = 0 to n - 1 do
    ignore
      (Sim.spawn ~name:"bench-client" ctx.sim (fun () ->
           body i;
           decr left;
           if !left = 0 then Sim.Condition.broadcast all_done))
  done;
  while !left > 0 do
    Sim.Condition.wait all_done
  done

let timed ctx f =
  let t0 = Sim.now ctx.sim in
  let v = f () in
  (v, Sim.now ctx.sim -. t0)

(* A span opened by the benchmark itself, around a call into the
   facility that no span of the program covers. Free when untraced. *)
let span ctx ~service ~op f = Rhodos_obs.Trace.with_span (Cluster.tracer ctx.cluster) ~service ~op f

let check_fsck ctx =
  let r = Cluster.fsck ctx.cluster in
  if not (Fsck.is_clean r) then violation "fsck: %s" (Format.asprintf "%a" Fsck.pp_report r)

(* ------------------------------------------------------------------ *)
(* seq-scan                                                            *)
(* ------------------------------------------------------------------ *)

let seq_scan_run ctx =
  let clients = 4 and size = kib 4096 and passes = 8 in
  let blocks = size / block in
  let reads_per_client = scaled ctx (passes * blocks) in
  let rng = Rng.create ctx.seed in
  let cs = Array.init clients (fun i -> Cluster.add_client ctx.cluster ~name:(Printf.sprintf "scan%d" i)) in
  (Cluster.fs_conn cs.(0)).mkdir "/scan";
  let path i = Printf.sprintf "/scan/f%d" i in
  let models =
    Array.mapi (fun i c -> preload c ~path:(path i) ~size ~salt:(Rng.int rng 1_000_000_000)) cs
  in
  Fs.drop_caches (Cluster.file_service ctx.cluster);
  let starts = Array.init clients (fun _ -> block * Rng.int rng blocks) in
  let lat = stats () in
  ctx.begin_measure ();
  run_clients ctx clients (fun i ->
      let c = cs.(i) in
      let d = Cluster.open_file c (path i) in
      let pos = ref (Cluster.lseek c d (`Set starts.(i))) in
      for _ = 1 to reads_per_client do
        if !pos >= size then pos := Cluster.lseek c d (`Set 0);
        let data, ms = timed ctx (fun () -> Cluster.read c d block) in
        if Bytes.length data <> block || not (matches models.(i) ~off:!pos data) then
          violation "seq-scan: client %d read at %d differs from the model" i !pos;
        Stats.add lat ms;
        pos := !pos + block
      done;
      Cluster.close c d);
  ctx.end_measure ();
  check_fsck ctx;
  let n = clients * reads_per_client in
  { ops = n; attempted = n; failed = 0; latency = lat; by_kind = [ ("read", lat) ];
    user_bytes = 0; extra = [] }

(* ------------------------------------------------------------------ *)
(* small-files                                                         *)
(* ------------------------------------------------------------------ *)

let small_files_run ctx =
  let clients = 4 and files = 48 and window = kib 64 in
  let sessions = scaled ctx 5000 in
  let cs = Array.init clients (fun i -> Cluster.add_client ctx.cluster ~name:(Printf.sprintf "ws%d" i)) in
  let rngs = Array.init clients (fun i -> Rng.create ((ctx.seed * 7919) + i)) in
  let path i j = Printf.sprintf "/small/c%d/f%d" i j in
  let models =
    Array.mapi
      (fun i c ->
        (Cluster.fs_conn c).mkdir (Printf.sprintf "/small/c%d" i);
        (* The 48 sizes are evenly spaced quantiles of a large draw
           from the size distribution, and file j, the j-th most
           popular, takes a fixed one of them, away from the bucket
           edges: 48 raw draws, or a random popularity order, would let
           the seed swing the mix of small and large files. *)
        let draws =
          Array.of_list
            (Rhodos_workload.Workload.file_size_distribution ~rng:rngs.(i) ~n:(100 * files))
        in
        Array.sort compare draws;
        Array.init files (fun j ->
            let sz = draws.((100 * (((7 * j) + 20) mod files)) + 50) in
            preload c ~path:(path i j) ~size:(block * ((sz + block - 1) / block))
              ~salt:(Rng.int rngs.(i) 1_000_000_000)))
      cs
  in
  Fs.drop_caches (Cluster.file_service ctx.cluster);
  let lat = stats () and reads = stats () and writes = stats () in
  ctx.begin_measure ();
  run_clients ctx clients (fun i ->
      let c = cs.(i) and rng = rngs.(i) in
      for _ = 1 to sessions do
        Sim.sleep ctx.sim (Rng.exponential rng ~mean:5.);
        let j = Rng.zipf rng ~n:files ~theta:0.9 in
        let model = models.(i).(j) in
        let size = Bytes.length model in
        let t0 = Sim.now ctx.sim in
        let d = Cluster.open_file c (path i j) in
        let kind =
          if Rng.float rng 1.0 < 0.8 then begin
            let len = min size window in
            let off = block * Rng.int rng (((size - len) / block) + 1) in
            let data = Cluster.pread c d ~off ~len in
            if Bytes.length data <> len || not (matches model ~off data) then
              violation "small-files: client %d file %d read at %d differs from the model" i j off;
            reads
          end
          else begin
            (* Whole blocks only, within the file: partial and extending
               agent writes lose updates (README, defects 1 and 3). *)
            let off = block * Rng.int rng (size / block) in
            fill model ~off ~len:block ~salt:(Rng.int rng 1_000_000_000);
            Cluster.pwrite c d ~off ~data:(Bytes.sub model off block);
            writes
          end
        in
        Cluster.close c d;
        let ms = Sim.now ctx.sim -. t0 in
        Stats.add lat ms;
        Stats.add kind ms
      done);
  ctx.end_measure ();
  (* Every file, read back cold through a fresh agent, equals its model. *)
  Fs.drop_caches (Cluster.file_service ctx.cluster);
  let reader = Cluster.add_client ctx.cluster ~name:"verifier" in
  Array.iteri
    (fun i per_client ->
      Array.iteri
        (fun j model ->
          let d = Cluster.open_file reader (path i j) in
          let data = Cluster.pread reader d ~off:0 ~len:(Bytes.length model) in
          if not (Bytes.equal data model) then
            violation "small-files: file %s differs from the model after the run" (path i j);
          Cluster.close reader d)
        per_client)
    models;
  check_fsck ctx;
  let n = clients * sessions in
  { ops = n; attempted = n; failed = 0; latency = lat;
    by_kind = [ ("read", reads); ("write", writes) ];
    user_bytes = block * Stats.count writes; extra = [] }

(* ------------------------------------------------------------------ *)
(* txn-transfer and crash-recover                                      *)
(* ------------------------------------------------------------------ *)

let accounts = 256
let opening_balance = 1000
let bank_path = "/bank/accounts"

(* A balance is 16 bytes at the start of its account's own block:
   accounts sharing a block under Record_level locking lose money
   (README, defect 2). *)
let balance_bytes = 16
let encode v = Bytes.of_string (Printf.sprintf "%015d\n" v)
let decode b = int_of_string (String.trim (Bytes.to_string b))

type transfer = { due : float; src : int; dst : int; amount : int; teller : int }

(* Poisson arrivals at 4/s, conditioned on their count: [arrivals]
   uniform instants over [arrivals] x 250 ms, sorted. The schedule then
   spans the same simulated time for every seed. *)
let plan ctx arrivals =
  let rng = Rng.create ctx.seed in
  let span = 250. *. float_of_int arrivals in
  let dues = Array.init arrivals (fun _ -> Rng.float rng span) in
  Array.sort compare dues;
  Array.mapi
    (fun k due ->
      let src = Rng.zipf rng ~n:accounts ~theta:0.8 in
      let rec other () =
        let d = Rng.zipf rng ~n:accounts ~theta:0.8 in
        if d = src then other () else d
      in
      let dst = other () in
      { due; src; dst; amount = 1 + Rng.int rng 100; teller = k mod 4 })
    dues

type 'a outcome = Committed of 'a | Failed of exn | Ambiguous of exn

(* One transaction, no retries. A [tend] that raised anything but
   [Aborted] leaves the outcome unknown: the commit may have landed. *)
let run_txn ta f =
  match Ta.tbegin ta with
  | exception (Sim.Killed as k) -> raise k
  | exception e -> Failed e
  | td -> (
    match f td with
    | exception (Sim.Killed as k) -> raise k
    | exception e ->
      (try Ta.tabort ta td with Sim.Killed as k -> raise k | _ -> ());
      Failed e
    | v -> (
      match Ta.tend ta td with
      | () -> Committed v
      | exception (Sim.Killed as k) -> raise k
      | exception (Txn.Aborted _ as e) -> Failed e
      | exception e -> Ambiguous e))

let transfer_txn ctx c x =
  let ta = Cluster.transaction_agent c in
  span ctx ~service:"client" ~op:"transfer" @@ fun () ->
  run_txn ta (fun td ->
      let fd = Ta.topen ta td ~path:bank_path in
      (* Lock in account order, so two transfers never deadlock. *)
      let lo, hi, dlo, dhi =
        if x.src < x.dst then (x.src, x.dst, -x.amount, x.amount)
        else (x.dst, x.src, x.amount, -x.amount)
      in
      let read a = decode (Ta.tpread ta td fd ~off:(a * block) ~len:balance_bytes) in
      let blo = read lo in
      let bhi = read hi in
      Ta.tpwrite ta td fd ~off:(lo * block) ~data:(encode (blo + dlo));
      Ta.tpwrite ta td fd ~off:(hi * block) ~data:(encode (bhi + dhi)))

(* Quiescent audit: every balance, 8 accounts per transaction (one
   transaction over all 256 can outlive its lock lease). *)
let audit sim c =
  let ta = Cluster.transaction_agent c in
  let out = Array.make accounts 0 in
  let batch = 8 in
  for b = 0 to (accounts / batch) - 1 do
    let rec attempt n =
      match
        run_txn ta (fun td ->
            let fd = Ta.topen ta td ~path:bank_path in
            for a = b * batch to ((b + 1) * batch) - 1 do
              out.(a) <- decode (Ta.tpread ta td fd ~off:(a * block) ~len:balance_bytes)
            done)
      with
      | Committed () -> ()
      | (Failed e | Ambiguous e) when n >= 3 ->
        violation "audit of accounts %d-%d failed: %s" (b * batch) (((b + 1) * batch) - 1)
          (Printexc.to_string e)
      | Failed _ | Ambiguous _ ->
        Sim.sleep sim 100.;
        attempt (n + 1)
    in
    attempt 0
  done;
  out

let apply model x =
  model.(x.src) <- model.(x.src) - x.amount;
  model.(x.dst) <- model.(x.dst) + x.amount

(* Which of the ambiguous transfers committed? Each one is all or
   nothing, so search the subsets for the one that turns the model into
   the observed balances. *)
let resolve model observed ambiguous =
  let amb = Array.of_list ambiguous in
  let m = Array.length amb in
  if m > 16 then violation "%d ambiguous commits, more than the 2^16-subset search allows" m;
  let touched = Array.make accounts false in
  Array.iter (fun x -> touched.(x.src) <- true; touched.(x.dst) <- true) amb;
  Array.iteri
    (fun a v ->
      if (not touched.(a)) && v <> model.(a) then
        violation "account %d: balance %d, model %d (acknowledged commits)" a v model.(a))
    observed;
  let keys = List.filter (fun a -> touched.(a)) (List.init accounts Fun.id) in
  let fits mask =
    let delta = Array.make accounts 0 in
    Array.iteri
      (fun k x ->
        if mask land (1 lsl k) <> 0 then begin
          delta.(x.src) <- delta.(x.src) - x.amount;
          delta.(x.dst) <- delta.(x.dst) + x.amount
        end)
      amb;
    List.for_all (fun a -> model.(a) + delta.(a) = observed.(a)) keys
  in
  let rec search mask =
    if mask >= 1 lsl m then
      violation "no all-or-nothing outcome of %d ambiguous commits explains the balances" m
    else if fits mask then mask
    else search (mask + 1)
  in
  let mask = search 0 in
  List.filteri (fun k _ -> mask land (1 lsl k) <> 0) ambiguous

(* The gate holds new transfers while the server is down and its
   casualties are resolved. *)
type gate = {
  mutable open_ : bool;
  mutable epoch : int;
  mutable in_flight : int;
  reopened : Sim.Condition.cond;
  drained : Sim.Condition.cond;
}

let bank_run ~crashes ctx =
  let arrivals = scaled ctx 4000 in
  let sim = ctx.sim in
  let tellers = Array.init 4 (fun i -> Cluster.add_client ctx.cluster ~name:(Printf.sprintf "teller%d" i)) in
  let auditor = Cluster.add_client ctx.cluster ~name:"auditor" in
  let conn = Cluster.fs_conn auditor in
  conn.mkdir "/bank";
  let id = conn.create_file () in
  conn.bind ~path:bank_path ~file_id:id;
  let image = Bytes.make (accounts * block) '\000' in
  for a = 0 to accounts - 1 do
    Bytes.blit (encode opening_balance) 0 image (a * block) balance_bytes
  done;
  conn.pwrite id ~off:0 ~data:image;
  Fs.drop_caches (Cluster.file_service ctx.cluster);
  let model = Array.make accounts opening_balance in
  let xs = plan ctx arrivals in
  let commits = stats () in
  let ops = ref 0 and failed = ref 0 in
  let ambiguous = ref [] in  (* (transfer, verdict) awaiting the next audit *)
  let unresolved = ref [] in  (* txn-transfer: resolved by the final audit *)
  let retries = ref 0 and max_tries = 20 in
  let gate =
    { open_ = true; epoch = 0; in_flight = 0;
      reopened = Sim.Condition.create sim; drained = Sim.Condition.create sim }
  in
  let committed x =
    apply model x;
    incr ops;
    Stats.add commits (Sim.now sim -. x.due)
  in
  (* A transfer that did not commit is retried: a lock-lease abort at
     once, a crash casualty once the gate reopens. If a crash left its
     commit in doubt, the audit that follows recovery decides. *)
  let rec attempt x tries =
    while not gate.open_ do
      Sim.Condition.wait gate.reopened
    done;
    let epoch = gate.epoch in
    gate.in_flight <- gate.in_flight + 1;
    let outcome = transfer_txn ctx tellers.(x.teller) x in
    gate.in_flight <- gate.in_flight - 1;
    if gate.in_flight = 0 then Sim.Condition.broadcast gate.drained;
    let retry () =
      incr retries;
      if tries < max_tries then attempt x (tries + 1) else incr failed
    in
    match outcome with
    | Committed () -> committed x
    | Ambiguous _ when crashes && epoch <> gate.epoch ->
      let verdict = Sim.Ivar.create sim in
      ambiguous := (x, verdict) :: !ambiguous;
      if Sim.Ivar.read verdict then committed x else retry ()
    | Ambiguous _ ->
      unresolved := x :: !unresolved;
      incr failed
    | Failed _ -> retry ()
  in
  ctx.begin_measure ();
  let t0 = Sim.now sim in
  let recoveries = stats () and recovery_host = stats () in
  let redone = ref 0 and discarded = ref 0 and in_doubt = ref 0 in
  let crasher_done = Sim.Ivar.create sim in
  if not crashes then Sim.Ivar.fill crasher_done ()
  else
    ignore
      (Sim.spawn ~name:"crasher" sim (fun () ->
           let n = max 1 (int_of_float (Float.round (5. *. ctx.scale))) in
           for k = 1 to n do
             Sim.sleep sim
               (Float.max 0. (t0 +. (float_of_int k *. 150_000. *. ctx.scale) -. Sim.now sim));
             gate.open_ <- false;
             gate.epoch <- gate.epoch + 1;
             ctx.before_crash ();
             ignore (Cluster.crash_server ctx.cluster);
             let h0 = Ledger.now_ns () in
             let report, ms =
               timed ctx (fun () ->
                   span ctx ~service:"recovery" ~op:"recover_server" (fun () ->
                       Cluster.recover_server ctx.cluster))
             in
             Stats.add recovery_host (float_of_int (Ledger.now_ns () - h0) /. 1e6);
             Stats.add recoveries ms;
             redone := !redone + List.length report.Txn.redone_transactions;
             discarded := !discarded + List.length report.Txn.discarded_transactions;
             ctx.after_recover ();
             while gate.in_flight > 0 do
               Sim.Condition.wait gate.drained
             done;
             let pending = List.rev !ambiguous in
             ambiguous := [];
             in_doubt := !in_doubt + List.length pending;
             let yes = resolve model (audit sim auditor) (List.map fst pending) in
             List.iter (fun (x, v) -> Sim.Ivar.fill v (List.memq x yes)) pending;
             gate.open_ <- true;
             Sim.Condition.broadcast gate.reopened
           done;
           Sim.Ivar.fill crasher_done ()));
  (* Each teller serves its own arrivals in due order: the schedule is
     fixed in advance, and a stall delays every later arrival. *)
  run_clients ctx (Array.length tellers) (fun i ->
      Array.iter
        (fun x ->
          if x.teller = i then begin
            let x = { x with due = t0 +. x.due } in
            Sim.sleep sim (Float.max 0. (x.due -. Sim.now sim));
            attempt x 1
          end)
        xs);
  Sim.Ivar.read crasher_done;
  ctx.end_measure ();
  let observed = audit sim auditor in
  let yes = resolve model observed !unresolved in
  List.iter (apply model) yes;
  Array.iteri
    (fun a v -> if v <> model.(a) then violation "account %d: balance %d, model %d" a v model.(a))
    observed;
  let total = Array.fold_left ( + ) 0 observed in
  if total <> accounts * opening_balance then
    violation "money not conserved: %d, expected %d" total (accounts * opening_balance);
  check_fsck ctx;
  let median s = if Stats.count s = 0 then 0. else Stats.percentile s 50. in
  {
    ops = !ops;
    attempted = arrivals;
    failed = !failed;
    latency = commits;
    by_kind = [ ("commit", commits) ];
    user_bytes = 2 * balance_bytes * !ops;
    extra =
      [ ("recovery.sim_ms", median recoveries);
        ("recovery.host_ms", median recovery_host);
        ("recovery.redone_txns", float_of_int !redone);
        ("recovery.discarded_txns", float_of_int !discarded);
        ("recovery.ambiguous_commits", float_of_int !in_doubt);
        ("client.retries", float_of_int !retries) ];
  }

(* The rationale of each workload is in README.md and BENCHMARK.json. *)
let all =
  [
    { name = "seq-scan"; run = seq_scan_run };
    { name = "small-files"; run = small_files_run };
    { name = "txn-transfer"; run = bank_run ~crashes:false };
    { name = "crash-recover"; run = bank_run ~crashes:true };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
