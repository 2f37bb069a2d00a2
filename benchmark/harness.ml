(* Reps, the determinism guard and the metrics.

   A rep builds a fresh cluster, lets the workload set up its data,
   and measures the phase between the workload's two marks: host time,
   allocation, simulated time and the deltas of every counter in the
   cluster's metrics registry. A traced rep also attaches the ledger;
   that happens between dispatches, so it charges whole events. *)

module Sim = Rhodos_sim.Sim
module Cluster = Rhodos.Cluster
module Metrics = Rhodos_obs.Metrics
module Stats = Rhodos_util.Stats
module W = Workloads

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Registry samples summed over nodes, with the disk or block-service
   instance folded out of the name: "disk.d0-0.seeks" -> "disk.seeks". *)
let read_counters cluster =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Metrics.sample) ->
      let key =
        match String.split_on_char '.' s.name with
        | ("disk" | "block") as top :: _ :: rest -> String.concat "." (top :: rest)
        | _ -> s.name
      in
      Hashtbl.replace tbl key (s.value +. Option.value ~default:0. (Hashtbl.find_opt tbl key)))
    (Metrics.snapshot (Cluster.metrics cluster));
  tbl

(* Services rebuilt by [Cluster.recover_server] start their counters
   from zero. *)
let rebuilt key =
  List.exists
    (fun p -> String.starts_with ~prefix:p key)
    [ "fs."; "txn."; "locks."; "block." ]

type counters = { acc : (string, float) Hashtbl.t; mutable base : (string, float) Hashtbl.t }

let accumulate c ~recovered now =
  Hashtbl.iter
    (fun k v ->
      let prev =
        if recovered && rebuilt k then 0. else Option.value ~default:0. (Hashtbl.find_opt c.base k)
      in
      Hashtbl.replace c.acc k (v -. prev +. Option.value ~default:0. (Hashtbl.find_opt c.acc k)))
    now;
  c.base <- now

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* One rep                                                             *)
(* ------------------------------------------------------------------ *)

type rep = {
  setup_s : float;
  host_s : float;
  sim_s : float;
  words : float;
  events : int;
  counters : (string * float) list;
  digest : int;
  result : W.result;
  ledger : Ledger.report option;
}

let run_rep ~traced (w : W.t) ~seed ~scale =
  Gc.compact ();
  let t_start = Ledger.now_ns () in
  let sim = Sim.create () in
  let counters = { acc = Hashtbl.create 64; base = Hashtbl.create 1 } in
  let setup_ns = ref 0 and h0 = ref 0 and h1 = ref 0 in
  let w0 = ref 0. and w1 = ref 0. and s0 = ref 0. and s1 = ref 0. in
  let e0 = ref 0 and e1 = ref 0 in
  let attach = ref false and detach = ref false in
  let cluster = ref None and out = ref None in
  ignore
    (Sim.spawn ~name:"bench" sim (fun () ->
         let c = Cluster.create sim in
         cluster := Some c;
         let ctx =
           {
             W.sim; cluster = c; seed; scale;
             begin_measure =
               (fun () ->
                 counters.base <- read_counters c;
                 s0 := Sim.now sim;
                 e0 := Sim.events_dispatched sim;
                 attach := traced;
                 w0 := Ledger.words ();
                 h0 := Ledger.now_ns ();
                 setup_ns := !h0 - t_start);
             end_measure =
               (fun () ->
                 h1 := Ledger.now_ns ();
                 w1 := Ledger.words ();
                 s1 := Sim.now sim;
                 e1 := Sim.events_dispatched sim;
                 accumulate counters ~recovered:false (read_counters c);
                 detach := traced);
             before_crash = (fun () -> accumulate counters ~recovered:false (read_counters c));
             after_recover = (fun () -> accumulate counters ~recovered:true (read_counters c));
           }
         in
         out := Some (w.run ctx)));
  let ledger = ref None in
  while Option.is_none !out && Sim.step sim do
    if !attach then begin
      attach := false;
      ledger := Some (Ledger.attach sim (Cluster.tracer (Option.get !cluster)))
    end;
    if !detach then begin
      detach := false;
      Option.iter Ledger.detach !ledger
    end
  done;
  match !out with
  | None -> raise (W.Violation "the simulation stalled before the workload finished")
  | Some result ->
    {
      setup_s = float_of_int !setup_ns /. 1e9;
      host_s = float_of_int (!h1 - !h0) /. 1e9;
      sim_s = (!s1 -. !s0) /. 1000.;
      words = !w1 -. !w0;
      events = !e1 - !e0;
      counters = sorted counters.acc;
      digest = Sim.run_digest sim;
      result;
      ledger = Option.map Ledger.report !ledger;
    }

(* ------------------------------------------------------------------ *)
(* Determinism guard                                                   *)
(* ------------------------------------------------------------------ *)

let stats_signature s =
  [ float_of_int (Stats.count s); Stats.sum s; Stats.percentile s 50.; Stats.percentile s 99. ]

(* Everything a rep reports on the simulated clock or as a count. The
   recovery host time is the one host reading among the extras. *)
let signature r =
  let res = r.result in
  [ ("digest", [ float_of_int r.digest ]);
    ("sim_s", [ r.sim_s ]);
    ("events", [ float_of_int r.events ]);
    ("ops", [ float_of_int res.ops; float_of_int res.attempted; float_of_int res.failed ]);
    ("latency", stats_signature res.latency) ]
  @ List.map (fun (k, s) -> (k ^ " latency", stats_signature s)) res.by_kind
  @ List.filter_map
      (fun (k, v) -> if k = "recovery.host_ms" then None else Some (k, [ v ]))
      res.extra
  @ List.map (fun (k, v) -> ("counter " ^ k, [ v ])) r.counters

let check_same ~what a b =
  let sa = signature a and sb = signature b in
  if List.map fst sa <> List.map fst sb then
    raise (W.Violation (Printf.sprintf "determinism: %s reports other counters" what));
  List.iter2
    (fun (k, x) (_, y) ->
      if x <> y then raise (W.Violation (Printf.sprintf "determinism: %s differs in %s" k what)))
    sa sb

let guard reps traced =
  match reps with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i r ->
        check_same ~what:(Printf.sprintf "rep %d" (i + 2)) first r;
        if r.words <> first.words then
          raise (W.Violation (Printf.sprintf "determinism: allocation differs in rep %d" (i + 2))))
      rest;
    Option.iter (check_same ~what:"the traced rep" first) traced

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let pct s p = if Stats.count s = 0 then 0. else Stats.percentile s p

(* Host rate per rep, the first rep left out when there are others: it
   runs while the heap and the code are still cold, and reads slower. *)
let host_rates reps =
  let ops r = float_of_int r.result.ops in
  List.map (fun r -> ratio (ops r) r.host_s) (match reps with _ :: (_ :: _ as warm) -> warm | l -> l)

let end_to_end ~peak_heap_words reps =
  let r = List.hd reps in
  let ops = float_of_int r.result.ops in
  let m name value unit = { name; value; unit } in
  [ m "sim_ops_per_s" (ratio ops r.sim_s) "1/s";
    m "op_p50_ms" (pct r.result.latency 50.) "ms";
    m "op_p99_ms" (pct r.result.latency 99.) "ms";
    m "host_ops_per_s" (median (host_rates reps)) "1/s";
    m "alloc_words_per_op" (ratio r.words ops) "words";
    m "peak_heap_mb" (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.) "MiB";
    m "setup_s" (median (List.map (fun r -> r.setup_s) reps)) "s" ]

let per_layer reps (traced : rep) =
  let r = List.hd reps in
  let res = r.result in
  let ops = float_of_int res.ops in
  let per_op x = ratio x ops in
  let c k = Option.value ~default:0. (List.assoc_opt k r.counters) in
  let l = Option.get traced.ledger in
  let m name value unit = { name; value; unit } in
  let kind k p = match List.assoc_opt k res.by_kind with Some s -> pct s p | None -> 0. in
  let extra k = Option.value ~default:0. (List.assoc_opt k res.extra) in
  let untraced_rate = median (host_rates reps) in
  let traced_rate = ratio ops (float_of_int l.measured_ns /. 1e9) in
  [ m "sim.events_per_op" (per_op (float_of_int r.events)) "count";
    m "sim.core_host_share" l.core_share "ratio";
    m "sim.queue_len_mean" l.queue_len_mean "count";
    m "sim.ready_burst_mean" l.ready_burst_mean "count" ]
  @ List.concat
      (List.mapi
         (fun i layer ->
           [ m (layer ^ ".self_host_us_per_op") (per_op (float_of_int l.self_host_ns.(i) /. 1000.)) "us";
             m (layer ^ ".self_alloc_words_per_op") (per_op l.self_alloc_words.(i)) "words";
             m (layer ^ ".self_sim_ms_per_op") (per_op l.self_sim_ms.(i)) "ms";
             m (layer ^ ".spans_per_op") (per_op (float_of_int l.span_counts.(i))) "count" ])
         (Array.to_list Ledger.layers))
  @ [ m "client.read_p50_ms" (kind "read" 50.) "ms";
      m "client.read_p99_ms" (kind "read" 99.) "ms";
      m "client.write_p50_ms" (kind "write" 50.) "ms";
      m "client.write_p99_ms" (kind "write" 99.) "ms";
      m "client.commit_p50_ms" (kind "commit" 50.) "ms";
      m "client.commit_p99_ms" (kind "commit" 99.) "ms";
      m "client.failed_frac" (ratio (float_of_int res.failed) (float_of_int res.attempted)) "ratio";
      m "client.retries_per_op" (per_op (extra "client.retries")) "count";
      m "file_agent.cache_hit_ratio"
        (ratio (c "agent.cache.hits") (c "agent.cache.hits" +. c "agent.cache.misses")) "ratio";
      m "file_agent.name_cache_hit_ratio"
        (ratio (c "agent.names.hits") (c "agent.names.hits" +. c "agent.names.misses")) "ratio";
      m "file_agent.prefetch_useful_ratio"
        (ratio (c "agent.prefetch_hits") (c "agent.prefetch_issued")) "ratio";
      m "file_agent.remote_reads_per_op" (per_op (c "agent.remote_reads")) "count";
      m "file_agent.remote_writes_per_op" (per_op (c "agent.remote_writes")) "count";
      m "file_agent.coalesced_blocks_per_op"
        (per_op (c "agent.coalesced_block_reads" +. c "agent.coalesced_block_writes")) "count";
      m "net.rpc_calls_per_op" (per_op (c "net.rpc_calls")) "count";
      m "net.rpc_retry_ratio" (ratio (c "net.rpc_retries") (c "net.rpc_calls")) "ratio";
      m "net.rpc_timeouts" (c "net.rpc_timeouts") "count";
      m "file_service.cache_hit_ratio"
        (ratio (c "fs.cache.hits") (c "fs.cache.hits" +. c "fs.cache.misses")) "ratio";
      m "file_service.extent_reads_per_op" (per_op (c "fs.extent_reads")) "count";
      m "file_service.fit_loads_per_op" (per_op (c "fs.fit_loads")) "count";
      m "file_service.fit_stores_per_op" (per_op (c "fs.fit_stores")) "count";
      m "block_service.track_cache_hit_ratio"
        (ratio (c "block.cache_hits") (c "block.cache_hits" +. c "block.cache_misses")) "ratio";
      m "block_service.stable_writes_per_op" (per_op (c "block.stable_writes")) "count";
      m "disk.references_per_op" (per_op (c "disk.references")) "count";
      m "disk.seeks_per_op" (per_op (c "disk.seeks")) "count";
      m "disk.read_bytes_per_op" (per_op (512. *. c "disk.sectors_read")) "bytes";
      m "disk.write_amp" (ratio (512. *. c "disk.sectors_written") (float_of_int res.user_bytes)) "ratio";
      m "disk.busy_frac" (ratio (c "disk.busy_ms") (1000. *. r.sim_s)) "ratio";
      m "txn_service.lock_waits_per_txn" (per_op (c "locks.waits")) "count";
      m "txn_service.timeout_aborts" (c "txn.timeout_aborts") "count";
      m "txn_service.wal_intentions_per_txn" (per_op (c "txn.wal_intentions")) "count";
      m "txn_service.log_checkpoints" (c "txn.log_checkpoints") "count";
      m "recovery.sim_ms" (extra "recovery.sim_ms") "ms";
      m "recovery.host_ms" (extra "recovery.host_ms") "ms";
      m "recovery.redone_txns" (extra "recovery.redone_txns") "count";
      m "recovery.discarded_txns" (extra "recovery.discarded_txns") "count";
      m "recovery.ambiguous_commits" (extra "recovery.ambiguous_commits") "count";
      m "ledger.overhead_frac" (1. -. ratio traced_rate untraced_rate) "ratio" ]
