(* Shared plumbing for the experiment harness. *)

module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Fs = Rhodos_file.File_service
module Fit = Rhodos_file.Fit
module Txn = Rhodos_txn.Txn_service
module Lm = Rhodos_txn.Lock_manager
module Net = Rhodos_net.Net
module Cluster = Rhodos.Cluster
module Counter = Rhodos_util.Stats.Counter
module Stats = Rhodos_util.Stats
module Rng = Rhodos_util.Rng
module Text_table = Rhodos_util.Text_table
module Workload = Rhodos_workload.Workload
module Trace = Rhodos_obs.Trace
module Metrics = Rhodos_obs.Metrics
module Export = Rhodos_obs.Export

let mib n = n * 1024 * 1024
let kib n = n * 1024
let block_bytes = Block.block_bytes

(* Run [f] inside a fresh simulation; stop as soon as it returns (so
   periodic background processes cannot keep the run alive). *)
let run_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn ~name:"bench" sim (fun () -> result := Some (f sim)) in
  while !result = None && Sim.step sim do
    ()
  done;
  match !result with Some r -> r | None -> failwith "bench simulation stalled"

(* A standalone file service over [ndisks] fresh disks. *)
let make_fs ?(ndisks = 1) ?(capacity = mib 32) ?(with_stable = false) ?config
    ?block_config sim =
  let disks =
    Array.init ndisks (fun i ->
        let disk =
          Disk.create ~name:(Printf.sprintf "d%d" i) sim
            (Disk.geometry_with_capacity capacity)
        in
        let stable =
          if with_stable then
            let g = Disk.geometry_with_capacity (capacity * 2) in
            Some
              ( Disk.create ~name:(Printf.sprintf "s%da" i) sim g,
                Disk.create ~name:(Printf.sprintf "s%db" i) sim g )
          else None
        in
        let bs =
          Block.create ~name:(Printf.sprintf "bs%d" i) ?config:block_config ~disk
            ?stable ()
        in
        Block.format bs;
        bs)
  in
  Fs.create ?config ~disks ()

let no_cache_block_config =
  { Block.default_config with Block.track_cache_tracks = 0 }

let total_disk_refs fs =
  let refs = ref 0 in
  for i = 0 to Fs.disk_count fs - 1 do
    refs := !refs + (Disk.stats (Block.disk (Fs.block_service fs i))).Disk.references
  done;
  !refs

let reset_disk_stats fs =
  for i = 0 to Fs.disk_count fs - 1 do
    Disk.reset_stats (Block.disk (Fs.block_service fs i))
  done

let pattern n = Bytes.init n (fun i -> Char.chr (i mod 251))

(* Make a file whose every block is its own run (worst-case
   fragmentation) by bouncing single-block stripes between disks. *)
let fragmented_config =
  { Fs.default_config with Fs.placement = Fs.Striped { stripe_blocks = 1 } }

let print_table table = print_string (Text_table.render table)

(* Record every span finished while [f] runs; returns (result, spans). *)
let with_trace tracer f =
  let c = Trace.collect tracer in
  Fun.protect
    ~finally:(fun () -> Trace.stop tracer c)
    (fun () ->
      let result = f () in
      (result, Trace.spans c))

let print_span_tree spans = print_string (Export.span_tree spans)

let print_latency_breakdown ?title spans =
  print_string (Export.latency_breakdown ?title spans)

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n\n"

let note fmt = Printf.printf (fmt ^^ "\n")
