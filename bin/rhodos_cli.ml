(* rhodos_cli — drive a simulated RHODOS cluster from a command script.

   A tiny line-oriented language exercises the whole public API, so
   the facility can be explored without writing OCaml:

     dune exec bin/rhodos_cli.exe -- run --eval "
       mkdir /data
       create /data/greeting hello-world
       read /data/greeting
       stat /data/greeting
       txn-update /data/greeting atomic-new-value
       crash-server
       recover-server
       read /data/greeting"

   or from a file: dune exec bin/rhodos_cli.exe -- run --script ops.rsh
   Commands:
     mkdir <path>                   create a directory (and parents)
     create <path> [content]       create a file, optionally with content
     write <path> <content>        overwrite a file's content
     append <path> <content>       append
     read <path>                   print content
     stat <path>                   print size/extents/attributes
     ls <path>                     list a directory
     delete <path>                 delete a file
     txn-update <path> <content>   overwrite atomically in a transaction
     txn-abort-demo <path> <junk>  start an update then abort it
     loss <rate> | dup <rate>      message loss / duplication rates
     crash-client                  crash the client workstation
     crash-server                  crash the server node
     recover-server                re-attach disks, replay intentions
     time                          print the simulated clock
     stats                         disk/cache counters so far *)

module Cluster = Rhodos.Cluster
module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Fs = Rhodos_file.File_service
module Fit = Rhodos_file.Fit
module Ta = Rhodos_agent.Transaction_agent
module Fa = Rhodos_agent.File_agent
module Ns = Rhodos_naming.Name_service
module Txn = Rhodos_txn.Txn_service

let split_words line =
  String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")

let read_whole c path =
  let d = Cluster.open_file c path in
  let size = Fa.size (Cluster.file_agent c) d in
  let data = Cluster.pread c d ~off:0 ~len:size in
  Cluster.close c d;
  data

let write_whole c path data =
  let d =
    try Cluster.open_file c path
    with Ns.Name_not_found _ | Ns.Unresolvable _ -> Cluster.create_file c path
  in
  Cluster.pwrite c d ~off:0 ~data;
  Fa.flush (Cluster.file_agent c);
  Cluster.close c d

(* A block-service counter ([attach_pages_scanned]: stable pages the
   last recovery's attach scanned; [stable_pages_read]: stable pages
   read since, the intentions list's among them), summed over every
   server's block services from the cluster's metrics. *)
let block_counter t name =
  List.fold_left
    (fun n (s : Rhodos_obs.Metrics.sample) ->
      if String.ends_with ~suffix:("." ^ name) s.name then n + int_of_float s.value
      else n)
    0
    (Rhodos_obs.Metrics.snapshot (Cluster.metrics t))

let execute sim t c line =
  let fail fmt = Printf.ksprintf (fun s -> Printf.printf "error: %s\n" s) fmt in
  match split_words line with
  | [] -> ()
  | cmd :: _ when cmd.[0] = '#' -> ()
  | [ "mkdir"; path ] ->
    Cluster.mkdir c path;
    Printf.printf "mkdir %s\n" path
  | "create" :: path :: rest ->
    let d = Cluster.create_file c path in
    (match rest with
    | [] -> ()
    | content ->
      Cluster.write c d (Bytes.of_string (String.concat " " content)));
    Fa.flush (Cluster.file_agent c);
    Cluster.close c d;
    Printf.printf "created %s\n" path
  | "write" :: path :: content ->
    write_whole c path (Bytes.of_string (String.concat " " content));
    Printf.printf "wrote %s\n" path
  | "append" :: path :: content ->
    let d = Cluster.open_file c path in
    ignore (Cluster.lseek c d (`End 0));
    Cluster.write c d (Bytes.of_string (String.concat " " content));
    Fa.flush (Cluster.file_agent c);
    Cluster.close c d;
    Printf.printf "appended to %s\n" path
  | [ "read"; path ] ->
    Printf.printf "%s: %S\n" path (Bytes.to_string (read_whole c path))
  | [ "stat"; path ] ->
    let d = Cluster.open_file c path in
    let a = Fa.get_attribute (Cluster.file_agent c) d in
    Cluster.close c d;
    Printf.printf
      "%s: size=%d refcount=%d runs=%d service=%s locking=%s created=%.1fms\n" path
      a.Fit.size a.Fit.ref_count (Fit.run_count a)
      (match a.Fit.service_type with Fit.Basic -> "basic" | Fit.Transaction -> "transaction")
      (match a.Fit.locking_level with
      | Fit.Record_level -> "record"
      | Fit.Page_level -> "page"
      | Fit.File_level -> "file")
      a.Fit.created_at
  | [ "ls"; path ] ->
    Ns.list_dir (Cluster.naming t) path
    |> List.iter (fun (name, kind) ->
           Printf.printf "  %s%s\n" name
             (match kind with Ns.Directory -> "/" | Ns.File -> "" | Ns.Device -> "@"))
  | [ "delete"; path ] ->
    Cluster.delete c path;
    Printf.printf "deleted %s\n" path
  | "txn-update" :: path :: content ->
    Cluster.with_transaction c (fun ta td ->
        let fd = Ta.topen ta td ~path in
        Ta.tpwrite ta td fd ~off:0 ~data:(Bytes.of_string (String.concat " " content)));
    Printf.printf "transaction committed on %s\n" path
  | "txn-abort-demo" :: path :: content -> (
    try
      Cluster.with_transaction c (fun ta td ->
          let fd = Ta.topen ta td ~path in
          Ta.tpwrite ta td fd ~off:0
            ~data:(Bytes.of_string (String.concat " " content));
          failwith "deliberate abort")
    with Failure _ -> Printf.printf "transaction aborted, %s untouched\n" path)
  | [ "loss"; rate ] ->
    Cluster.set_message_loss t (float_of_string rate);
    Printf.printf "message loss rate = %s\n" rate
  | [ "dup"; rate ] ->
    Cluster.set_message_duplication t (float_of_string rate);
    Printf.printf "message duplication rate = %s\n" rate
  | [ "crash-client" ] ->
    let lost = Cluster.crash_client t c in
    Printf.printf "client crashed; %d dirty cached blocks lost\n" lost
  | [ "crash-server" ] ->
    let lost = Cluster.crash_server t in
    Printf.printf "server crashed; %d dirty cached blocks lost\n" lost
  | [ "recover-server" ] ->
    let t0 = Sim.now sim in
    let report = Cluster.recover_server t in
    Printf.printf
      "server recovered in %.1f simulated ms (%d stable pages scanned, %d read); %d txns redone, %d discarded\n"
      (Sim.now sim -. t0)
      (block_counter t "attach_pages_scanned")
      (block_counter t "stable_pages_read")
      (List.length report.Txn.redone_transactions)
      (List.length report.Txn.discarded_transactions)
  | [ "time" ] -> Printf.printf "simulated time: %.2f ms\n" (Sim.now sim)
  | [ "stats" ] ->
    Array.iteri
      (fun i disk ->
        Format.printf "  disk %d: %a@." i Disk.pp_stats (Disk.stats disk))
      (Cluster.disks t);
    let fa = Cluster.file_agent c in
    Printf.printf "  agent cache: %s\n"
      (Rhodos_util.Stats.Counter.to_list (Fa.cache_stats fa)
      |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
      |> String.concat " ")
  | cmd :: _ -> fail "unknown command %S (see --help)" cmd

let run_session ~ndisks ~remote ~latency ~seed ~commands =
  let config =
    {
      Cluster.default_config with
      Cluster.ndisks;
      remote;
      net_latency_ms = latency;
      seed;
    }
  in
  Cluster.run ~config (fun sim t ->
      let c = Cluster.add_client t ~name:"cli" in
      List.iter
        (fun line ->
          try execute sim t c line with
          | Fs.File_not_found _ -> Printf.printf "error: no such file\n"
          | Ns.Name_not_found p -> Printf.printf "error: no such name %s\n" p
          | Ns.Already_bound p -> Printf.printf "error: already exists %s\n" p
          | Txn.Aborted { reason; _ } -> Printf.printf "error: aborted (%s)\n" reason
          | Failure m -> Printf.printf "error: %s\n" m)
        commands;
      Printf.printf "done (simulated %.2f ms)\n" (Sim.now sim))

(* ------------------------------------------------------------------ *)
(* trace: export the E0 cold-read request as a span tree / Chrome JSON *)
(* ------------------------------------------------------------------ *)

module Trace = Rhodos_obs.Trace
module Export = Rhodos_obs.Export

(* One cold 64 KiB read (the E0 walk): create /walk, write it out,
   drop every cache, then trace the re-read. Returns the finished
   spans and the simulation digest. [traced = false] runs the same
   workload with no subscriber attached (the zero-cost path). *)
let cold_read_spans ~traced () =
  Cluster.run (fun sim t ->
      let ws = Cluster.add_client t ~name:"ws" in
      let payload = Bytes.init (64 * 1024) (fun i -> Char.chr (i mod 251)) in
      let d = Cluster.create_file ws "/walk" in
      Cluster.pwrite ws d ~off:0 ~data:payload;
      Fa.flush (Cluster.file_agent ws);
      Fs.drop_caches (Cluster.file_service t);
      ignore (Fa.crash (Cluster.file_agent ws));
      let d = Cluster.open_file ws "/walk" in
      let tracer = Cluster.tracer t in
      let collector = if traced then Some (Trace.collect tracer) else None in
      let got = Cluster.pread ws d ~off:0 ~len:(64 * 1024) in
      Option.iter (Trace.stop tracer) collector;
      if not (Bytes.equal got payload) then failwith "trace: cold read corrupt";
      Cluster.close ws d;
      let spans =
        match collector with Some c -> Trace.spans c | None -> []
      in
      (spans, Sim.run_digest sim))

(* The E0 layering the paper's Fig. 1 promises: the client call goes
   agent -> RPC -> file service -> block service, and the cold 64 KiB
   contiguous file costs exactly two physical disk references. *)
let check_layering spans =
  let by_service s = List.filter (fun sp -> sp.Trace.service = s) spans in
  let find_span id = List.find_opt (fun sp -> sp.Trace.id = id) spans in
  let rec ancestors sp =
    match sp.Trace.parent with
    | None -> []
    | Some p -> (
      match find_span p with
      | None -> []
      | Some parent -> parent.Trace.service :: ancestors parent)
  in
  let expect cond msg = if not cond then failwith ("trace check: " ^ msg) in
  let roots = List.filter (fun sp -> sp.Trace.parent = None) spans in
  expect
    (List.length roots = 1
    && (List.hd roots).Trace.service = "client"
    && (List.hd roots).Trace.op = "pread")
    "expected a single client.pread root span";
  expect (by_service "file_agent" <> []) "no file_agent span";
  expect (by_service "net" <> []) "no net span";
  expect (by_service "file_service" <> []) "no file_service span";
  expect (by_service "block_service" <> []) "no block_service span";
  let disks = by_service "disk" in
  expect
    (List.length disks = 2)
    (Printf.sprintf "expected 2 physical disk references, got %d"
       (List.length disks));
  List.iter
    (fun sp ->
      expect
        (ancestors sp
        = [ "block_service"; "file_service"; "net"; "file_agent"; "client" ])
        "disk span not under block_service -> file_service -> net -> \
         file_agent -> client")
    disks

let trace_action tree check =
  Rhodos_util.Logging.setup_from_env ();
  let spans, digest = cold_read_spans ~traced:true () in
  if check then begin
    check_layering spans;
    let spans2, digest2 = cold_read_spans ~traced:true () in
    let _, untraced_digest = cold_read_spans ~traced:false () in
    if Export.chrome_json spans <> Export.chrome_json spans2 then
      failwith "trace check: two traced runs exported different JSON";
    if digest <> digest2 then
      failwith "trace check: two traced runs diverged (digest)";
    if digest <> untraced_digest then
      failwith "trace check: tracing perturbed the simulation digest";
    Printf.printf
      "trace check passed: %d spans, 2 disk references, deterministic export, \
       digest unchanged by tracing\n"
      (List.length spans)
  end
  else if tree then begin
    print_string (Export.span_tree spans);
    print_string (Export.latency_breakdown ~title:"per-layer breakdown" spans)
  end
  else print_string (Export.chrome_json spans)

(* ------------------------------------------------------------------ *)
(* profile: host-time and allocation self-profiling by layer          *)
(* ------------------------------------------------------------------ *)

module Profiler = Rhodos_obs.Profiler

(* The standard profiling workload — the P0/E15 shape: a cold 512 KiB
   sequential scan in 8 KiB reads through the whole stack, with the
   profiler armed around the scan. [traced] also collects spans so
   --chrome can overlay the profiler's counter tracks on the trace. *)
let profiled_scan ~traced () =
  Cluster.run (fun _ t ->
      let ws = Cluster.add_client t ~name:"ws" in
      let payload = Bytes.init (512 * 1024) (fun i -> Char.chr (i mod 251)) in
      let d = Cluster.create_file ws "/scan" in
      Cluster.pwrite ws d ~off:0 ~data:payload;
      Fa.flush (Cluster.file_agent ws);
      Fs.drop_caches (Cluster.file_service t);
      Fa.invalidate_file (Cluster.file_agent ws)
        ~file:(Fa.descriptor_file (Cluster.file_agent ws) d);
      ignore (Cluster.lseek ws d (`Set 0));
      let tracer = Cluster.tracer t in
      let collector = if traced then Some (Trace.collect tracer) else None in
      let (), report =
        Profiler.profile ~interval:64 tracer (fun () ->
            for _ = 1 to 64 do
              ignore (Cluster.read ws d (8 * 1024))
            done)
      in
      Option.iter (Trace.stop tracer) collector;
      let spans = match collector with Some c -> Trace.spans c | None -> [] in
      (report, spans))

let profile_action collapsed chrome =
  Rhodos_util.Logging.setup_from_env ();
  let report, spans = profiled_scan ~traced:chrome () in
  if chrome then
    print_string
      (Export.chrome_json ~counters:(Profiler.counter_series report) spans)
  else if collapsed then print_string (Profiler.collapsed report)
  else print_string (Profiler.report_table report)

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let ndisks =
  Arg.(value & opt int 1 & info [ "ndisks" ] ~docv:"N" ~doc:"Number of data disks.")

let remote =
  Arg.(
    value & opt bool true
    & info [ "remote" ] ~docv:"BOOL"
        ~doc:"Put the services behind the simulated network (true) or co-locate (false).")

let latency =
  Arg.(
    value & opt float 0.5
    & info [ "latency" ] ~docv:"MS" ~doc:"One-way LAN latency in milliseconds.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let script =
  Arg.(
    value & opt (some file) None
    & info [ "script" ] ~docv:"FILE" ~doc:"Command script, one command per line.")

let eval_arg =
  Arg.(
    value & opt (some string) None
    & info [ "e"; "eval" ] ~docv:"COMMANDS" ~doc:"Inline commands, newline separated.")

let run_cmd =
  let doc = "run a command script against a fresh simulated cluster" in
  let action ndisks remote latency seed script eval =
    Rhodos_util.Logging.setup_from_env ();
    let commands =
      match (script, eval) with
      | Some file, _ ->
        let ic = open_in file in
        let rec lines acc =
          match input_line ic with
          | line -> lines (line :: acc)
          | exception End_of_file ->
            close_in ic;
            List.rev acc
        in
        lines []
      | None, Some text -> String.split_on_char '\n' text
      | None, None ->
        Printf.eprintf "nothing to do: pass --script FILE or --eval COMMANDS\n";
        exit 2
    in
    run_session ~ndisks ~remote ~latency ~seed ~commands
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const action $ ndisks $ remote $ latency $ seed $ script $ eval_arg)

let info_cmd =
  let doc = "print the simulated hardware configuration" in
  let action () =
    let g = Disk.default_geometry in
    Printf.printf "disk geometry: %d cylinders x %d heads x %d sectors x %d B\n"
      g.Disk.cylinders g.Disk.heads g.Disk.sectors_per_track g.Disk.sector_bytes;
    Printf.printf "  rpm=%.0f seek=%.1f+%.3f*d ms, track switch %.1f ms\n" g.Disk.rpm
      g.Disk.seek_start_ms g.Disk.seek_per_cyl_ms g.Disk.track_switch_ms;
    Printf.printf "fragment %d B, block %d B (%d fragments)\n" Block.fragment_bytes
      Block.block_bytes Block.fragments_per_block
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const action $ const ())

let trace_cmd =
  let doc =
    "trace one cold 64 KiB read across every layer; emits Chrome trace_event \
     JSON (default), a plain-text span tree (--tree), or self-checks the \
     layering and determinism (--check)"
  in
  let tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"Print the span tree instead of JSON.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the E0 layering (client through agent, RPC, file \
             service, block service, to exactly 2 disk references), that two \
             traced runs export byte-identical JSON, and that tracing leaves \
             the simulation digest unchanged.")
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const trace_action $ tree $ check)

let profile_cmd =
  let doc =
    "profile the engine itself on a cold 512 KiB scan: host time and words \
     charged to each span layer, plus the scheduler's share (sim-core). \
     Emits a summary table (default), flamegraph folded stacks \
     (--collapsed), or Chrome JSON with profiler counter tracks (--chrome)"
  in
  let collapsed =
    Arg.(
      value & flag
      & info [ "collapsed" ]
          ~doc:
            "Print flamegraph folded stacks (host ns per layer, sim-core \
             included) instead of the table.")
  in
  let chrome =
    Arg.(
      value & flag
      & info [ "chrome" ]
          ~doc:
            "Print Chrome trace_event JSON of the traced scan with the \
             profiler's counter series (queue length, events/sec, Gc words) \
             as \"C\" tracks.")
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const profile_action $ collapsed $ chrome)

let () =
  let doc = "drive a simulated RHODOS distributed file facility" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "rhodos_cli" ~doc)
          [ run_cmd; info_cmd; trace_cmd; profile_cmd ]))
