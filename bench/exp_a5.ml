(* A5 — ablation: what the race/protocol sanitizer costs on the hot
   workloads. Two claims: (1) disabled is free — with nobody
   subscribed to the world's observation stream every emission site
   is a single match on the empty subscriber list, so the E0/E15
   shapes dispatch the same events to the same digest in the same
   simulated time as a never-instrumented run would; (2) enabled is
   behaviour-neutral — subscribing the sanitizer (vector clocks, the
   held-lock bookkeeping its race reports print, protocol monitors)
   changes neither digest, dispatch count nor simulated time, only
   host-side bookkeeping, so it can ride along under exploration at
   no cost to replayability. The overhead that remains is host work
   per recorded access, reported here as deterministic access/dispatch
   counts; "monitor events" counts the simulator-primitive events the
   sanitizer processed (dispatch, lock and cache events excluded). *)

open Common
module Fa = Rhodos_agent.File_agent
module Sanitizer = Rhodos_analysis.Sanitizer

let () = Json_out.register "A5"

type probe = {
  p_digest : int;  (** [Sim.run_digest] at the end of the workload *)
  p_dispatched : int;
  p_elapsed : float;  (** simulated ms spent in the measured phase *)
  p_accesses : int;  (** data-cell accesses the sanitizer recorded *)
  p_events : int;  (** monitor events the sanitizer processed *)
  p_violations : int;
}

(* Build a cold cluster, optionally arm the sanitizer (cache protocol
   monitor included), run the measured phase and capture the run's
   fingerprint at the same point either way. *)
let with_cold_cluster ~sanitize ~size measure =
  Cluster.run (fun sim t ->
      let sz = if sanitize then Some (Sanitizer.create sim) else None in
      let ws = Cluster.add_client t ~name:"ws" in
      (match sz with
      | Some sz ->
        Sanitizer.attach_cache sz ~name:"agent-pool"
          ~key_to_string:(fun (f, b) -> Printf.sprintf "%d.%d" f b)
          (Fa.buffer_pool (Cluster.file_agent ws))
      | None -> ());
      let d = Cluster.create_file ws "/data" in
      Cluster.pwrite ws d ~off:0 ~data:(pattern size);
      Fa.flush (Cluster.file_agent ws);
      Fs.drop_caches (Cluster.file_service t);
      Fa.invalidate_file (Cluster.file_agent ws)
        ~file:(Fa.descriptor_file (Cluster.file_agent ws) d);
      let t0 = Sim.now sim in
      measure sim ws d;
      {
        p_digest = Sim.run_digest sim;
        p_dispatched = Sim.events_dispatched sim;
        p_elapsed = Sim.now sim -. t0;
        p_accesses =
          (match sz with
          | Some sz -> List.length (Sanitizer.accesses sz)
          | None -> 0);
        p_events =
          (match sz with Some sz -> Sanitizer.events_seen sz | None -> 0);
        p_violations =
          (match sz with
          | Some sz -> List.length (Sanitizer.violations sz)
          | None -> 0);
      })

(* The E0 shape: one cold 64 KiB pread crossing every layer. *)
let cold_read ~sanitize =
  with_cold_cluster ~sanitize ~size:(kib 64) (fun _sim ws d ->
      let data = Cluster.pread ws d ~off:0 ~len:(kib 64) in
      assert (Bytes.equal data (pattern (kib 64))))

(* The E15 shape: a cold sequential scan in 8 KiB application reads,
   driving miss coalescing and read-ahead through the agent's pool. *)
let scan_bytes = kib 256

let cold_scan ~sanitize =
  with_cold_cluster ~sanitize ~size:scan_bytes (fun _sim ws d ->
      ignore (Cluster.lseek ws d (`Set 0));
      for _ = 1 to scan_bytes / kib 8 do
        ignore (Cluster.read ws d (kib 8))
      done)

let run () =
  header "A5 — ablation: race/protocol sanitizer overhead";
  let table =
    Text_table.create
      ~title:"sanitizer off vs on (identical digests = zero simulated cost)"
      ~columns:
        [
          "workload";
          "sim ms";
          "events";
          "digest match";
          "monitor events";
          "violations";
        ]
  in
  let case name off on =
    let neutral =
      off.p_digest = on.p_digest
      && off.p_dispatched = on.p_dispatched
      && off.p_elapsed = on.p_elapsed
    in
    (* Claim 1+2: disabled and enabled runs are the same simulation. *)
    assert neutral;
    assert (on.p_violations = 0);
    assert (on.p_events > 0);
    Text_table.add_row table
      [
        name;
        Printf.sprintf "%.3f" on.p_elapsed;
        string_of_int on.p_dispatched;
        "yes";
        string_of_int on.p_events;
        string_of_int on.p_violations;
      ];
    Json_out.metric "A5" (name ^ "_digest_match") 1.;
    Json_out.metric "A5" (name ^ "_sim_ms") on.p_elapsed;
    Json_out.metric "A5" (name ^ "_monitor_events") (float_of_int on.p_events);
    Json_out.metric "A5"
      (name ^ "_monitor_events_per_dispatch")
      (float_of_int on.p_events /. float_of_int on.p_dispatched)
  in
  case "cold_read_64k" (cold_read ~sanitize:false) (cold_read ~sanitize:true);
  case "cold_scan_256k" (cold_scan ~sanitize:false) (cold_scan ~sanitize:true);
  print_table table;
  note
    "digest, event count and simulated time are identical with the\n\
     sanitizer off and on: disabled instrumentation is one match on an\n\
     empty subscriber list per touch point, and enabled emission never\n\
     schedules events. The residual cost is host-side only, proportional\n\
     to the monitor events per dispatched simulator event above."
