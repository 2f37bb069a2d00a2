module Sim = Rhodos_sim.Sim
module Trace = Rhodos_obs.Trace
module Metrics = Rhodos_obs.Metrics
module Export = Rhodos_obs.Export
module Event_bus = Rhodos_obs.Event_bus
module Cluster = Rhodos.Cluster
module Fa = Rhodos_agent.File_agent
module Fs = Rhodos_file.File_service

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Event bus                                                           *)
(* ------------------------------------------------------------------ *)

let test_bus_multi_subscriber () =
  let bus = Event_bus.create () in
  check bool "initially silent" false (Event_bus.has_subscribers bus);
  let seen_a = ref [] and seen_b = ref [] in
  let ta = Event_bus.subscribe bus (fun x -> seen_a := x :: !seen_a) in
  let _tb = Event_bus.subscribe bus (fun x -> seen_b := x :: !seen_b) in
  Event_bus.publish bus 1;
  Event_bus.publish bus 2;
  check (Alcotest.list int) "a saw both" [ 1; 2 ] (List.rev !seen_a);
  check (Alcotest.list int) "b saw both" [ 1; 2 ] (List.rev !seen_b);
  Event_bus.unsubscribe bus ta;
  Event_bus.publish bus 3;
  check (Alcotest.list int) "a detached" [ 1; 2 ] (List.rev !seen_a);
  check (Alcotest.list int) "b still attached" [ 1; 2; 3 ] (List.rev !seen_b);
  check int "one subscriber left" 1 (Event_bus.subscriber_count bus);
  (* Unsubscribing twice is harmless. *)
  Event_bus.unsubscribe bus ta

(* ------------------------------------------------------------------ *)
(* Tracer basics                                                       *)
(* ------------------------------------------------------------------ *)

let in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn ~name:"test" sim (fun () -> result := Some (f sim)) in
  Sim.run sim;
  Option.get !result

let test_zero_subscriber_fast_path () =
  in_sim (fun sim ->
      let tracer = Trace.create sim in
      check bool "disabled with no subscriber" false (Trace.enabled tracer);
      (* with_span must run the body and record nothing. *)
      let r = Trace.with_span tracer ~service:"s" ~op:"o" (fun () -> 41 + 1) in
      check int "body ran" 42 r;
      check bool "no ambient context created" true (Trace.current tracer = None);
      let c = Trace.collect tracer in
      check bool "enabled once subscribed" true (Trace.enabled tracer);
      Trace.stop tracer c;
      check int "nothing was recorded" 0 (List.length (Trace.spans c)))

let test_span_nesting () =
  in_sim (fun sim ->
      let tracer = Trace.create sim in
      let c = Trace.collect tracer in
      Trace.with_span tracer ~service:"outer" ~op:"a" (fun () ->
          Sim.sleep sim 5.;
          Trace.with_span tracer ~service:"inner" ~op:"b" (fun () ->
              Sim.sleep sim 3.));
      Trace.stop tracer c;
      let spans = Trace.spans c in
      check int "two spans" 2 (List.length spans);
      let outer = List.find (fun s -> s.Trace.service = "outer") spans in
      let inner = List.find (fun s -> s.Trace.service = "inner") spans in
      check bool "outer is a root" true (outer.Trace.parent = None);
      check bool "inner nests under outer" true
        (inner.Trace.parent = Some outer.Trace.id);
      check bool "same trace" true (inner.Trace.trace_id = outer.Trace.trace_id);
      check (Alcotest.float 1e-9) "outer spans 8ms" 8.
        (outer.Trace.end_ms -. outer.Trace.start_ms);
      check (Alcotest.float 1e-9) "inner starts at 5ms" 5. inner.Trace.start_ms)

let test_context_propagates_through_spawn () =
  in_sim (fun sim ->
      let tracer = Trace.create sim in
      let c = Trace.collect tracer in
      Trace.with_span tracer ~service:"parent" ~op:"fanout" (fun () ->
          let done_ = ref 0 in
          for _ = 1 to 2 do
            ignore
              (Sim.spawn sim (fun () ->
                   Trace.with_span tracer ~service:"child" ~op:"job" (fun () ->
                       Sim.sleep sim 1.);
                   incr done_))
          done;
          (* Keep the parent span open until the children finish. *)
          while !done_ < 2 do
            Sim.sleep sim 0.5
          done);
      Trace.stop tracer c;
      let spans = Trace.spans c in
      let parent = List.find (fun s -> s.Trace.service = "parent") spans in
      let children = List.filter (fun s -> s.Trace.service = "child") spans in
      check int "two children" 2 (List.length children);
      List.iter
        (fun ch ->
          check bool "child inherits spawner's ambient span" true
            (ch.Trace.parent = Some parent.Trace.id);
          check bool "child shares the trace" true
            (ch.Trace.trace_id = parent.Trace.trace_id))
        children)

(* ------------------------------------------------------------------ *)
(* Cross-layer: a cold cluster read is one causal tree                 *)
(* ------------------------------------------------------------------ *)

let cold_read ~traced =
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
      let col = if traced then Some (Trace.collect tracer) else None in
      let got = Cluster.pread ws d ~off:0 ~len:(64 * 1024) in
      Option.iter (Trace.stop tracer) col;
      Alcotest.(check bool) "read back intact" true (Bytes.equal got payload);
      Cluster.close ws d;
      let spans = match col with Some c -> Trace.spans c | None -> [] in
      (spans, Sim.run_digest sim))

let test_cluster_causal_tree () =
  let spans, _ = cold_read ~traced:true in
  let find_span id = List.find_opt (fun s -> s.Trace.id = id) spans in
  let rec services_to_root s =
    s.Trace.service
    ::
    (match s.Trace.parent with
    | None -> []
    | Some p -> ( match find_span p with None -> [] | Some s -> services_to_root s))
  in
  let roots = List.filter (fun s -> s.Trace.parent = None) spans in
  check int "one root" 1 (List.length roots);
  check string "root is the client call" "client" (List.hd roots).Trace.service;
  let trace_id = (List.hd roots).Trace.trace_id in
  List.iter
    (fun s -> check bool "single trace id" true (s.Trace.trace_id = trace_id))
    spans;
  let disks = List.filter (fun s -> s.Trace.service = "disk") spans in
  check int "contiguous 64 KiB cold read = 2 disk references" 2
    (List.length disks);
  List.iter
    (fun d ->
      check
        (Alcotest.list string)
        "disk span climbs the Fig. 1 layering"
        [ "disk"; "block_service"; "file_service"; "net"; "file_agent"; "client" ]
        (services_to_root d))
    disks;
  (* The RPC hop carried the context: every net span has a server-side
     child (the file_service span lives in the handler process). *)
  let nets = List.filter (fun s -> s.Trace.service = "net") spans in
  check int "one coalesced range RPC for 8 uncached blocks" 1 (List.length nets);
  List.iter
    (fun n ->
      check bool "server-side child under the rpc span" true
        (List.exists
           (fun s ->
             s.Trace.service = "file_service" && s.Trace.parent = Some n.Trace.id)
           spans))
    nets

let test_tracing_does_not_perturb_digest () =
  let spans_a, digest_traced = cold_read ~traced:true in
  let spans_b, digest_traced2 = cold_read ~traced:true in
  let _, digest_untraced = cold_read ~traced:false in
  check bool "digest unchanged by tracing" true (digest_traced = digest_untraced);
  check bool "traced runs repeat exactly" true (digest_traced = digest_traced2);
  check string "byte-identical exports" (Export.chrome_json spans_a)
    (Export.chrome_json spans_b)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_json_shape () =
  let spans, _ = cold_read ~traced:true in
  let json = Export.chrome_json spans in
  let has needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "has traceEvents" true (has "\"traceEvents\"");
  check bool "has complete events" true (has "\"ph\":\"X\"");
  check bool "has metadata events" true (has "\"process_name\"");
  check bool "service is the category" true (has "\"cat\":\"client\"");
  check bool "op is the event name" true (has "\"name\":\"get_block\"");
  check bool "durations are microseconds" true (has "\"dur\":");
  check bool "carries span ids in args" true (has "\"span_id\":");
  (* Thread lanes follow first appearance: the client is tid 1. *)
  check bool "client lane is tid 1" true
    (has "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"client\"}}")

let test_span_tree_render () =
  in_sim (fun sim ->
      let tracer = Trace.create sim in
      let c = Trace.collect tracer in
      Trace.with_span tracer ~service:"a" ~op:"x" (fun () ->
          Sim.sleep sim 2.;
          Trace.with_span tracer ~service:"b" ~op:"y" (fun () -> Sim.sleep sim 1.));
      Trace.stop tracer c;
      let tree = Export.span_tree (Trace.spans c) in
      let lines = String.split_on_char '\n' tree in
      check bool "root at column 0" true
        (String.length (List.nth lines 0) > 3
        && String.sub (List.nth lines 0) 0 3 = "a.x");
      check bool "child indented" true
        (String.length (List.nth lines 1) > 5
        && String.sub (List.nth lines 1) 0 5 = "  b.y"))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~node:"ws" "reads" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check int "counter accumulates" 5 (Metrics.counter_value c);
  let c' = Metrics.counter m ~node:"ws" "reads" in
  Metrics.incr c';
  check int "same (node,name) is the same counter" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m ~node:"ws" "depth" in
  Metrics.set g 3.5;
  let h = Metrics.histogram m ~node:"server" "latency" in
  List.iter (fun v -> Metrics.observe h v) [ 1.; 2.; 3.; 4. ];
  Metrics.register_source m ~node:"server" ~name:"disk" (fun () ->
      [ ("seeks", 7.) ]);
  let samples = Metrics.snapshot m in
  let value name =
    match List.find_opt (fun s -> s.Metrics.name = name) samples with
    | Some s -> s.Metrics.value
    | None -> Alcotest.failf "sample %s missing" name
  in
  check (Alcotest.float 1e-9) "counter sample" 6. (value "reads");
  check (Alcotest.float 1e-9) "gauge sample" 3.5 (value "depth");
  check (Alcotest.float 1e-9) "histogram count" 4. (value "latency.count");
  check (Alcotest.float 1e-9) "histogram mean" 2.5 (value "latency.mean");
  check (Alcotest.float 1e-9) "source sample" 7. (value "disk.seeks");
  (* Snapshot is sorted by node then name. *)
  let nodes = List.map (fun s -> s.Metrics.node) samples in
  check bool "sorted by node" true (nodes = List.sort compare nodes);
  (* Kind mismatch is an error, not a silent overwrite. *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: ws/reads already registered with another kind")
    (fun () -> ignore (Metrics.gauge m ~node:"ws" "reads"))

let test_cluster_metrics_snapshot () =
  let samples =
    Cluster.run (fun _sim t ->
        let ws = Cluster.add_client t ~name:"ws" in
        let d = Cluster.create_file ws "/m" in
        Cluster.pwrite ws d ~off:0 ~data:(Bytes.make 8192 'x');
        Fa.flush (Cluster.file_agent ws);
        Cluster.close ws d;
        Metrics.snapshot (Cluster.metrics t))
  in
  let value node name =
    match
      List.find_opt
        (fun s -> s.Metrics.node = node && s.Metrics.name = name)
        samples
    with
    | Some s -> s.Metrics.value
    | None -> Alcotest.failf "sample %s/%s missing" node name
  in
  check bool "net counted rpc calls" true (value "" "net.rpc_calls" > 0.);
  check bool "client agent counted writes" true (value "ws" "agent.writes" > 0.);
  check bool "server disk moved" true (value "server" "disk.d0-0.references" > 0.);
  check bool "file service wrote extents" true
    (value "server" "fs.extent_writes" > 0.)

(* ------------------------------------------------------------------ *)
(* Event bus self-modification during publish                          *)
(* ------------------------------------------------------------------ *)

let test_bus_unsubscribe_during_publish () =
  let bus = Event_bus.create () in
  let seen_b = ref 0 and seen_c = ref 0 in
  let tb = ref None in
  (* a (first subscriber) removes b mid-publish: b must be skipped,
     not called after its unsubscribe returned. *)
  let _ta =
    Event_bus.subscribe bus (fun () ->
        match !tb with
        | Some tok ->
          Event_bus.unsubscribe bus tok;
          tb := None
        | None -> ())
  in
  tb := Some (Event_bus.subscribe bus (fun () -> incr seen_b));
  let _tc = Event_bus.subscribe bus (fun () -> incr seen_c) in
  Event_bus.publish bus ();
  check int "b skipped after mid-publish unsubscribe" 0 !seen_b;
  check int "c still delivered" 1 !seen_c;
  check int "two subscribers remain" 2 (Event_bus.subscriber_count bus);
  Event_bus.publish bus ();
  check int "b stays detached" 0 !seen_b;
  check int "c keeps receiving" 2 !seen_c

let test_bus_self_unsubscribe_during_publish () =
  let bus = Event_bus.create () in
  let calls = ref 0 in
  let tok = ref None in
  tok :=
    Some
      (Event_bus.subscribe bus (fun () ->
           incr calls;
           Option.iter (Event_bus.unsubscribe bus) !tok;
           tok := None));
  let other = ref 0 in
  let _ = Event_bus.subscribe bus (fun () -> incr other) in
  Event_bus.publish bus ();
  Event_bus.publish bus ();
  check int "self-unsubscriber ran once" 1 !calls;
  check int "other subscriber saw both" 2 !other

let test_bus_subscribe_during_publish () =
  let bus = Event_bus.create () in
  let late = ref 0 in
  let added = ref false in
  let _ =
    Event_bus.subscribe bus (fun () ->
        if not !added then begin
          added := true;
          ignore (Event_bus.subscribe bus (fun () -> incr late))
        end)
  in
  let _ = Event_bus.subscribe bus (fun () -> ()) in
  Event_bus.publish bus ();
  check int "late subscriber misses the current event" 0 !late;
  Event_bus.publish bus ();
  check int "late subscriber sees the next event" 1 !late

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)
(* ------------------------------------------------------------------ *)

module Profiler = Rhodos_obs.Profiler

(* Every word allocated so far, major-heap buffers included. *)
let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let layer (r : Profiler.report) name =
  List.find_opt (fun (l : Profiler.layer) -> l.layer = name) r.layers

(* A cold 64 KiB read with a span subscriber attached, profiled or not;
   also returns the words read around the profiled window. *)
let profiled_cold_read ~profiled =
  Cluster.run (fun sim t ->
      let ws = Cluster.add_client t ~name:"ws" in
      let payload = Bytes.init (64 * 1024) (fun i -> Char.chr (i mod 251)) in
      let d = Cluster.create_file ws "/p" in
      Cluster.pwrite ws d ~off:0 ~data:payload;
      Fa.flush (Cluster.file_agent ws);
      Fs.drop_caches (Cluster.file_service t);
      ignore (Fa.crash (Cluster.file_agent ws));
      let d = Cluster.open_file ws "/p" in
      let body () = ignore (Cluster.pread ws d ~off:0 ~len:(64 * 1024)) in
      let tracer = Cluster.tracer t in
      let report, outer =
        if profiled then begin
          let w0 = words_allocated () in
          let (), r = Profiler.profile ~interval:16 tracer body in
          (Some r, words_allocated () -. w0)
        end
        else begin
          let tok = Event_bus.subscribe (Trace.events tracer) ignore in
          body ();
          Event_bus.unsubscribe (Trace.events tracer) tok;
          (None, 0.)
        end
      in
      (report, outer, Sim.run_digest sim, Sim.events_dispatched sim))

let some_report = function Some r -> r | None -> Alcotest.fail "no report"

let layer_words (r : Profiler.report) =
  List.sort compare (List.map (fun (l : Profiler.layer) -> (l.layer, l.words)) r.layers)

let test_profiler_digest_neutral () =
  let r1, _, d_on, n_on = profiled_cold_read ~profiled:true in
  let _, _, d_off, n_off = profiled_cold_read ~profiled:false in
  let r2, _, d_on2, _ = profiled_cold_read ~profiled:true in
  check bool "profiling leaves the digest unchanged" true (d_on = d_off);
  check int "profiling leaves the event count unchanged" n_off n_on;
  check bool "profiled runs repeat exactly" true (d_on = d_on2);
  let r1 = some_report r1 and r2 = some_report r2 in
  check int "same dispatch count across profiled runs" r1.Profiler.dispatches
    r2.Profiler.dispatches;
  check
    Alcotest.(list (pair string (float 0.)))
    "per-layer words repeat exactly" (layer_words r1) (layer_words r2)

let test_profiler_report_sanity () =
  let report, outer, _, _ = profiled_cold_read ~profiled:true in
  let r = some_report report in
  check bool "dispatches counted" true (r.Profiler.dispatches > 0);
  check bool "host wall time advanced" true (r.Profiler.wall_ns > 0);
  check bool "hook time within wall time" true
    (r.Profiler.hook_ns <= r.Profiler.wall_ns);
  check bool "sim time advanced" true (r.Profiler.sim_ms_advanced > 0.);
  check bool "profiler's own words counted" true (r.Profiler.own_words > 0.);
  (* the layers, the core and the profiler's own words make up every
     word of the window, which the test's own readings enclose *)
  let charged =
    List.fold_left (fun acc (l : Profiler.layer) -> acc +. l.words) 0. r.Profiler.layers
  in
  check bool "layer words within the words read around the run" true
    (charged > 0. && charged <= outer);
  check (Alcotest.float 0.5) "layers + own = every word of the window"
    r.Profiler.words (charged +. r.Profiler.own_words);
  List.iter
    (fun name ->
      match layer r name with
      | Some l ->
        check bool (name ^ " host ns") true (l.host_ns > 0);
        check bool (name ^ " words") true (l.words > 0.)
      | None -> Alcotest.failf "no %s layer" name)
    [ "file_agent"; "net"; "file_service"; "block_service"; "disk" ];
  check bool "periodic samples taken" true (r.Profiler.samples <> []);
  check bool "report table renders" true
    (String.length (Profiler.report_table r) > 0);
  let folded = Profiler.collapsed r in
  let has needle s =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "folded stacks include sim-core" true
    (has "rhodos;sim-core " folded);
  check bool "folded stacks are per layer" true (has "rhodos;disk " folded)

(* Processes that open no spans: every dispatch is charged to [other]. *)
let test_profiler_bare_sim () =
  let sim = Sim.create () in
  for i = 1 to 4 do
    ignore
      (Sim.spawn ~name:(Printf.sprintf "p%d" i) sim (fun () ->
           for _ = 1 to 10 do
             ignore (Sys.opaque_identity (Bytes.create 100));
             Sim.sleep sim 1.
           done))
  done;
  let (), r = Profiler.profile (Trace.create sim) (fun () -> Sim.run sim) in
  check (Alcotest.list string) "only other and the core"
    [ "other"; "sim-core" ]
    (List.sort compare (List.map (fun (l : Profiler.layer) -> l.layer) r.layers));
  let other = Option.get (layer r "other") in
  check bool "dispatch time charged to other" true (other.host_ns > 0);
  check bool "dispatch words charged to other" true (other.words > 0.)

(* A helper process spawned under a file_service span, like an extent
   I/O job: between the block_service spans it opens, it runs in the
   layer it inherited. *)
let test_profiler_inherited_layer () =
  let sim = Sim.create () in
  let tracer = Trace.create sim in
  let big = 64 * 1024 in
  ignore
    (Sim.spawn ~name:"server" sim (fun () ->
         Trace.with_span tracer ~service:"file_service" ~op:"pread" (fun () ->
             let finished = Sim.Ivar.create sim in
             ignore
               (Sim.spawn ~name:"extent-io" sim (fun () ->
                    Trace.with_span tracer ~service:"block_service" ~op:"get_block"
                      (fun () -> Sim.sleep sim 5.);
                    ignore (Sys.opaque_identity (Bytes.create big));
                    Sim.Ivar.fill finished ()));
             Sim.Ivar.read finished)));
  let (), r = Profiler.profile tracer (fun () -> Sim.run sim) in
  let words name = match layer r name with Some l -> l.words | None -> 0. in
  check bool "the job's own copy lands in file_service" true
    (words "file_service" >= float_of_int (big / 8));
  check bool "not in block_service" true (words "block_service" < float_of_int (big / 8));
  check bool "not in other" true (words "other" < float_of_int (big / 8))

let test_chrome_counters_and_folded_spans () =
  let spans, _ = cold_read ~traced:true in
  let counters = [ ("queue_len", [ (0.5, 3.); (1.5, 7.) ]) ] in
  let json = Export.chrome_json ~counters spans in
  let has needle s =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "counter events emitted" true (has "\"ph\":\"C\"" json);
  check bool "counter carries its series name" true
    (has "{\"name\":\"queue_len\",\"ph\":\"C\",\"ts\":500.000" json);
  check string "no counters, byte-identical to the plain export"
    (Export.chrome_json spans)
    (Export.chrome_json ~counters:[] spans);
  let folded = Export.collapsed_stacks spans in
  check bool "folded spans non-empty" true (String.length folded > 0);
  check bool "root frame present" true (has "client.pread" folded);
  check bool "stacks chain through the layers" true
    (has "client.pread;file_agent." folded);
  (* each line is "frames weight" with an integer microsecond weight *)
  List.iter
    (fun line ->
      if line <> "" then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "folded line without weight: %s" line
        | Some i ->
          let w = String.sub line (i + 1) (String.length line - i - 1) in
          check bool "integer weight" true (int_of_string_opt w <> None))
    (String.split_on_char '\n' folded)

let test_metrics_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~node:"ws" "reads" in
  let g = Metrics.gauge m ~node:"ws" "depth" in
  let h = Metrics.histogram m ~node:"server" "lat" in
  Metrics.incr ~by:5 c;
  Metrics.set g 2.5;
  Metrics.observe h 4.;
  Metrics.register_source m ~name:"ext" (fun () -> [ ("v", 9.) ]);
  Metrics.reset m;
  check int "counter zeroed" 0 (Metrics.counter_value c);
  check (Alcotest.float 1e-9) "gauge zeroed" 0. (Metrics.gauge_value g);
  check int "histogram cleared" 0
    (Rhodos_util.Stats.count (Metrics.histogram_stats h));
  (* handles stay live: a second iteration counts from scratch *)
  Metrics.incr ~by:2 c;
  Metrics.observe h 1.;
  Metrics.observe h 3.;
  check int "counter recounts" 2 (Metrics.counter_value c);
  check (Alcotest.float 1e-9) "histogram recounts" 2.
    (let s =
       List.find_opt
         (fun s -> s.Metrics.name = "lat.count")
         (Metrics.snapshot m)
     in
     match s with Some s -> s.Metrics.value | None -> -1.);
  (* sources are untouched by reset *)
  check bool "source still read" true
    (List.exists (fun s -> s.Metrics.name = "ext.v") (Metrics.snapshot m))

let () =
  Alcotest.run "obs"
    [
      ( "event_bus",
        [
          Alcotest.test_case "multi-subscriber" `Quick test_bus_multi_subscriber;
          Alcotest.test_case "unsubscribe during publish" `Quick
            test_bus_unsubscribe_during_publish;
          Alcotest.test_case "self-unsubscribe during publish" `Quick
            test_bus_self_unsubscribe_during_publish;
          Alcotest.test_case "subscribe during publish" `Quick
            test_bus_subscribe_during_publish;
        ] );
      ( "trace",
        [
          Alcotest.test_case "zero-subscriber fast path" `Quick
            test_zero_subscriber_fast_path;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "context through Sim.spawn" `Quick
            test_context_propagates_through_spawn;
          Alcotest.test_case "cluster causal tree" `Quick test_cluster_causal_tree;
          Alcotest.test_case "digest unperturbed" `Quick
            test_tracing_does_not_perturb_digest;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
          Alcotest.test_case "span tree render" `Quick test_span_tree_render;
          Alcotest.test_case "chrome counters + folded spans" `Quick
            test_chrome_counters_and_folded_spans;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "digest neutral" `Quick
            test_profiler_digest_neutral;
          Alcotest.test_case "report sanity" `Quick
            test_profiler_report_sanity;
          Alcotest.test_case "bare sim charges other" `Quick test_profiler_bare_sim;
          Alcotest.test_case "inherited layer" `Quick test_profiler_inherited_layer;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "reset" `Quick test_metrics_reset;
          Alcotest.test_case "cluster snapshot" `Quick
            test_cluster_metrics_snapshot;
        ] );
    ]
