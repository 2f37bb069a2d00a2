(* Host-time / allocation profiler for the simulator, by layer.

   This is the one module in lib/ allowed to read host clocks (the
   host-clock-hygiene lint enforces it). Armed with a tracer, it takes
   two hooks on the tracer's world: the [Sim.probe], which brackets
   every dispatched event, and the tracer's span events.

   The rule. Span Start and Finish events split a dispatch into
   segments; each segment's host ns and words are charged to the layer
   (the span's [service]) of the innermost span the dispatching process
   has open. A process with no span of its own open falls back to the
   layer of the span it inherited (the parent of the first span it
   opened), else to [other]. Host time and words between dispatches
   are the simulator core's, [sim-core]. A process is not a layer: one
   RPC handler runs file-service, block-service and disk code.

   Allocation is read as minor + major - promoted words, so the 8 KiB
   buffers the data path allocates straight into the major heap count.
   Every hook reads the count on entry and on exit; what it allocated
   in between is the profiler's own and is kept out of every layer. The
   floats the hooks store between those readings live in all-float
   records, which OCaml stores flat, so the stores do not allocate.

   Nothing flows back into the simulation — the hooks only write
   profiler-private state — so an armed profiler is digest-neutral
   (DESIGN §4c'). *)

module Sim = Rhodos_sim.Sim

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far. The minor count comes from [Gc.minor_words],
   which reads the allocation pointer: the minor count in [Gc.counters]
   can lag by whole minor heaps. Kept out of line so its own allocation
   is a fixed cost, calibrated below. *)
let[@inline never] words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words one reading allocates, as seen between two readings. *)
let read_cost =
  lazy
    (let best = ref infinity in
     for _ = 1 to 8 do
       let a = words () in
       let b = words () in
       best := Float.min !best (b -. a)
     done;
     !best)

type layer = { layer : string; host_ns : int; words : float }

type sample = {
  s_sim_ms : float;
  s_host_ms : float;
  s_queue_len : int;
  s_events_per_sec : float;
  s_minor_words : float;
  s_major_words : float;
  s_minor_collections : int;
  s_major_collections : int;
}

type report = {
  wall_ns : int;
  hook_ns : int;
  core_share : float;
  dispatches : int;
  events_per_sec : float;
  words : float;
  own_words : float;
  minor_collections : int;
  major_collections : int;
  sim_ms_advanced : float;
  queue_len_mean : float;
  queue_len_max : int;
  burst_mean : float;
  burst_max : int;
  layers : layer list;
  samples : sample list;
}

type gc_mark = {
  g_minor : float;
  g_major : float;
  g_minor_c : int;
  g_major_c : int;
}

(* [Gc.quick_stat]'s word counts lag: minor words until the next minor
   collection, major words until the next major slice. *)
let gc_mark () =
  let s = Gc.quick_stat () in
  let _, _, major = Gc.counters () in
  {
    g_minor = Gc.minor_words ();
    g_major = major;
    g_minor_c = s.Gc.minor_collections;
    g_major_c = s.Gc.major_collections;
  }

(* A layer's totals. [w] is an all-float record so charging it does not
   allocate. *)
type fbox = { mutable v : float }
type cell = { name : string; mutable ns : int; w : fbox }

(* [mark] is the adjusted allocation reading at the start of the open
   segment, [own] the words the profiler itself allocated, [burst_at]
   the sim time of the current same-time dispatch run. *)
type floats = { mutable mark : float; mutable own : float; mutable burst_at : float }

type t = {
  interval : int;
  cost : float;
  layers : (string, cell) Hashtbl.t;
  other : cell;
  core : cell;
  open_spans : (int, cell) Hashtbl.t;  (* span id -> layer, while open *)
  stacks : (int, (int * cell) list) Hashtbl.t;  (* pid -> own open spans, innermost first *)
  inherited : (int, cell) Hashtbl.t;  (* pid -> layer of the span it inherited *)
  f : floats;
  mutable hooks : (Trace.t * Event_bus.token) option;  (* while armed *)
  mutable in_dispatch : bool;
  mutable arming_pid : int;  (* the process [arm] ran in, until its dispatch ends *)
  mutable seg_start : int;
  mutable last_after : int;  (* host time the last dispatch's hook returned *)
  mutable hook_ns : int;
  mutable dispatches : int;
  mutable queue_len_sum : int;
  mutable queue_len_max : int;
  mutable bursts : int;
  mutable burst : int;
  mutable burst_max : int;
  arm_ns : int;
  arm_words : float;
  arm_gc : gc_mark;
  arm_sim_ms : float;
  mutable last_sample_ns : int;
  mutable last_sample_gc : gc_mark;
  mutable last_sample_dispatches : int;
  mutable samples_rev : sample list;
}

let new_cell name = { name; ns = 0; w = { v = 0. } }

let own_spans t pid = match Hashtbl.find t.stacks pid with l -> l | exception Not_found -> []

let target t pid =
  match own_spans t pid with
  | (_, c) :: _ -> c
  | [] -> ( match Hashtbl.find t.inherited pid with c -> c | exception Not_found -> t.other)

(* Charge the segment that ends at host time [now], allocation reading
   [raw], to [c]. *)
let[@inline] split t c now raw =
  c.ns <- c.ns + (now - t.seg_start);
  c.w.v <- c.w.v +. (raw -. t.f.own -. t.f.mark)

(* Close a hook that started at host time [started] with allocation
   reading [raw_in]: everything allocated since belongs to the profiler,
   and so does the closing reading itself. Returns the host time the
   next segment starts at. *)
let close_hook t raw_in started =
  let raw_out = words () in
  t.f.own <- t.f.own +. (raw_out -. raw_in);
  t.f.mark <- raw_out -. t.f.own;
  t.f.own <- t.f.own +. t.cost;
  let after = now_ns () in
  t.hook_ns <- t.hook_ns + (after - started);
  after

let on_span t sim ev =
  let started = now_ns () in
  let raw = words () in
  let pid = Sim.current_proc_id sim in
  if t.in_dispatch then split t (target t pid) started raw;
  (match ev with
  | Trace.Start sp ->
    let ly =
      match Hashtbl.find t.layers sp.service with
      | c -> c
      | exception Not_found ->
        let c = new_cell sp.service in
        Hashtbl.replace t.layers sp.service c;
        c
    in
    let own = own_spans t pid in
    (match (own, sp.parent) with
    | [], Some p -> (
      match Hashtbl.find t.open_spans p with
      | c -> Hashtbl.replace t.inherited pid c
      | exception Not_found -> ())
    | _ -> ());
    Hashtbl.replace t.stacks pid ((sp.id, ly) :: own);
    Hashtbl.replace t.open_spans sp.id ly
  | Trace.Finish sp ->
    (* a span opened before [arm] is not on any stack *)
    if Hashtbl.mem t.open_spans sp.id then begin
      Hashtbl.remove t.open_spans sp.id;
      Hashtbl.replace t.stacks pid
        (List.filter (fun (id, _) -> id <> sp.id) (own_spans t pid))
    end);
  t.seg_start <- close_hook t raw started

(* The first clock read after a dispatch ended is the next dispatch's
   start: between dispatches only the scheduler runs. *)
let open_dispatch t =
  let now = now_ns () in
  let raw = words () in
  t.seg_start <- t.last_after;
  split t t.core now raw;
  t.in_dispatch <- true;
  t.seg_start <- close_hook t raw now

(* [arm] ran inside a process, whose dispatch has now ended unannounced:
   charge the rest of it, up to this clock read, to that process. *)
let end_arming_dispatch t =
  let now = now_ns () in
  let raw = words () in
  split t (target t t.arming_pid) now raw;
  t.arming_pid <- -1;
  t.in_dispatch <- false;
  t.last_after <- close_hook t raw now

let take_sample t ~sim_ms ~queue_len =
  let now = now_ns () in
  let gc = gc_mark () in
  let span_ns = now - t.last_sample_ns in
  let span_ev = t.dispatches - t.last_sample_dispatches in
  let rate =
    if span_ns <= 0 then 0.
    else float_of_int span_ev /. (float_of_int span_ns /. 1e9)
  in
  let s =
    {
      s_sim_ms = sim_ms;
      s_host_ms = float_of_int (now - t.arm_ns) /. 1e6;
      s_queue_len = queue_len;
      s_events_per_sec = rate;
      s_minor_words = gc.g_minor -. t.last_sample_gc.g_minor;
      s_major_words = gc.g_major -. t.last_sample_gc.g_major;
      s_minor_collections = gc.g_minor_c - t.last_sample_gc.g_minor_c;
      s_major_collections = gc.g_major_c - t.last_sample_gc.g_major_c;
    }
  in
  t.samples_rev <- s :: t.samples_rev;
  t.last_sample_ns <- now;
  t.last_sample_gc <- gc;
  t.last_sample_dispatches <- t.dispatches

let end_burst t =
  if t.burst > 0 then begin
    t.bursts <- t.bursts + 1;
    if t.burst > t.burst_max then t.burst_max <- t.burst
  end

let on_dispatch t ~proc ~at ~queue_len ~end_ns =
  let raw = words () in
  split t (target t proc) end_ns raw;
  t.dispatches <- t.dispatches + 1;
  t.queue_len_sum <- t.queue_len_sum + queue_len;
  if queue_len > t.queue_len_max then t.queue_len_max <- queue_len;
  (* same-sim-time dispatch run = observed ready-set size *)
  if at = t.f.burst_at then t.burst <- t.burst + 1
  else begin
    end_burst t;
    t.f.burst_at <- at;
    t.burst <- 1
  end;
  if t.dispatches mod t.interval = 0 then take_sample t ~sim_ms:at ~queue_len;
  t.in_dispatch <- false;
  t.last_after <- close_hook t raw end_ns

(* The dispatch that disarms still reports its end to the probe it
   started with; [hooks = None] turns those late calls away. *)
let probe t sim =
  {
    Sim.pr_clock =
      (fun () ->
        if Option.is_some t.hooks then begin
          if t.arming_pid >= 0 && not (Sim.in_process sim) then end_arming_dispatch t;
          if not t.in_dispatch then open_dispatch t
        end;
        now_ns ());
    pr_dispatch =
      (fun ~proc ~name:_ ~at ~queue_len ~queued_host_ns:_ ~start_ns:_ ~end_ns ->
        if Option.is_some t.hooks then on_dispatch t ~proc ~at ~queue_len ~end_ns);
    pr_wake = (fun ~target:_ ~name:_ -> ());
  }

let arm ?(interval = 1024) tracer =
  if interval < 1 then invalid_arg "Profiler.arm: interval < 1";
  let started = now_ns () in
  let raw = words () in
  let sim = Trace.sim tracer in
  let gc = gc_mark () in
  let in_process = Sim.in_process sim in
  let t =
    {
      interval;
      cost = Lazy.force read_cost;
      layers = Hashtbl.create 16;
      other = new_cell "other";
      core = new_cell "sim-core";
      open_spans = Hashtbl.create 256;
      stacks = Hashtbl.create 64;
      inherited = Hashtbl.create 64;
      f = { mark = 0.; own = 0.; burst_at = nan };
      hooks = None;
      in_dispatch = in_process;
      arming_pid = (if in_process then Sim.current_proc_id sim else -1);
      seg_start = 0;
      last_after = 0;
      hook_ns = 0;
      dispatches = 0;
      queue_len_sum = 0;
      queue_len_max = 0;
      bursts = 0;
      burst = 0;
      burst_max = 0;
      arm_ns = started;
      arm_words = raw;
      arm_gc = gc;
      arm_sim_ms = Sim.now sim;
      last_sample_ns = started;
      last_sample_gc = gc;
      last_sample_dispatches = 0;
      samples_rev = [];
    }
  in
  t.hooks <- Some (tracer, Event_bus.subscribe (Trace.events tracer) (on_span t sim));
  Sim.set_probe sim (Some (probe t sim));
  t.last_after <- close_hook t raw started;
  t.seg_start <- t.last_after;
  t

let disarm t =
  match t.hooks with
  | None -> invalid_arg "Profiler.disarm: not armed"
  | Some (tracer, token) ->
    let started = now_ns () in
    let raw = words () in
    let sim = Trace.sim tracer in
    if t.in_dispatch then split t (target t (Sim.current_proc_id sim)) started raw
    else begin
      t.seg_start <- t.last_after;
      split t t.core started raw
    end;
    Sim.set_probe sim None;
    Event_bus.unsubscribe (Trace.events tracer) token;
    t.hooks <- None;
    end_burst t;
    let gc = gc_mark () in
    let layers =
      Hashtbl.fold (fun _ c acc -> c :: acc) t.layers [ t.other; t.core ]
      |> List.map (fun c -> { layer = c.name; host_ns = c.ns; words = c.w.v })
      |> List.sort (fun a b ->
             match compare b.host_ns a.host_ns with
             | 0 -> String.compare a.layer b.layer
             | c -> c)
    in
    let raw_end = words () in
    let ended = now_ns () in
    t.f.own <- t.f.own +. (raw_end -. raw);
    t.hook_ns <- t.hook_ns + (ended - started);
    let wall_ns = ended - t.arm_ns in
    let fdiv a b = if b = 0 then 0. else a /. float_of_int b in
    {
      wall_ns;
      hook_ns = t.hook_ns;
      core_share = fdiv (float_of_int t.core.ns) (wall_ns - t.hook_ns);
      dispatches = t.dispatches;
      events_per_sec = fdiv (float_of_int t.dispatches *. 1e9) wall_ns;
      words = raw_end -. t.arm_words;
      own_words = t.f.own;
      minor_collections = gc.g_minor_c - t.arm_gc.g_minor_c;
      major_collections = gc.g_major_c - t.arm_gc.g_major_c;
      sim_ms_advanced = Sim.now sim -. t.arm_sim_ms;
      queue_len_mean = fdiv (float_of_int t.queue_len_sum) t.dispatches;
      queue_len_max = t.queue_len_max;
      burst_mean = fdiv (float_of_int t.dispatches) t.bursts;
      burst_max = t.burst_max;
      layers;
      samples = List.rev t.samples_rev;
    }

let profile ?interval tracer f =
  let t = arm ?interval tracer in
  match f () with
  | x -> (x, disarm t)
  | exception e ->
    ignore (disarm t);
    raise e

(* ---------- renderers ---------- *)

let ns_to_ms ns = float_of_int ns /. 1e6

let pct part whole =
  if whole <= 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let report_table (r : report) =
  let b = Buffer.create 1024 in
  let measured_ns = r.wall_ns - r.hook_ns in
  Printf.bprintf b
    "wall %.3f ms | profiler hooks %.3f ms | sim-core %.1f%% of the rest\n\
     %d dispatches (%.0f events/sec host) | sim advanced %.3f ms\n\
     gc: %.0f words (%.1f words/event), %d/%d minor/major collections; \
     profiler's own %.0f words\n\
     queue len mean %.1f max %d | ready-burst mean %.2f max %d\n"
    (ns_to_ms r.wall_ns) (ns_to_ms r.hook_ns) (100. *. r.core_share)
    r.dispatches r.events_per_sec r.sim_ms_advanced r.words
    (if r.dispatches = 0 then 0. else r.words /. float_of_int r.dispatches)
    r.minor_collections
    r.major_collections r.own_words r.queue_len_mean r.queue_len_max
    r.burst_mean r.burst_max;
  Printf.bprintf b "layers (host time and words charged to the open span):\n";
  Printf.bprintf b "  %-16s %10s %6s %12s\n" "layer" "host ms" "%" "words";
  List.iter
    (fun l ->
      Printf.bprintf b "  %-16s %10.3f %5.1f%% %12.0f\n" l.layer
        (ns_to_ms l.host_ns) (pct l.host_ns measured_ns) l.words)
    r.layers;
  Buffer.contents b

let collapsed (r : report) =
  let b = Buffer.create 256 in
  List.iter
    (fun l -> if l.host_ns > 0 then Printf.bprintf b "rhodos;%s %d\n" l.layer l.host_ns)
    r.layers;
  Buffer.contents b

let counter_series (r : report) =
  let pick f = List.map (fun s -> (s.s_sim_ms, f s)) r.samples in
  [
    ("queue_len", pick (fun s -> float_of_int s.s_queue_len));
    ("events_per_sec", pick (fun s -> s.s_events_per_sec));
    ("minor_words", pick (fun s -> s.s_minor_words));
    ("major_words", pick (fun s -> s.s_major_words));
  ]
