(* The per-layer ledger of a traced rep, built from outside the
   program through two hooks: the span events of the cluster's tracer
   and a [Sim] probe.

   Host time. The probe brackets each dispatched event; span Start and
   Finish events split a dispatch into segments, and each segment is
   charged to the innermost span the dispatching process has open. A
   process with no span of its own falls back to the span it inherited
   (the parent of the first span it opens), else to [other]. Host time
   outside dispatches is the simulator core's.

   Allocation is attributed the same way, from the words allocated so
   far, read at each split. The ledger's own bookkeeping allocates; that is measured
   around every hook and kept out of the layers.

   Simulated self time is a span's duration minus the part of it its
   children cover. Spans stay in memory and are aggregated at the end. *)

module Sim = Rhodos_sim.Sim
module Trace = Rhodos_obs.Trace
module Event_bus = Rhodos_obs.Event_bus

let layers =
  [| "client"; "naming"; "file_agent"; "txn_agent"; "net"; "file_service";
     "txn_service"; "block_service"; "disk"; "recovery"; "other" |]

let nlayers = Array.length layers
let other = nlayers - 1

let layer_of_service s =
  let rec find i = if i >= other || layers.(i) = s then i else find (i + 1) in
  find 0

(* Monotonic host nanoseconds: the same clock the repo's profiler uses. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far, counting allocations made straight into the
   major heap (large buffers) as well as minor ones. The minor count
   comes from [Gc.minor_words], which reads the allocation pointer:
   the minor count in [Gc.counters] can lag by whole minor heaps. Kept
   out of line so its own allocation is a fixed cost, calibrated
   below. *)
let[@inline never] words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let read_cost =
  lazy
    (let best = ref infinity in
     for _ = 1 to 8 do
       let a = words () in
       let b = words () in
       best := Float.min !best (b -. a)
     done;
     !best)

(* A growable column of finished spans. *)
type column = { mutable ints : int array; mutable floats : float array }

type stack = { mutable ids : int array; mutable lys : int array; mutable n : int }

type t = {
  sim : Sim.t;
  tracer : Trace.t;
  cost : float;
  host_ns : int array;
  alloc : float array;
  spans : int array;
  open_spans : (int, int) Hashtbl.t;  (* span id -> layer, while open *)
  stacks : (int, stack) Hashtbl.t;  (* pid -> own open spans *)
  inherited : (int, int) Hashtbl.t;  (* pid -> layer of the span it inherited *)
  (* segment state *)
  mutable in_dispatch : bool;
  mutable seg_start : int;
  mutable mark : float;  (* adjusted allocation reading at the segment start *)
  mutable own : float;  (* words the ledger itself allocated *)
  mutable last_after : int;
  (* simulator core *)
  mutable core_ns : int;
  mutable probe_ns : int;
  mutable dispatches : int;
  mutable queue_sum : float;
  mutable bursts : int;
  mutable last_at : float;
  (* finished spans: id, parent (-1 = none), layer; start, end *)
  mutable nfin : int;
  fin : column;
  mutable token : Event_bus.token option;
  mutable started_ns : int;
  mutable total_ns : int;
}

type report = {
  self_host_ns : int array;
  self_alloc_words : float array;
  self_sim_ms : float array;
  span_counts : int array;
  core_share : float;
  queue_len_mean : float;
  ready_burst_mean : float;
  measured_ns : int;
}

let target l pid =
  match Hashtbl.find_opt l.stacks pid with
  | Some st when st.n > 0 -> st.lys.(st.n - 1)
  | _ -> ( match Hashtbl.find_opt l.inherited pid with Some ly -> ly | None -> other)

let charge l ly ns w =
  l.host_ns.(ly) <- l.host_ns.(ly) + ns;
  l.alloc.(ly) <- l.alloc.(ly) +. w

(* Close a hook: everything allocated since [raw_in] was read belongs to
   the ledger, and so does the closing reading itself. *)
let close_hook l raw_in started =
  let raw_out = words () in
  l.own <- l.own +. (raw_out -. raw_in) +. l.cost;
  l.mark <- raw_out -. l.own;
  let after = now_ns () in
  l.probe_ns <- l.probe_ns + (after - started);
  after

let push st id ly =
  if st.n = Array.length st.ids then begin
    let grow a = Array.append a (Array.make (max 4 st.n) 0) in
    st.ids <- grow st.ids;
    st.lys <- grow st.lys
  end;
  st.ids.(st.n) <- id;
  st.lys.(st.n) <- ly;
  st.n <- st.n + 1

let remove st id =
  let rec find i = if i < 0 then -1 else if st.ids.(i) = id then i else find (i - 1) in
  let i = find (st.n - 1) in
  if i >= 0 then begin
    Array.blit st.ids (i + 1) st.ids i (st.n - i - 1);
    Array.blit st.lys (i + 1) st.lys i (st.n - i - 1);
    st.n <- st.n - 1
  end

let record_finished l (sp : Trace.span) ly =
  let i = l.nfin in
  if 3 * (i + 1) > Array.length l.fin.ints then begin
    let cap = max 1024 (2 * (i + 1)) in
    let ints = Array.make (3 * cap) 0 and floats = Array.make (2 * cap) 0. in
    Array.blit l.fin.ints 0 ints 0 (3 * i);
    Array.blit l.fin.floats 0 floats 0 (2 * i);
    l.fin.ints <- ints;
    l.fin.floats <- floats
  end;
  l.fin.ints.(3 * i) <- sp.id;
  l.fin.ints.((3 * i) + 1) <- (match sp.parent with Some p -> p | None -> -1);
  l.fin.ints.((3 * i) + 2) <- ly;
  l.fin.floats.(2 * i) <- sp.start_ms;
  l.fin.floats.((2 * i) + 1) <- sp.end_ms;
  l.nfin <- i + 1

let on_span l ev =
  let started = now_ns () in
  let raw = words () in
  let pid = Sim.current_proc_id l.sim in
  if l.in_dispatch then
    charge l (target l pid) (started - l.seg_start) (raw -. l.own -. l.mark);
  (match ev with
  | Trace.Start sp ->
    let ly = layer_of_service sp.service in
    let st =
      match Hashtbl.find_opt l.stacks pid with
      | Some st -> st
      | None ->
        let st = { ids = [||]; lys = [||]; n = 0 } in
        Hashtbl.replace l.stacks pid st;
        st
    in
    (if st.n = 0 then
       match sp.parent with
       | Some p -> (
         match Hashtbl.find_opt l.open_spans p with
         | Some ply -> Hashtbl.replace l.inherited pid ply
         | None -> ())
       | None -> ());
    push st sp.id ly;
    Hashtbl.replace l.open_spans sp.id ly
  | Trace.Finish sp -> (
    match Hashtbl.find_opt l.open_spans sp.id with
    | None -> () (* opened before the measured phase *)
    | Some ly ->
      Hashtbl.remove l.open_spans sp.id;
      (match Hashtbl.find_opt l.stacks pid with Some st -> remove st sp.id | None -> ());
      l.spans.(ly) <- l.spans.(ly) + 1;
      record_finished l sp ly));
  l.seg_start <- close_hook l raw started

let probe l =
  {
    Sim.pr_clock =
      (fun () ->
        let now = now_ns () in
        if not l.in_dispatch then begin
          (* The first clock read after a dispatch ended opens the next
             one: between dispatches the harness only steps the loop. *)
          l.in_dispatch <- true;
          if l.last_after > 0 then l.core_ns <- l.core_ns + (now - l.last_after);
          let raw = words () in
          l.mark <- raw -. l.own;
          l.own <- l.own +. l.cost;
          l.seg_start <- now_ns ();
          l.probe_ns <- l.probe_ns + (l.seg_start - now)
        end;
        now);
    pr_dispatch =
      (fun ~proc ~name:_ ~at ~queue_len ~queued_host_ns:_ ~start_ns:_ ~end_ns ->
        let raw = words () in
        charge l (target l proc) (end_ns - l.seg_start) (raw -. l.own -. l.mark);
        l.dispatches <- l.dispatches + 1;
        l.queue_sum <- l.queue_sum +. float_of_int queue_len;
        if at <> l.last_at then begin
          l.bursts <- l.bursts + 1;
          l.last_at <- at
        end;
        l.in_dispatch <- false;
        l.last_after <- close_hook l raw end_ns);
    pr_wake = (fun ~target:_ ~name:_ -> ());
  }

let attach sim tracer =
  let l =
    {
      sim; tracer; cost = Lazy.force read_cost;
      host_ns = Array.make nlayers 0;
      alloc = Array.make nlayers 0.;
      spans = Array.make nlayers 0;
      open_spans = Hashtbl.create 4096;
      stacks = Hashtbl.create 4096;
      inherited = Hashtbl.create 4096;
      in_dispatch = false; seg_start = 0; mark = 0.; own = 0.; last_after = 0;
      core_ns = 0; probe_ns = 0; dispatches = 0; queue_sum = 0.; bursts = 0;
      last_at = Float.nan;
      nfin = 0; fin = { ints = [||]; floats = [||] };
      token = None; started_ns = 0; total_ns = 0;
    }
  in
  l.token <- Some (Event_bus.subscribe (Trace.events tracer) (on_span l));
  Sim.set_probe sim (Some (probe l));
  l.started_ns <- now_ns ();
  l

let detach l =
  l.total_ns <- now_ns () - l.started_ns;
  Sim.set_probe l.sim None;
  Option.iter (Event_bus.unsubscribe (Trace.events l.tracer)) l.token;
  l.token <- None

(* Self simulated time per layer: each finished span's duration less
   the union of its finished children's intervals, clipped to it. *)
let self_sim l =
  let n = l.nfin in
  let id i = l.fin.ints.(3 * i) and parent i = l.fin.ints.((3 * i) + 1) in
  let ly i = l.fin.ints.((3 * i) + 2) in
  let st i = l.fin.floats.(2 * i) and en i = l.fin.floats.((2 * i) + 1) in
  let index = Hashtbl.create (2 * n + 1) in
  for i = 0 to n - 1 do Hashtbl.replace index (id i) i done;
  let pidx = Array.init n (fun i -> Option.value ~default:(-1) (Hashtbl.find_opt index (parent i))) in
  let children = Array.of_list (List.filter (fun i -> pidx.(i) >= 0) (List.init n Fun.id)) in
  Array.sort (fun a b -> compare (pidx.(a), st a) (pidx.(b), st b)) children;
  let covered = Array.make n 0. in
  let k = ref 0 in
  while !k < Array.length children do
    let p = pidx.(children.(!k)) in
    let lo = st p and hi = en p in
    let cur_s = ref Float.nan and cur_e = ref Float.nan in
    let flush () =
      if not (Float.is_nan !cur_s) then covered.(p) <- covered.(p) +. (!cur_e -. !cur_s)
    in
    while !k < Array.length children && pidx.(children.(!k)) = p do
      let c = children.(!k) in
      let s = Float.max lo (st c) and e = Float.min hi (en c) in
      if e > s then begin
        if Float.is_nan !cur_s || s > !cur_e then begin
          flush ();
          cur_s := s;
          cur_e := e
        end
        else cur_e := Float.max !cur_e e
      end;
      incr k
    done;
    flush ()
  done;
  let self = Array.make nlayers 0. in
  for i = 0 to n - 1 do
    self.(ly i) <- self.(ly i) +. (en i -. st i -. covered.(i))
  done;
  self

let report l =
  {
    self_host_ns = Array.copy l.host_ns;
    self_alloc_words = Array.copy l.alloc;
    self_sim_ms = self_sim l;
    span_counts = Array.copy l.spans;
    core_share =
      (if l.total_ns > 0 then float_of_int l.core_ns /. float_of_int (l.total_ns - l.probe_ns)
       else 0.);
    queue_len_mean = (if l.dispatches > 0 then l.queue_sum /. float_of_int l.dispatches else 0.);
    ready_burst_mean =
      (if l.bursts > 0 then float_of_int l.dispatches /. float_of_int l.bursts else 0.);
    measured_ns = l.total_ns;
  }
