open Effect
open Effect.Deep
module Prio_queue = Rhodos_util.Prio_queue

exception Killed

(* A parked process: its captured continuation plus the one-shot flag
   shared with every waker registered for it. *)
type parked = Parked : ('a, unit) continuation * bool ref -> parked

type proc_state = Ready | Parked_st of parked | Dead

(* Process-local bindings are heterogeneous: each [Local.key] carries
   its own constructor of this extensible type, so no [Obj] tricks are
   needed to store values of different types in one list. *)
type binding = ..

type proc = {
  id : int;
  name : string;
  mutable state : proc_state;
  mutable kill_pending : bool;
  mutable locals : binding list;
}

type pid = proc

(* Monitor events: a synchronous feed of every causality-relevant
   primitive operation, consumed by the race/protocol sanitizer
   ([Rhodos_analysis.Sanitizer]). Emission never schedules events and
   never blocks, so an attached monitor cannot perturb the run digest;
   with no monitor attached every hook is a single match on [None] —
   no allocation, no call. [proc = -1] means "outside any process"
   (top-level setup code or a bare timer thunk). Mailbox messages,
   ivars, semaphores and cells carry per-world sequence numbers so the
   consumer can pair a [M_recv] with the exact [M_send] that produced
   the message even when deliveries reorder under a controlled
   schedule. *)
type cell_role = Data | Sync

type mon_event =
  | M_spawn of { parent : int; child : int; name : string }
  | M_wake of { by : int; target : int }
      (** [by] resumed parked process [target]: a mailbox send reaching
          a waiter, a semaphore release, an ivar fill, a condition
          signal — every cross-process wakeup funnels through here. *)
  | M_send of { proc : int; mailbox : int; msg : int }
  | M_recv of { proc : int; mailbox : int; msg : int }
  | M_ivar_fill of { proc : int; ivar : int; double : bool }
  | M_ivar_read of { proc : int; ivar : int }
  | M_sem_acquire of { proc : int; sem : int }
  | M_sem_release of { proc : int; sem : int }
  | M_cell_created of { cell : int; name : string; role : cell_role }
  | M_cell_read of { proc : int; cell : int; role : cell_role }
  | M_cell_write of { proc : int; cell : int; role : cell_role }

(* Profiler hooks: like the monitor, a synchronous feed — but of the
   dispatch loop itself rather than of synchronisation primitives. The
   probe supplies its own host clock ([pr_clock], monotonic
   nanoseconds) so the simulator never reads host time directly (the
   host-clock-hygiene lint keeps host clocks confined to the profiler
   module); readings flow only into the probe's accumulators, never
   into simulated state, so an armed probe cannot perturb the run
   digest. With no probe installed each hook site is a single match on
   [None]. *)
type probe = {
  pr_clock : unit -> int;
      (** monotonic host nanoseconds, read at event creation and
          around each dispatched thunk *)
  pr_dispatch :
    proc:int ->
    name:string ->
    at:float ->
    queue_len:int ->
    queued_host_ns:int ->
    start_ns:int ->
    end_ns:int ->
    unit;
      (** called after a dispatched event's thunk returns: owning
          process ([-1]/"top" outside any process), dispatch sim time,
          event-queue length after the dispatch, the host stamp taken
          when the event was enqueued (0 = enqueued before arming) and
          the host stamps around the thunk *)
  pr_wake : target:int -> name:string -> unit;
      (** a parked process was resumed (same edge as [M_wake]) *)
}

(* [live] lets a cancelled timer (say, the sleep of a killed process)
   be skipped without advancing the clock to its deadline. [id] is the
   creation sequence number, folded into the run digest at dispatch so
   two runs produce the same digest iff they dispatched the same
   events in the same order at the same times. [origin] is the process
   the event belongs to (the one that scheduled it, or the one it will
   resume) — carried only so a recorded run can be pretty-printed as
   an interleaving; a proc pointer, not a string, so the hot path pays
   no formatting cost. The sentinel [t.top] proc (id -1) stands for
   "outside any process". [queued_host_ns] is the probe's enqueue
   stamp (0 when no probe is armed) — an immediate int field, so the
   event record allocates nothing extra on the probe-off path.

   Every field is mutable because dispatched events are recycled
   through a freelist ([t.pool]): at ~600k dispatches/sec the 6-word
   record per event was a measurable slice of the allocation rate, and
   a recycled record is hot in cache. An event is returned to the pool
   at the top of [dispatch] (after its fields are read into locals),
   so the thunk it carried can immediately reuse it for the events it
   schedules. *)
type event = {
  mutable id : int;
  mutable origin : proc;
  mutable live : unit -> bool;
  mutable thunk : unit -> unit;
  mutable queued_host_ns : int;
}

(* [clock] is a [float ref], not a [mutable float] field: in a mixed
   record the float field is boxed and every store would allocate,
   while a standalone float ref is flat and stores are plain writes. *)
type t = {
  clock : float ref;
  events : event Prio_queue.t;
  top : proc; (* sentinel: [current == top] means outside any process *)
  mutable failure : exn option;
  mutable next_pid : int;
  mutable current : proc;
  mutable next_event_id : int;
  mutable digest : int;
  mutable dispatched : int;
  track : bool;
  mutable procs : proc list; (* every spawn, only when [track] *)
  scheduler : (step:int -> n_ready:int -> int) option;
  record : bool;
  mutable n_choices : int;
  mutable choice_rev : (int * int) list; (* (n_ready, chosen), newest first *)
  mutable dispatch_rev : (float * string) list; (* only when [record] *)
  mutable monitor : (mon_event -> unit) option;
  mutable probe : probe option;
  mutable next_obj : int; (* mailbox/ivar/semaphore/cell id allocator *)
  mutable pool : event array; (* recycled event records *)
  mutable pool_n : int;
}

exception Blocking_outside_process

(* The registration callback receives the waker plus a liveness
   predicate ([false] once the process has been woken or killed), used
   to cancel pending timer events. [Block_simple] is the common case
   that needs no liveness predicate (mailbox receives, semaphore
   waits, yields): skipping the predicate and the adapter closure
   [suspend] would otherwise build keeps the park path allocation-lean. *)
type _ Effect.t +=
  | Block : (('a -> bool) -> (unit -> bool) -> unit) -> 'a Effect.t
  | Block_simple : (('a -> bool) -> unit) -> 'a Effect.t

let create ?(tie_break = Prio_queue.Fifo) ?(track = false) ?scheduler
    ?(record = false) () =
  let top =
    { id = -1; name = "top"; state = Ready; kill_pending = false; locals = [] }
  in
  { clock = ref 0.;
    events = Prio_queue.create ~tie:tie_break (); top;
    failure = None; next_pid = 0; current = top; next_event_id = 0; digest = 0;
    dispatched = 0; track; procs = []; scheduler; record; n_choices = 0;
    choice_rev = []; dispatch_rev = []; monitor = None; probe = None;
    next_obj = 0; pool = [||]; pool_n = 0 }

let now t = !(t.clock)

let set_monitor t f = t.monitor <- f

let set_probe t p = t.probe <- p

let queue_length t = Prio_queue.length t.events

let[@inline] cur_id t = t.current.id

let obj_id t =
  let i = t.next_obj in
  t.next_obj <- i + 1;
  i

let always_live () = true

let nop () = ()

let proc_label (p : proc) =
  if p.id < 0 then "top" else Printf.sprintf "%s#%d" p.name p.id

(* Return a dispatched event record to the freelist for reuse. Fields
   are cleared so a pooled record pins neither closures nor procs. The
   pool is capped: a run that pops a long backlog without scheduling
   anything new (e.g. the drain at the end of a run) hands the excess
   to the GC instead of retaining it. *)
let recycle t ev =
  ev.origin <- t.top;
  ev.live <- always_live;
  ev.thunk <- nop;
  ev.queued_host_ns <- 0;
  let n = t.pool_n in
  let cap = Array.length t.pool in
  if n < cap then begin
    t.pool.(n) <- ev;
    t.pool_n <- n + 1
  end
  else if cap < 1024 then begin
    let pool = Array.make (if cap = 0 then 16 else 2 * cap) ev in
    Array.blit t.pool 0 pool 0 n;
    pool.(n) <- ev;
    t.pool <- pool;
    t.pool_n <- n + 1
  end

(* Raw scheduling path: [origin] is a plain argument, so the hot
   callers (wakers, spawns) don't box an optional. *)
let schedule_ev t origin ~at ~live thunk =
  let clock = !(t.clock) in
  let at = if at < clock then clock else at in
  let id = t.next_event_id in
  t.next_event_id <- id + 1;
  let queued_host_ns =
    match t.probe with None -> 0 | Some p -> p.pr_clock ()
  in
  let ev =
    let n = t.pool_n in
    if n > 0 then begin
      let n = n - 1 in
      t.pool_n <- n;
      let ev = t.pool.(n) in
      ev.id <- id;
      ev.origin <- origin;
      ev.live <- live;
      ev.thunk <- thunk;
      ev.queued_host_ns <- queued_host_ns;
      ev
    end
    else { id; origin; live; thunk; queued_host_ns }
  in
  Prio_queue.add t.events ~prio:at ev

let schedule_event ?origin t ~at ~live thunk =
  let origin = match origin with Some p -> p | None -> t.current in
  schedule_ev t origin ~at ~live thunk

let schedule t ~at thunk = schedule_event t ~at ~live:always_live thunk

let schedule_cancellable t ~at ~live thunk = schedule_event t ~at ~live thunk

let record_failure t e = if t.failure = None then t.failure <- Some e

(* The one-shot waker for a parked process: resuming schedules an
   event that reinstates the continuation. Top-level and partially
   applied per park, so both Block variants share one code path. *)
let make_waker :
    type a. t -> proc -> bool ref -> (a, unit) continuation -> a -> bool =
 fun t proc resumed k v ->
  if !resumed then false
  else begin
    resumed := true;
    proc.state <- Ready;
    (match t.monitor with
    | Some f -> f (M_wake { by = cur_id t; target = proc.id })
    | None -> ());
    (match t.probe with
    | Some p -> p.pr_wake ~target:proc.id ~name:proc.name
    | None -> ());
    schedule_ev t proc ~at:!(t.clock) ~live:always_live (fun () ->
        let saved = t.current in
        t.current <- proc;
        continue k v;
        t.current <- saved);
    true
  end

(* Run [f] as a process under the deep handler that implements
   suspension. The handler stays in force across resumptions, so every
   Block performed during the process's life lands here. *)
let run_process t proc f =
  match_with f ()
    {
      retc = (fun () -> proc.state <- Dead);
      exnc =
        (fun e ->
          proc.state <- Dead;
          match e with Killed -> () | e -> record_failure t e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Block register ->
            Some
              (fun (k : (b, unit) continuation) ->
                if proc.kill_pending then begin
                  proc.kill_pending <- false;
                  discontinue k Killed
                end
                else begin
                  let resumed = ref false in
                  proc.state <- Parked_st (Parked (k, resumed));
                  register (make_waker t proc resumed k)
                    (fun () -> not !resumed)
                end)
          | Block_simple register ->
            Some
              (fun (k : (b, unit) continuation) ->
                if proc.kill_pending then begin
                  proc.kill_pending <- false;
                  discontinue k Killed
                end
                else begin
                  let resumed = ref false in
                  proc.state <- Parked_st (Parked (k, resumed));
                  register (make_waker t proc resumed k)
                end)
          | _ -> None);
    }

let spawn_at ?(name = "proc") t ~at f =
  (* A child inherits the spawner's locals as they stand at the spawn
     call (not at first dispatch): ambient context such as a trace
     context must flow into work the current operation fans out. *)
  let inherited = t.current.locals in
  let proc =
    { id = t.next_pid; name; state = Ready; kill_pending = false;
      locals = inherited }
  in
  t.next_pid <- t.next_pid + 1;
  if t.track then t.procs <- proc :: t.procs;
  (match t.monitor with
  | Some f -> f (M_spawn { parent = cur_id t; child = proc.id; name })
  | None -> ());
  schedule_event ~origin:proc t ~at ~live:always_live (fun () ->
      if proc.state = Ready && not proc.kill_pending then begin
        let saved = t.current in
        t.current <- proc;
        run_process t proc f;
        t.current <- saved
      end
      else proc.state <- Dead);
  proc

let spawn ?name t f = spawn_at ?name t ~at:!(t.clock) f

(* --- run digest fold --------------------------------------------- *)
(* The digest folds (digest, ev.id, bits_of_float time) with exactly
   the value [Hashtbl.hash] would produce on that triple — but
   computed directly on the integer parts, because the obvious
   [Hashtbl.hash (t.digest, ev.id, Int64.bits_of_float time)] builds a
   4-word tuple and a 3-word [Int64] box per dispatch, the single
   largest allocation on the hot path. [Hashtbl.hash] is MurmurHash3:
   mix the tuple header, each immediate as its tagged machine word,
   the [Int64] as its custom hash (low xor high 32 bits), then
   finalize to 30 bits. The equivalence is pinned by a qcheck test
   against [Hashtbl.hash] itself ([digest_step] below), so a runtime
   that changed its hash would fail the suite rather than silently
   fork the digest stream. All arithmetic is on immediates masked to
   32 bits; nothing here allocates. *)

let hash_mask = 0xFFFFFFFF

let[@inline] mix_word h d =
  let d = d * 0xcc9e2d51 land hash_mask in
  let d = (d lsl 15) lor (d lsr 17) land hash_mask in
  let d = d * 0x1b873593 land hash_mask in
  let h = h lxor d in
  let h = (h lsl 13) lor (h lsr 19) land hash_mask in
  ((h * 5) + 0xe6546b64) land hash_mask

(* an immediate hashes as its tagged machine word [2k + 1], folded to
   32 bits as [caml_hash_mix_intnat] does *)
let[@inline] mix_immediate h k =
  let d = (2 * k) + 1 in
  mix_word h (((d asr 32) lxor (d asr 62) lxor d) land hash_mask)

let[@inline] final_mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land hash_mask in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land hash_mask in
  let h = h lxor (h lsr 16) in
  h land 0x3FFFFFFF

let tuple3_header = 3 lsl 10 (* wosize 3, tag 0, colour bits clear *)

let digest_fold digest id lo hi =
  let h = mix_word 0 tuple3_header in
  let h = mix_immediate h digest in
  let h = mix_immediate h id in
  let h = mix_word h (lo lxor hi) in
  final_mix h

(* the fold exposed whole for the qcheck pin test *)
let digest_step digest id time =
  let bits = Int64.bits_of_float time in
  let lo = Int64.to_int bits land hash_mask in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) land hash_mask in
  digest_fold digest id lo hi

(* The event's fields are read into locals and the record recycled
   before the thunk runs, so the thunk's own [schedule_event] calls
   reuse it immediately — the common ping-pong shape cycles one or two
   records that stay hot in cache. *)
let dispatch t time ev =
  if time > !(t.clock) then t.clock := time;
  t.dispatched <- t.dispatched + 1;
  (let bits = Int64.bits_of_float time in
   let lo = Int64.to_int bits land hash_mask in
   let hi = Int64.to_int (Int64.shift_right_logical bits 32) land hash_mask in
   t.digest <- digest_fold t.digest ev.id lo hi);
  if t.record then
    t.dispatch_rev <- (time, proc_label ev.origin) :: t.dispatch_rev;
  (match t.probe with
  | None ->
    let thunk = ev.thunk in
    recycle t ev;
    thunk ()
  | Some p ->
    let thunk = ev.thunk in
    let origin = ev.origin in
    let queued_host_ns = ev.queued_host_ns in
    recycle t ev;
    let start_ns = p.pr_clock () in
    thunk ();
    let end_ns = p.pr_clock () in
    p.pr_dispatch ~proc:origin.id ~name:origin.name ~at:time
      ~queue_len:(Prio_queue.length t.events)
      ~queued_host_ns ~start_ns ~end_ns);
  match t.failure with
  | Some e ->
    t.failure <- None;
    raise e
  | None -> ()

(* Controlled mode: the ready set (all events at the minimum time,
   dead ones purged) is an explicit choice point. With one candidate
   the dispatch is forced; with several, the strategy picks the branch
   and the (n_ready, chosen) pair is recorded so the run can be
   replayed exactly. A FIFO strategy dispatches in exactly the order
   the uncontrolled loop would, so digests agree between the two. *)
let rec controlled_step t strategy =
  (* Fast path: [ready_count] is allocation-free and O(1) when the
     minimum is unique (the scheduler-armed-but-no-contention case),
     so a controlled run only pays the O(n) ready-set scan at genuine
     choice points. A forced single candidate records no choice,
     exactly like the group-of-one case below. *)
  match Prio_queue.ready_count t.events with
  | 0 -> false
  | 1 ->
    let time = Prio_queue.unsafe_min_prio t.events in
    let ev = Prio_queue.pop_into t.events in
    if ev.live () then begin
      dispatch t time ev;
      true
    end
    else begin
      (* the lone event at this time was dead; move on if later events
         remain *)
      recycle t ev;
      if Prio_queue.is_empty t.events then false else controlled_step t strategy
    end
  | _ ->
    let rec purge_dead () =
      let group = Prio_queue.ready t.events in
      let rec first_dead i = function
        | [] -> None
        | (_, ev) :: rest ->
          if ev.live () then first_dead (i + 1) rest else Some i
      in
      match first_dead 0 group with
      | Some i ->
        (match Prio_queue.pop_nth t.events i with
        | Some (_, ev) -> recycle t ev
        | None -> ());
        purge_dead ()
      | None -> group
    in
    (match purge_dead () with
    | [] ->
      if Prio_queue.is_empty t.events then false
      else controlled_step t strategy
    | [ _ ] ->
      (match Prio_queue.pop_nth t.events 0 with
      | Some (time, ev) -> dispatch t time ev
      | None -> assert false);
      true
    | group ->
      let n = List.length group in
      let chosen = strategy ~step:t.n_choices ~n_ready:n in
      let chosen =
        if chosen < 0 then 0 else if chosen >= n then n - 1 else chosen
      in
      t.n_choices <- t.n_choices + 1;
      t.choice_rev <- (n, chosen) :: t.choice_rev;
      (match Prio_queue.pop_nth t.events chosen with
      | Some (time, ev) -> dispatch t time ev
      | None -> assert false);
      true)

let step t =
  match t.scheduler with
  | Some strategy -> controlled_step t strategy
  | None ->
    if Prio_queue.is_empty t.events then false
    else begin
      let time = Prio_queue.unsafe_min_prio t.events in
      let ev = Prio_queue.pop_into t.events in
      if ev.live () then dispatch t time ev else recycle t ev;
      true
    end

let run ?until t =
  (match t.scheduler with
  | Some strategy ->
    let should_continue () =
      (not (Prio_queue.is_empty t.events))
      &&
      match until with
      | None -> true
      | Some u -> Prio_queue.unsafe_min_prio t.events <= u
    in
    while should_continue () do
      ignore (controlled_step t strategy)
    done
  | None -> (
    (* Uncontrolled hot loop: nothing here allocates — emptiness check,
       raw min read, raw pop, dispatch. *)
    let events = t.events in
    match until with
    | None ->
      while not (Prio_queue.is_empty events) do
        let time = Prio_queue.unsafe_min_prio events in
        let ev = Prio_queue.pop_into events in
        if ev.live () then dispatch t time ev else recycle t ev
      done
    | Some u ->
      while
        (not (Prio_queue.is_empty events))
        && Prio_queue.unsafe_min_prio events <= u
      do
        let time = Prio_queue.unsafe_min_prio events in
        let ev = Prio_queue.pop_into events in
        if ev.live () then dispatch t time ev else recycle t ev
      done));
  match until with Some u -> if u > !(t.clock) then t.clock := u | None -> ()

(* Sanitizer check: performing Block outside a process would surface
   as a cryptic [Effect.Unhandled]; fail with a diagnosable error
   instead. *)
let check_in_process t =
  if t.current == t.top then raise Blocking_outside_process

let suspend t register =
  check_in_process t;
  perform (Block_simple register)

let suspend_full t register =
  check_in_process t;
  perform (Block register)

let sleep t d =
  suspend_full t (fun waker live ->
      schedule_event t ~at:(!(t.clock) +. d) ~live (fun () ->
          ignore (waker ())))

let yield t =
  suspend t (fun waker ->
      schedule t ~at:!(t.clock) (fun () -> ignore (waker ())))

let kill t proc =
  match proc.state with
  | Dead -> ()
  | Parked_st (Parked (k, resumed)) ->
    if not !resumed then begin
      resumed := true;
      proc.state <- Dead;
      schedule t ~at:!(t.clock) (fun () -> discontinue k Killed)
    end
  | Ready ->
    if t.current == proc then raise Killed else proc.kill_pending <- true

let is_alive _t proc = proc.state <> Dead

let in_process t = t.current != t.top

let pid_name _t proc = Printf.sprintf "%s#%d" proc.name proc.id

let current_proc_id = cur_id

module Local = struct
  (* A key's identity is the private extensible-variant constructor
     minted by [key ()] — the projection function recognises exactly
     its own bindings, so no global counter is needed. *)
  type 'a key = {
    inj : 'a -> binding;
    prj : binding -> 'a option;
  }

  let key (type a) () : a key =
    let module M = struct
      type binding += K of a
    end in
    {
      inj = (fun v -> M.K v);
      prj = (function M.K v -> Some v | _ -> None);
    }

  let get t k =
    let p = t.current in
    if p == t.top then None else List.find_map k.prj p.locals

  let set t k v =
    let p = t.current in
    if p != t.top then begin
      let rest = List.filter (fun b -> Option.is_none (k.prj b)) p.locals in
      p.locals <- (match v with None -> rest | Some v -> k.inj v :: rest)
    end
end

(* ------------------------------------------------------------------ *)
(* Determinism sanitizer hooks                                         *)
(* ------------------------------------------------------------------ *)

let run_digest t = t.digest

let events_dispatched t = t.dispatched

let choices t = List.rev t.choice_rev

let dispatch_log t = List.rev t.dispatch_rev

type audit = { parked : string list; undelivered_kills : string list }

let audit t =
  let name p = Printf.sprintf "%s#%d" p.name p.id in
  let parked =
    List.filter_map
      (fun p -> match p.state with Parked_st _ -> Some (name p) | _ -> None)
      t.procs
  in
  let undelivered_kills =
    List.filter_map
      (fun p ->
        if p.kill_pending && p.state <> Dead then Some (name p) else None)
      t.procs
  in
  { parked = List.rev parked; undelivered_kills = List.rev undelivered_kills }

module Mailbox = struct
  (* Messages travel as [(msg, v)] pairs where [msg] is a per-mailbox
     sequence number, so the monitor can pair each receive with the
     exact send that produced it even when a controlled schedule
     reorders deliveries. The pairs never escape this module. *)
  type 'a mb = {
    sim : t;
    mbid : int;
    queue : (int * 'a) Queue.t;
    mutable next_msg : int;
    mutable waiters : ((int * 'a) -> bool) list; (* reversed arrival order *)
  }

  let create sim =
    { sim; mbid = obj_id sim; queue = Queue.create (); next_msg = 0;
      waiters = [] }

  (* Top-level delivery loop (a local [let rec] would allocate a
     closure per send); the [(msg, v)] pair is built once. *)
  let rec deliver mb p = function
    | [] ->
      mb.waiters <- [];
      Queue.push p mb.queue
    | w :: rest -> if w p then mb.waiters <- rest else deliver mb p rest

  let send mb v =
    let msg = mb.next_msg in
    mb.next_msg <- msg + 1;
    (match mb.sim.monitor with
    | Some f -> f (M_send { proc = cur_id mb.sim; mailbox = mb.mbid; msg })
    | None -> ());
    deliver mb (msg, v) mb.waiters

  (* Runs in the receiving process (fast path or just-resumed), so
     [cur_id] attributes the receive correctly. *)
  let got mb (msg, v) =
    (match mb.sim.monitor with
    | Some f -> f (M_recv { proc = cur_id mb.sim; mailbox = mb.mbid; msg })
    | None -> ());
    v

  let try_recv mb =
    match Queue.take_opt mb.queue with
    | Some p -> Some (got mb p)
    | None -> None

  let recv mb =
    match Queue.take_opt mb.queue with
    | Some p -> got mb p
    | None ->
      got mb
        (suspend mb.sim (fun waker -> mb.waiters <- mb.waiters @ [ waker ]))

  let recv_timeout mb d =
    match Queue.take_opt mb.queue with
    | Some p -> Some (got mb p)
    | None -> (
      match
        suspend_full mb.sim (fun waker live ->
            let deliver p = waker (Some p) in
            mb.waiters <- mb.waiters @ [ deliver ];
            schedule_event mb.sim ~at:(!(mb.sim.clock) +. d) ~live (fun () ->
                ignore (waker None)))
      with
      | Some p -> Some (got mb p)
      | None -> None)

  let length mb = Queue.length mb.queue
end

module Semaphore = struct
  type sem = {
    sim : t;
    sid : int;
    mutable count : int;
    mutable waiters : (unit -> bool) list;
  }

  let create sim count =
    if count < 0 then invalid_arg "Semaphore.create";
    { sim; sid = obj_id sim; count; waiters = [] }

  let acquired s =
    match s.sim.monitor with
    | Some f -> f (M_sem_acquire { proc = cur_id s.sim; sem = s.sid })
    | None -> ()

  let acquire s =
    if s.count > 0 then begin
      s.count <- s.count - 1;
      acquired s
    end
    else begin
      suspend s.sim (fun waker -> s.waiters <- s.waiters @ [ waker ]);
      acquired s
    end

  let try_acquire s =
    if s.count > 0 then begin
      s.count <- s.count - 1;
      acquired s;
      true
    end
    else false

  let rec wake_one s = function
    | [] ->
      s.waiters <- [];
      s.count <- s.count + 1
    | w :: rest -> if w () then s.waiters <- rest else wake_one s rest

  let release s =
    (match s.sim.monitor with
    | Some f -> f (M_sem_release { proc = cur_id s.sim; sem = s.sid })
    | None -> ());
    wake_one s s.waiters

  let available s = s.count

  let with_acquire s f =
    acquire s;
    Fun.protect ~finally:(fun () -> release s) f
end

module Condition = struct
  type cond = { sim : t; mutable waiters : (bool -> bool) list }

  let create sim = { sim; waiters = [] }

  let wait c =
    let signalled =
      suspend c.sim (fun waker -> c.waiters <- c.waiters @ [ waker ])
    in
    ignore (signalled : bool)

  let wait_timeout c d =
    suspend_full c.sim (fun waker live ->
        c.waiters <- c.waiters @ [ waker ];
        schedule_event c.sim ~at:(!(c.sim.clock) +. d) ~live (fun () ->
            ignore (waker false)))

  let rec wake_one c = function
    | [] -> c.waiters <- []
    | w :: rest -> if w true then c.waiters <- rest else wake_one c rest

  let signal c = wake_one c c.waiters

  let broadcast c =
    let ws = c.waiters in
    c.waiters <- [];
    List.iter (fun w -> ignore (w true)) ws

  let waiters c =
    (* Timed-out entries linger until skimmed; count only live ones is
       not observable, so report the raw queue length. *)
    List.length c.waiters
end

module Ivar = struct
  type 'a ivar = {
    sim : t;
    ivid : int;
    mutable value : 'a option;
    mutable waiters : ('a -> bool) list;
  }

  let create sim = { sim; ivid = obj_id sim; value = None; waiters = [] }

  let peek iv = iv.value

  let is_filled iv = match iv.value with Some _ -> true | None -> false

  let fill iv v =
    let double = is_filled iv in
    (match iv.sim.monitor with
    | Some f ->
      f (M_ivar_fill { proc = cur_id iv.sim; ivar = iv.ivid; double })
    | None -> ());
    match iv.value with
    | Some _ -> invalid_arg "Sim.Ivar.fill: already filled"
    | None ->
      iv.value <- Some v;
      let ws = iv.waiters in
      iv.waiters <- [];
      List.iter (fun w -> ignore (w v)) ws

  let read iv =
    let v =
      match iv.value with
      | Some v -> v
      | None ->
        suspend iv.sim (fun waker -> iv.waiters <- iv.waiters @ [ waker ])
    in
    (match iv.sim.monitor with
    | Some f -> f (M_ivar_read { proc = cur_id iv.sim; ivar = iv.ivid })
    | None -> ());
    v
end

(* Instrumented shared state: the unit of cross-process mutable state
   the sanitizer can see. A cell is just a mutable box whose reads and
   writes emit monitor events; with no monitor attached each access is
   one match on [None]. [Data] cells promise "every pair of accesses is
   ordered by happens-before or guarded by a common lock" and are
   race-checked pairwise; [Sync] cells are coordination state that is
   lock-free by design in a cooperative simulator (lock tables, request
   dedup maps, cache pools) — their accesses are counted but exempt
   from pairwise reports, with protocol monitors covering them
   instead. *)
module Cell = struct
  type 'a cell = {
    sim : t;
    cid : int;
    cname : string;
    crole : cell_role;
    mutable v : 'a;
  }

  let create ?(role = Data) ?name sim v =
    let cid = obj_id sim in
    let cname =
      match name with Some n -> n | None -> Printf.sprintf "cell#%d" cid
    in
    (match sim.monitor with
    | Some f -> f (M_cell_created { cell = cid; name = cname; role })
    | None -> ());
    { sim; cid; cname; crole = role; v }

  let name c = c.cname

  let get c =
    (match c.sim.monitor with
    | Some f ->
      f (M_cell_read { proc = cur_id c.sim; cell = c.cid; role = c.crole })
    | None -> ());
    c.v

  let peek c = c.v

  let set c v =
    (match c.sim.monitor with
    | Some f ->
      f (M_cell_write { proc = cur_id c.sim; cell = c.cid; role = c.crole })
    | None -> ());
    c.v <- v

  let update c f =
    (match c.sim.monitor with
    | Some g ->
      g (M_cell_read { proc = cur_id c.sim; cell = c.cid; role = c.crole });
      g (M_cell_write { proc = cur_id c.sim; cell = c.cid; role = c.crole })
    | None -> ());
    c.v <- f c.v
end
