module Sim = Rhodos_sim.Sim
module Trace = Rhodos_obs.Trace
module Lm = Rhodos_txn.Lock_manager
module Cache = Rhodos_cache.Buffer_cache

type access = {
  acc_time : float;
  acc_proc : int;
  acc_proc_name : string;
  acc_cell : int;
  acc_cell_name : string;
  acc_write : bool;
  acc_clock : Vclock.t;
  acc_locks : string list;
  acc_span : (int * int) option;
}

type violation = { v_kind : string; v_detail : string; v_time : float }

type cell_state = {
  mutable last_write : access option;
  mutable reads_since : access list;  (* reads since [last_write] *)
}

type t = {
  sim : Sim.t;
  tracer : Trace.t option;
  clocks : (int, Vclock.t) Hashtbl.t;  (* per-process vector clock *)
  msgs : (int * int, Vclock.t) Hashtbl.t;  (* (mailbox, msg) -> sender clock *)
  ivars : (int, Vclock.t) Hashtbl.t;
  sems : (int, Vclock.t) Hashtbl.t;  (* accumulated release clocks *)
  item_clocks : (string, Vclock.t) Hashtbl.t;  (* lock item -> release clock *)
  proc_names : (int, string) Hashtbl.t;
  cell_names : (int, string) Hashtbl.t;
  cells : (int, cell_state) Hashtbl.t;  (* Data cells only *)
  txn_proc : (int, int) Hashtbl.t;  (* txn -> owning process *)
  txn_locks : (int, (Lm.item * Lm.mode) list) Hashtbl.t;
  released_txns : (int, unit) Hashtbl.t;  (* txns past their shrink point *)
  reported : (string, unit) Hashtbl.t;  (* (object, kind) dedup keys *)
  mutable token : Rhodos_util.Event_bus.token option;
  mutable filters : (Sim.mon_event -> unit) list;
      (* one per attached lock manager / cache, each ignoring the
         events of every other instance *)
  mutable viols : violation list;  (* newest first *)
  mutable accs : access list;  (* newest first *)
  mutable n_events : int;  (* primitive events processed (A5's work proxy) *)
}

let clock_of t p =
  match Hashtbl.find_opt t.clocks p with Some c -> c | None -> Vclock.empty

let tick t p =
  if p >= 0 then Hashtbl.replace t.clocks p (Vclock.tick (clock_of t p) p)

let join t p c =
  if p >= 0 then Hashtbl.replace t.clocks p (Vclock.merge (clock_of t p) c)

let proc_name t p =
  if p < 0 then "(outside any process)"
  else
    match Hashtbl.find_opt t.proc_names p with
    | Some n -> Printf.sprintf "%s(#%d)" n p
    | None -> Printf.sprintf "proc#%d" p

let cell_name t c =
  match Hashtbl.find_opt t.cell_names c with
  | Some n -> n
  | None -> Printf.sprintf "cell#%d" c

let report t ~dedup kind detail =
  let key = dedup ^ "/" ^ kind in
  if not (Hashtbl.mem t.reported key) then begin
    Hashtbl.replace t.reported key ();
    t.viols <-
      { v_kind = kind; v_detail = detail; v_time = Sim.now t.sim } :: t.viols
  end

(* Items held at an access: union over the transactions bound to the
   process. Sorted so reports are stable. *)
let held_items t p =
  Hashtbl.fold
    (fun txn proc acc ->
      if proc <> p then acc
      else
        match Hashtbl.find_opt t.txn_locks txn with
        | Some items ->
          List.fold_left
            (fun acc (it, _) -> Lm.item_to_string it :: acc)
            acc items
        | None -> acc)
    t.txn_proc []
  |> List.sort_uniq compare

let describe_access a =
  Printf.sprintf "%s by %s at t=%.3f clock %s locks [%s]%s"
    (if a.acc_write then "write" else "read")
    a.acc_proc_name a.acc_time
    (Vclock.to_string a.acc_clock)
    (String.concat " " a.acc_locks)
    (match a.acc_span with
    | Some (tr, sp) -> Printf.sprintf " span %d.%d" tr sp
    | None -> "")

let cell_state_of t cell =
  match Hashtbl.find_opt t.cells cell with
  | Some st -> st
  | None ->
    let st = { last_write = None; reads_since = [] } in
    Hashtbl.replace t.cells cell st;
    st

let on_data_access t ~proc ~cell ~write =
  tick t proc;
  let acc =
    {
      acc_time = Sim.now t.sim;
      acc_proc = proc;
      acc_proc_name = proc_name t proc;
      acc_cell = cell;
      acc_cell_name = cell_name t cell;
      acc_write = write;
      acc_clock = clock_of t proc;
      acc_locks = held_items t proc;
      acc_span =
        (match t.tracer with
        | Some tr -> (
          match Trace.current tr with
          | Some c -> Some (Trace.context_ids c)
          | None -> None)
        | None -> None);
    }
  in
  t.accs <- acc :: t.accs;
  let st = cell_state_of t cell in
  (* Happens-before pass: the access conflicts with a prior one when
     they come from different processes, at least one writes, and the
     prior clock is not <= the current one (tick-then-join makes <=
     exactly happens-before here). *)
  let conflicts prev =
    prev.acc_proc <> proc
    && (write || prev.acc_write)
    && not (Vclock.leq prev.acc_clock acc.acc_clock)
  in
  let racy =
    match st.last_write with
    | Some w when conflicts w -> Some w
    | _ -> if write then List.find_opt conflicts st.reads_since else None
  in
  (match racy with
  | Some prev ->
    report t
      ~dedup:(Printf.sprintf "cell:%d" cell)
      "data-race"
      (Printf.sprintf "%s: %s is concurrent with %s" acc.acc_cell_name
         (describe_access prev) (describe_access acc))
  | None -> ());
  if write then begin
    st.last_write <- Some acc;
    st.reads_since <- []
  end
  else st.reads_since <- acc :: st.reads_since

(* The simulator-primitive events: vector-clock edges and Data-cell
   accesses. *)
let primitive t (ev : Sim.mon_event) =
  match ev with
  | Sim.M_spawn { parent; child; name } ->
    Hashtbl.replace t.proc_names child name;
    tick t parent;
    join t child (clock_of t parent);
    tick t child
  | Sim.M_wake { by; target } ->
    if by >= 0 then begin
      tick t by;
      join t target (clock_of t by)
    end
  | Sim.M_send { proc; mailbox; msg } ->
    tick t proc;
    Hashtbl.replace t.msgs (mailbox, msg) (clock_of t proc)
  | Sim.M_recv { proc; mailbox; msg } ->
    tick t proc;
    (match Hashtbl.find_opt t.msgs (mailbox, msg) with
    | Some c ->
      join t proc c;
      Hashtbl.remove t.msgs (mailbox, msg)
    | None -> ())
  | Sim.M_ivar_fill { proc; ivar; double } ->
    if double then
      report t
        ~dedup:(Printf.sprintf "ivar:%d" ivar)
        "ivar-double-fill"
        (Printf.sprintf "ivar #%d filled twice; second fill by %s at t=%.3f"
           ivar (proc_name t proc) (Sim.now t.sim));
    tick t proc;
    let prev =
      Option.value ~default:Vclock.empty (Hashtbl.find_opt t.ivars ivar)
    in
    Hashtbl.replace t.ivars ivar (Vclock.merge prev (clock_of t proc))
  | Sim.M_ivar_read { proc; ivar } ->
    tick t proc;
    (match Hashtbl.find_opt t.ivars ivar with
    | Some c -> join t proc c
    | None -> ())
  | Sim.M_sem_acquire { proc; sem } ->
    tick t proc;
    (match Hashtbl.find_opt t.sems sem with
    | Some c -> join t proc c
    | None -> ())
  | Sim.M_sem_release { proc; sem } ->
    tick t proc;
    let prev =
      Option.value ~default:Vclock.empty (Hashtbl.find_opt t.sems sem)
    in
    Hashtbl.replace t.sems sem (Vclock.merge prev (clock_of t proc))
  | Sim.M_cell_created { cell; name; role = _ } ->
    Hashtbl.replace t.cell_names cell name
  | Sim.M_cell_read { proc; cell; role } -> (
    match role with
    | Sim.Data -> on_data_access t ~proc ~cell ~write:false
    | Sim.Sync -> ())
  | Sim.M_cell_write { proc; cell; role } -> (
    match role with
    | Sim.Data -> on_data_access t ~proc ~cell ~write:true
    | Sim.Sync -> ())
  | _ -> ()

(* Table 1: on a grant to [txn], every conflicting active grant of
   another transaction must be compatible — read-only locks share with
   each other and with at most one Iread; Iwrite shares with
   nothing. *)
let mode_incompatible m1 m2 =
  match (m1, m2) with
  | Lm.Iwrite, _ | _, Lm.Iwrite -> true
  | Lm.Iread, Lm.Iread -> true
  | _ -> false

let own_grants t =
  Hashtbl.fold
    (fun txn items acc ->
      List.fold_left (fun acc (it, m) -> (txn, it, m) :: acc) acc items)
    t.txn_locks []
  |> List.sort compare

let check_table1 t ~grants ~txn ~item ~mode =
  List.iter
    (fun (txn', item', mode') ->
      if txn' <> txn && Lm.items_conflict item item'
         && mode_incompatible mode mode'
      then
        report t
          ~dedup:(Printf.sprintf "item:%s" (Lm.item_to_string item))
          "table1"
          (Printf.sprintf
             "incompatible grants on %s: txn %d holds %s while txn %d holds \
              %s on %s"
             (Lm.item_to_string item) txn (Lm.mode_to_string mode) txn'
             (Lm.mode_to_string mode') (Lm.item_to_string item')))
    grants

let lock_event t ~grants (ev : Lm.event) =
  match ev with
  | Ev_blocked { txn; _ } ->
    let p = Sim.current_proc_id t.sim in
    if p >= 0 && not (Hashtbl.mem t.txn_proc txn) then
      Hashtbl.replace t.txn_proc txn p
  | Ev_granted { txn; item; mode } ->
    let p =
      match Hashtbl.find_opt t.txn_proc txn with
      | Some p -> p
      | None ->
        let p = Sim.current_proc_id t.sim in
        if p >= 0 then Hashtbl.replace t.txn_proc txn p;
        p
    in
    if Hashtbl.mem t.released_txns txn then
      report t
        ~dedup:(Printf.sprintf "txn:%d" txn)
        "2pl"
        (Printf.sprintf
           "txn %d granted %s on %s after release_all (growing after the \
            shrink phase)"
           txn (Lm.mode_to_string mode) (Lm.item_to_string item));
    let held = Option.value ~default:[] (Hashtbl.find_opt t.txn_locks txn) in
    (match List.find_opt (fun (it, _) -> it = item) held with
    | Some (_, m) when Lm.mode_rank mode <= Lm.mode_rank m ->
      report t
        ~dedup:(Printf.sprintf "txn:%d:%s" txn (Lm.item_to_string item))
        "double-acquire"
        (Printf.sprintf "txn %d re-granted %s on %s while already holding %s"
           txn (Lm.mode_to_string mode) (Lm.item_to_string item)
           (Lm.mode_to_string m))
    | _ -> ());
    check_table1 t ~grants:(grants ()) ~txn ~item ~mode;
    Hashtbl.replace t.txn_locks txn
      ((item, mode) :: List.filter (fun (it, _) -> it <> item) held);
    if p >= 0 then begin
      tick t p;
      match Hashtbl.find_opt t.item_clocks (Lm.item_to_string item) with
      | Some c -> join t p c
      | None -> ()
    end
  | Ev_released { txn } ->
    (match Hashtbl.find_opt t.txn_locks txn with
    | None | Some [] ->
      report t
        ~dedup:(Printf.sprintf "txn:%d" txn)
        "release-without-hold"
        (Printf.sprintf "txn %d released with no lock recorded as held" txn)
    | Some items ->
      let p =
        match Hashtbl.find_opt t.txn_proc txn with
        | Some p -> p
        | None -> Sim.current_proc_id t.sim
      in
      if p >= 0 then begin
        tick t p;
        let c = clock_of t p in
        List.iter
          (fun (it, _) ->
            let key = Lm.item_to_string it in
            let prev =
              Option.value ~default:Vclock.empty
                (Hashtbl.find_opt t.item_clocks key)
            in
            Hashtbl.replace t.item_clocks key (Vclock.merge prev c))
          items
      end);
    Hashtbl.remove t.txn_locks txn;
    Hashtbl.replace t.released_txns txn ()
  | Ev_cancelled _ | Ev_suspected _ -> ()

(* The one subscription: primitive events drive the passes (and are
   what [events_seen] counts); every other event goes to the
   per-instance filters of the attached lock managers and caches. *)
let on_event t (ev : Sim.mon_event) =
  match ev with
  | Sim.M_spawn _ | Sim.M_wake _ | Sim.M_send _ | Sim.M_recv _
  | Sim.M_ivar_fill _ | Sim.M_ivar_read _ | Sim.M_sem_acquire _
  | Sim.M_sem_release _ | Sim.M_cell_created _ | Sim.M_cell_read _
  | Sim.M_cell_write _ ->
    t.n_events <- t.n_events + 1;
    primitive t ev
  | _ -> List.iter (fun f -> f ev) t.filters

let create ?tracer sim =
  let t =
    {
      sim;
      tracer;
      clocks = Hashtbl.create 32;
      msgs = Hashtbl.create 64;
      ivars = Hashtbl.create 32;
      sems = Hashtbl.create 16;
      item_clocks = Hashtbl.create 32;
      proc_names = Hashtbl.create 32;
      cell_names = Hashtbl.create 16;
      cells = Hashtbl.create 16;
      txn_proc = Hashtbl.create 16;
      txn_locks = Hashtbl.create 16;
      released_txns = Hashtbl.create 16;
      reported = Hashtbl.create 8;
      token = None;
      filters = [];
      viols = [];
      accs = [];
      n_events = 0;
    }
  in
  t.token <- Some (Sim.subscribe sim (on_event t));
  t

let attach_lock_manager t lm =
  t.filters <-
    (function
      | Lm.Lock_event { lm = from; ev } when from == lm ->
        lock_event t ~grants:(fun () -> Lm.active_grants lm) ev
      | _ -> ())
    :: t.filters

let attach_cache (type k) t ~name ~(key_to_string : k -> string)
    (cache : k Cache.t) =
  let filter : Sim.mon_event -> unit = function
    | Cache.Batch_written { cache = from; key; stale = true } -> (
      match Cache.same cache from with
      | Some Type.Equal ->
        report t
          ~dedup:(Printf.sprintf "cache:%s:%s" name (key_to_string key))
          "use-after-evict"
          (Printf.sprintf
             "cache %s: batch writeback persisted buffer %s after it was \
              evicted or replaced mid-batch (stale snapshot can clobber \
              newer durable bytes)"
             name (key_to_string key))
      | None -> ())
    | _ -> ()
  in
  t.filters <- filter :: t.filters

let feed_lock_event t ev = lock_event t ~grants:(fun () -> own_grants t) ev

let violations t = List.rev t.viols

let events_seen t = t.n_events

let accesses t = List.rev t.accs

let detach t =
  Option.iter (Sim.unsubscribe t.sim) t.token;
  t.token <- None;
  t.filters <- []
