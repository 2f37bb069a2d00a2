module Sim = Rhodos_sim.Sim
module Counter = Rhodos_util.Stats.Counter

type mode = Read_only | Iread | Iwrite

type item =
  | File_item of int
  | Page_item of int * int
  | Record_item of int * int * int

let mode_to_string = function
  | Read_only -> "read-only"
  | Iread -> "Iread"
  | Iwrite -> "Iwrite"

let mode_rank = function Read_only -> 0 | Iread -> 1 | Iwrite -> 2

let item_to_string = function
  | File_item f -> Printf.sprintf "file:%d" f
  | Page_item (f, p) -> Printf.sprintf "page:%d.%d" f p
  | Record_item (f, o, l) -> Printf.sprintf "record:%d.%d+%d" f o l

let items_conflict a b =
  match (a, b) with
  | File_item f1, File_item f2 -> f1 = f2
  | Page_item (f1, p1), Page_item (f2, p2) -> f1 = f2 && p1 = p2
  | Record_item (f1, o1, l1), Record_item (f2, o2, l2) ->
    f1 = f2 && o1 < o2 + l2 && o2 < o1 + l1
  | (File_item _ | Page_item _ | Record_item _), _ -> false

exception Wait_cancelled of int

type config = {
  lt_ms : float;
  max_renewals : int;
  search_cost_ms : float;
  cross_level : bool;
}

let default_config =
  { lt_ms = 200.; max_renewals = 5; search_cost_ms = 0.002; cross_level = false }

let page_bytes = 8192

(* Conflicts between items of DIFFERENT locking levels on the same
   file — the relaxation of the paper's "a file cannot be subjected to
   more than one level of locking" assumption. A file-level item
   conflicts with anything on the file; a page conflicts with a record
   whose byte range intersects the page. *)
let items_conflict_cross a b =
  match (a, b) with
  | File_item f, (Page_item (f', _) | Record_item (f', _, _))
  | (Page_item (f', _) | Record_item (f', _, _)), File_item f ->
    f = f'
  | Page_item (f, p), Record_item (f', o, l) | Record_item (f', o, l), Page_item (f, p)
    ->
    f = f' && o < (p + 1) * page_bytes && p * page_bytes < o + l
  | (File_item _ | Page_item _ | Record_item _), _ -> false

type grant = {
  g_txn : int;
  g_item : item;
  mutable g_mode : mode;
  mutable g_renewals : int;
  mutable g_active : bool;
}

type wait_outcome = Granted | Cancelled

type waiter = {
  w_txn : int;
  w_item : item;
  w_mode : mode;
  w_upgrade : bool;
  w_waker : wait_outcome -> bool;
}

type table = { mutable grants : grant list; mutable waiters : waiter list }

(* Instrumentation events, for the analysis layer's stream consumers.
   Emitted synchronously at the state change, so a consumer reading
   [waits_for_edges] from inside its callback sees the lock tables in
   the state the event describes. *)
type event =
  | Ev_blocked of { txn : int; item : item; mode : mode }
  | Ev_granted of { txn : int; item : item; mode : mode }
  | Ev_cancelled of { txn : int }
  | Ev_released of { txn : int }
  | Ev_suspected of { txn : int }

(* The lock tables and the shrink-phase set are cross-process shared
   state, held in instrumented [Sim.Cell]s so the sanitizer observes
   every access. [Sync] role: the tables are the synchronization
   mechanism itself — protocol monitors (Table 1 on every grant, 2PL
   phases) check them, not the pairwise race pass. *)
type t = {
  sim : Sim.t;
  config : config;
  on_suspect : txn:int -> unit;
  record_table : table Sim.Cell.cell;
  page_table : table Sim.Cell.cell;
  file_table : table Sim.Cell.cell;
  released : (int, unit) Hashtbl.t Sim.Cell.cell;
      (* transactions past their shrink phase *)
  counters : Counter.t;
}

type Sim.mon_event += Lock_event of { lm : t; ev : event }

let create ?(config = default_config) ~sim ~on_suspect () =
  let table name =
    Sim.Cell.create ~role:Sim.Sync ~name sim { grants = []; waiters = [] }
  in
  {
    sim;
    config;
    on_suspect;
    record_table = table "lock:record-table";
    page_table = table "lock:page-table";
    file_table = table "lock:file-table";
    released =
      Sim.Cell.create ~role:Sim.Sync ~name:"lock:released" sim
        (Hashtbl.create 32);
    counters = Counter.create ();
  }

(* Read / mutate a table through its cell. [mut] mutates the record in
   place under an [update] so the access registers as a write. *)
let tbl tc = Sim.Cell.get tc

let mut tc f =
  Sim.Cell.update tc (fun tb ->
      f tb;
      tb)

let sim t = t.sim

(* Callers test [Sim.observed] first, so no event is built unheard. *)
let emit t ev = Sim.emit t.sim (Lock_event { lm = t; ev })

let table_of t = function
  | Record_item _ -> t.record_table
  | Page_item _ -> t.page_table
  | File_item _ -> t.file_table

let all_tables t = [ t.record_table; t.page_table; t.file_table ]

(* Which tables can hold conflicting records: only the item's own
   level normally, every level under the cross-level relaxation. *)
let relevant_tables t item =
  if t.config.cross_level then all_tables t else [ table_of t item ]

let conflicts t a b =
  items_conflict a b || (t.config.cross_level && items_conflict_cross a b)

let stats t = t.counters

(* Simulated lock-table search cost: proportional to the records
   examined, so coarse levels with "fewer locks to manage" really are
   cheaper, as section 6.5 argues. *)
let charge_search t tc =
  let table = tbl tc in
  let scanned = List.length table.grants + List.length table.waiters in
  let cost = t.config.search_cost_ms *. float_of_int scanned in
  if cost > 0. then Sim.sleep t.sim cost

(* Can [txn] hold [item] in [mode] given the other active grants?
   A transaction never conflicts with itself. *)
let compatible_with_others t ~txn ~item ~mode =
  let others =
    List.concat_map
      (fun tc ->
        List.filter
          (fun g -> g.g_active && g.g_txn <> txn && conflicts t g.g_item item)
          (tbl tc).grants)
      (relevant_tables t item)
  in
  match mode with
  | Read_only | Iread ->
    (* New RO is refused once an IR is in place; IR additionally
       requires that no other IR exists. Both are the same check:
       every conflicting holder must be a plain reader. *)
    List.for_all (fun g -> g.g_mode = Read_only) others
  | Iwrite -> others = []

let self_grant table ~txn ~item =
  List.find_opt
    (fun g -> g.g_active && g.g_txn = txn && g.g_item = item)
    table.grants

(* The current waits-for relation, one edge per (waiter, blocker)
   pair. A waiter waits for (a) every other transaction holding a
   conflicting grant and (b) every transaction queued ahead of it in
   the same table — [pump] wakes strictly in FIFO order, so a waiter
   cannot be granted while any earlier waiter is still queued
   (head-of-line blocking is real waiting). *)
let waits_for_edges t =
  let edges_of_table tc =
    let rec walk ahead acc = function
      | [] -> acc
      | w :: rest ->
        let holders =
          List.concat_map
            (fun tblc ->
              List.filter_map
                (fun g ->
                  if g.g_active && g.g_txn <> w.w_txn && conflicts t g.g_item w.w_item
                  then Some g.g_txn
                  else None)
                (tbl tblc).grants)
            (relevant_tables t w.w_item)
        in
        let blockers = List.sort_uniq compare (holders @ ahead) in
        let acc = List.rev_append (List.map (fun b -> (w.w_txn, b)) blockers) acc in
        let ahead = if List.mem w.w_txn ahead then ahead else w.w_txn :: ahead in
        walk ahead acc rest
    in
    walk [] [] (tbl tc).waiters
  in
  List.concat_map edges_of_table (all_tables t) |> List.sort_uniq compare

(* Snapshot of every active grant, for the sanitizer's Table 1 check
   on each grant event. [peek]s the cells: an analysis read must not
   itself register as an access. *)
let active_grants t =
  List.concat_map
    (fun tc ->
      List.filter_map
        (fun g ->
          if g.g_active then Some (g.g_txn, g.g_item, g.g_mode) else None)
        (Sim.Cell.peek tc).grants)
    (all_tables t)

(* ------------------------------------------------------------------ *)
(* Lease timers (section 6.4)                                          *)
(* ------------------------------------------------------------------ *)

let rec arm_lease t table g =
  Sim.schedule_cancellable t.sim
    ~at:(Sim.now t.sim +. t.config.lt_ms)
    ~live:(fun () -> g.g_active)
    (fun () ->
      if g.g_active then begin
        let contested =
          List.exists
            (fun tblc ->
              List.exists
                (fun w -> conflicts t w.w_item g.g_item)
                (tbl tblc).waiters)
            (relevant_tables t g.g_item)
        in
        if g.g_renewals >= t.config.max_renewals then begin
          Counter.incr t.counters "breaks_expired";
          suspect t g
        end
        else if contested then begin
          Counter.incr t.counters "breaks_contested";
          suspect t g
        end
        else begin
          g.g_renewals <- g.g_renewals + 1;
          Counter.incr t.counters "renewals";
          arm_lease t table g
        end
      end)

and suspect t g =
  (* The holder is suspected deadlocked; the callback aborts the
     transaction, which releases its locks and wakes the queue. Run it
     in its own process: it may block (logging the abort). The tracer
     sees the event first, while the waiters that triggered the break
     are still queued — a deadlock detector can classify the suspicion
     as true deadlock vs false abort from the waits-for graph. *)
  if Sim.observed t.sim then emit t (Ev_suspected { txn = g.g_txn });
  ignore
    (Sim.spawn ~name:"lock-suspect" t.sim (fun () -> t.on_suspect ~txn:g.g_txn))

let add_grant t tc ~txn ~item ~mode =
  let g = { g_txn = txn; g_item = item; g_mode = mode; g_renewals = 0; g_active = true } in
  mut tc (fun tb -> tb.grants <- tb.grants @ [ g ]);
  Counter.incr t.counters "grants";
  arm_lease t tc g

(* Wake waiters in FIFO order, stopping at the first that still
   cannot be granted — strict FIFO prevents reader streams from
   starving writers. *)
let rec pump t tc =
  match (tbl tc).waiters with
  | [] -> ()
  | w :: rest ->
    let self = self_grant (tbl tc) ~txn:w.w_txn ~item:w.w_item in
    let ok = compatible_with_others t ~txn:w.w_txn ~item:w.w_item ~mode:w.w_mode in
    if not ok then ()
    else begin
      mut tc (fun tb -> tb.waiters <- rest);
      (match self with
      | Some g when mode_rank w.w_mode > mode_rank g.g_mode ->
        mut tc (fun _ ->
            g.g_mode <- w.w_mode;
            g.g_renewals <- 0);
        Counter.incr t.counters "conversions"
      | Some _ -> ()
      | None -> add_grant t tc ~txn:w.w_txn ~item:w.w_item ~mode:w.w_mode);
      let mode = match self with Some g -> g.g_mode | None -> w.w_mode in
      if Sim.observed t.sim then
        emit t (Ev_granted { txn = w.w_txn; item = w.w_item; mode });
      ignore (w.w_waker Granted);
      pump t tc
    end

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

let note_2pl t ~txn =
  if Hashtbl.mem (Sim.Cell.get t.released) txn then
    Counter.incr t.counters "2pl_violations"

let acquire t ~txn item mode =
  Counter.incr t.counters "acquires";
  note_2pl t ~txn;
  let tc = table_of t item in
  charge_search t tc;
  match self_grant (tbl tc) ~txn ~item with
  | Some g when mode_rank mode <= mode_rank g.g_mode -> () (* already strong enough *)
  | self -> (
    let can_upgrade_now = compatible_with_others t ~txn ~item ~mode in
    match self with
    | Some g when can_upgrade_now ->
      mut tc (fun _ ->
          g.g_mode <- mode;
          g.g_renewals <- 0);
      Counter.incr t.counters "conversions";
      if Sim.observed t.sim then emit t (Ev_granted { txn; item; mode })
    | None when can_upgrade_now ->
      add_grant t tc ~txn ~item ~mode;
      if Sim.observed t.sim then emit t (Ev_granted { txn; item; mode })
    | _ ->
      Counter.incr t.counters "waits";
      let outcome =
        Sim.suspend t.sim (fun waker ->
            let w =
              {
                w_txn = txn;
                w_item = item;
                w_mode = mode;
                w_upgrade = self <> None;
                w_waker = waker;
              }
            in
            (* Conversions queue ahead of fresh requests so an
               upgrader is not starved by arrivals behind it. *)
            if w.w_upgrade then
              mut tc (fun tb ->
                  let upgrades, rest =
                    List.partition (fun x -> x.w_upgrade) tb.waiters
                  in
                  tb.waiters <- upgrades @ [ w ] @ rest)
            else mut tc (fun tb -> tb.waiters <- tb.waiters @ [ w ]);
            if Sim.observed t.sim then emit t (Ev_blocked { txn; item; mode }))
      in
      match outcome with
      | Granted -> ()
      | Cancelled -> raise (Wait_cancelled txn))

let try_acquire t ~txn item mode =
  Counter.incr t.counters "acquires";
  note_2pl t ~txn;
  let tc = table_of t item in
  charge_search t tc;
  match self_grant (tbl tc) ~txn ~item with
  | Some g when mode_rank mode <= mode_rank g.g_mode -> true
  | self ->
    if compatible_with_others t ~txn ~item ~mode then begin
      (match self with
      | Some g ->
        mut tc (fun _ ->
            g.g_mode <- mode;
            g.g_renewals <- 0);
        Counter.incr t.counters "conversions"
      | None -> add_grant t tc ~txn ~item ~mode);
      if Sim.observed t.sim then emit t (Ev_granted { txn; item; mode });
      true
    end
    else false

let release_all t ~txn =
  Sim.Cell.update t.released (fun h ->
      Hashtbl.replace h txn ();
      h);
  let released_any = ref false in
  List.iter
    (fun tc ->
      let mine, rest =
        List.partition (fun g -> g.g_txn = txn) (tbl tc).grants
      in
      List.iter (fun g -> g.g_active <- false) mine;
      mut tc (fun tb -> tb.grants <- rest);
      if mine <> [] then begin
        released_any := true;
        pump t tc
      end)
    (all_tables t);
  if !released_any && Sim.observed t.sim then emit t (Ev_released { txn });
  (* Under the cross-level relaxation, a release in one table can
     unblock waiters queued in another. *)
  if !released_any && t.config.cross_level then List.iter (pump t) (all_tables t)

let cancel_waits t ~txn =
  List.iter
    (fun tc ->
      let mine, rest =
        List.partition (fun w -> w.w_txn = txn) (tbl tc).waiters
      in
      mut tc (fun tb -> tb.waiters <- rest);
      List.iter
        (fun w ->
          if Sim.observed t.sim then emit t (Ev_cancelled { txn = w.w_txn });
          ignore (w.w_waker Cancelled))
        mine;
      (* Removing a waiter may unblock the queue behind it. *)
      if mine <> [] then pump t tc)
    (all_tables t)

let holds t ~txn item =
  Option.map (fun g -> g.g_mode) (self_grant (tbl (table_of t item)) ~txn ~item)

(* The remaining accessors are reporting paths (metrics, invariants):
   [peek], so collection does not register as accesses. *)

let held_count t ~txn =
  List.fold_left
    (fun acc tc ->
      acc
      + List.length
          (List.filter (fun g -> g.g_txn = txn) (Sim.Cell.peek tc).grants))
    0 (all_tables t)

let waiter_count t =
  List.fold_left
    (fun acc tc -> acc + List.length (Sim.Cell.peek tc).waiters)
    0 (all_tables t)

let table_size t level =
  let table =
    Sim.Cell.peek
      (match level with
      | `Record -> t.record_table
      | `Page -> t.page_table
      | `File -> t.file_table)
  in
  List.length table.grants + List.length table.waiters
