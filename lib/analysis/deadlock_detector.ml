module Sim = Rhodos_sim.Sim
module Lm = Rhodos_txn.Lock_manager
module Counter = Rhodos_util.Stats.Counter

type t = {
  lm : Lm.t;
  counters : Counter.t;
  mutable last_cycle : int list option;
}

let classify_suspect t txn =
  Counter.incr t.counters "suspects";
  let graph = Waits_for.of_edges (Lm.waits_for_edges t.lm) in
  match Waits_for.cycle_through graph txn with
  | Some cycle ->
    t.last_cycle <- Some cycle;
    Counter.incr t.counters "true_deadlocks"
  | None -> Counter.incr t.counters "false_aborts"

let on_event t = function
  | Lm.Lock_event { lm; ev } when lm == t.lm -> (
    match ev with
    | Lm.Ev_blocked _ -> Counter.incr t.counters "blocks_observed"
    | Lm.Ev_granted _ -> Counter.incr t.counters "grants_observed"
    | Lm.Ev_cancelled _ -> Counter.incr t.counters "cancels_observed"
    | Lm.Ev_released _ -> ()
    | Lm.Ev_suspected { txn } -> classify_suspect t txn)
  | _ -> ()

let attach lm =
  let t = { lm; counters = Counter.create (); last_cycle = None } in
  ignore (Sim.subscribe (Lm.sim lm) (on_event t));
  t

let stats t = t.counters

let last_cycle t = t.last_cycle

let snapshot t = Waits_for.of_edges (Lm.waits_for_edges t.lm)

let check_now t = Waits_for.find_cycle (snapshot t)

let true_deadlocks t = Counter.get t.counters "true_deadlocks"

let false_aborts t = Counter.get t.counters "false_aborts"

let pp_stats fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%-18s %d@ " name v)
    (Counter.to_list t.counters);
  Format.fprintf fmt "@]"
