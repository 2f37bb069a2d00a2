module Sim = Rhodos_sim.Sim
module Schedule = Rhodos_sim.Schedule
module Trace = Rhodos_obs.Trace
module Export = Rhodos_obs.Export

(* ------------------------------------------------------------------ *)
(* Shared run construction                                             *)
(* ------------------------------------------------------------------ *)

type run = {
  digest : int;
  dispatched : int;
  observation : string;
  audit : Sim.audit;
  choices : (int * int) list;
  schedule : int list;
}

let exec ?until ?(tie = Rhodos_util.Prio_queue.Fifo) ?scheduler ~setup
    ~observe () =
  let sim = Sim.create ~tie_break:tie ~track:true ?scheduler () in
  setup sim;
  Sim.run ?until sim;
  let choices = Sim.choices sim in
  {
    digest = Sim.run_digest sim;
    dispatched = Sim.events_dispatched sim;
    observation = observe sim;
    audit = Sim.audit sim;
    choices;
    schedule = List.map snd choices;
  }

let record_dispatches sim =
  let log = ref [] in
  ignore
    (Sim.subscribe sim (function
      | Sim.M_dispatch { at; proc = -1; _ } -> log := (at, "top") :: !log
      | Sim.M_dispatch { at; proc; name } ->
        log := (at, Printf.sprintf "%s#%d" name proc) :: !log
      | _ -> ()));
  fun () -> List.rev !log

(* ------------------------------------------------------------------ *)
(* Systematic enumeration by deviation                                 *)
(* ------------------------------------------------------------------ *)

let take n l = List.filteri (fun i _ -> i < n) l

type drive_stats = {
  mutable runs : int;
  mutable truncated : bool; (* choice points past max_depth existed *)
  mutable max_cp : int;
  mutable complete : bool; (* worklist drained within the budget *)
}

(* Worklist search over schedule prefixes. The root is the all-FIFO
   run; each executed run contributes, for every choice point at depth
   [>= |prefix|] (positions below are fixed by the prefix) and
   [< max_depth], one candidate per alternative branch: the run's
   choices up to that point, then the alternative. Because positions
   past a prefix replay as FIFO (branch 0) and every candidate ends in
   a nonzero branch, each bounded schedule is generated exactly once.
   [stop] ends the search (e.g. on violation); [expand] gates
   candidate generation (state-digest cache pruning). *)
let drive ~max_depth ~max_runs ~run_prefix ~stop ~expand =
  let queue = Queue.create () in
  Queue.push [] queue;
  let st = { runs = 0; truncated = false; max_cp = 0; complete = false } in
  (try
     while not (Queue.is_empty queue) do
       if st.runs >= max_runs then raise Exit;
       let prefix = Queue.pop queue in
       let r = run_prefix prefix in
       st.runs <- st.runs + 1;
       let ncp = List.length r.choices in
       if ncp > st.max_cp then st.max_cp <- ncp;
       if ncp > max_depth then st.truncated <- true;
       if stop prefix r then raise Exit;
       if expand r then begin
         let arr = Array.of_list r.choices in
         let lim = min (Array.length arr) max_depth in
         let plen = List.length prefix in
         for i = plen to lim - 1 do
           let n_ready, chosen = arr.(i) in
           for alt = 0 to n_ready - 1 do
             if alt <> chosen then Queue.push (take i r.schedule @ [ alt ]) queue
           done
         done
       end
     done;
     st.complete <- true
   with Exit -> ());
  st

let enumerate_schedules ?until ~max_depth ~max_runs ~setup ~observe () =
  let acc = ref [] in
  let run_prefix prefix =
    let r = exec ?until ~scheduler:(Schedule.of_list prefix) ~setup ~observe () in
    acc := r :: !acc;
    r
  in
  let st =
    drive ~max_depth ~max_runs ~run_prefix
      ~stop:(fun _ _ -> false)
      ~expand:(fun _ -> true)
  in
  (List.rev !acc, st.complete && not st.truncated)

(* ------------------------------------------------------------------ *)
(* Scenarios and invariants                                            *)
(* ------------------------------------------------------------------ *)

type invariant = { inv_name : string; inv_check : unit -> string option }

type world = {
  invariants : invariant list;
  tracer : Trace.t option;
  sanitizer : Sanitizer.t option;
  observe : unit -> string;
}

type scenario = {
  sc_name : string;
  sc_descr : string;
  sc_until : float option;
  sc_setup : Sim.t -> world;
}

type bounds = {
  max_depth : int;
  max_runs : int;
  random_walks : int;
  walk_seed : int;
}

let default_bounds =
  { max_depth = 12; max_runs = 4000; random_walks = 64; walk_seed = 0x5eed }

(* One controlled execution of a scenario: build the world, run under
   [scheduler], evaluate its invariants plus the built-in leak check.
   [record] also collects the dispatch log and spans for [replay]. *)
let run_scenario_strat ~record ~scheduler sc =
  let world = ref None in
  let collected = ref None in
  let dispatches = ref (fun () -> []) in
  let setup sim =
    if record then dispatches := record_dispatches sim;
    let w = sc.sc_setup sim in
    if record then begin
      match w.tracer with
      | Some tr -> collected := Some (tr, Trace.collect tr)
      | None -> ()
    end;
    world := Some w
  in
  let observe _sim = match !world with Some w -> w.observe () | None -> "" in
  let r = exec ?until:sc.sc_until ~scheduler ~setup ~observe () in
  let w = match !world with Some w -> w | None -> assert false in
  let spans =
    match !collected with
    | Some (tr, c) ->
      Trace.stop tr c;
      Some (Trace.spans c)
    | None -> None
  in
  let violations =
    List.filter_map
      (fun inv ->
        match inv.inv_check () with
        | Some detail -> Some (inv.inv_name, detail)
        | None -> None)
      w.invariants
  in
  let leaks = r.audit.Sim.parked @ r.audit.Sim.undelivered_kills in
  let violations =
    if leaks = [] then violations
    else violations @ [ ("no-leaked-processes", String.concat ", " leaks) ]
  in
  (* Sanitizer findings ride the same violation channel, so the
     explorer minimizes a race's schedule exactly like an invariant
     breach. *)
  let violations =
    match w.sanitizer with
    | Some sz ->
      violations
      @ List.map
          (fun v -> ("sanitizer:" ^ v.Sanitizer.v_kind, v.Sanitizer.v_detail))
          (Sanitizer.violations sz)
    | None -> violations
  in
  (r, violations, (!dispatches (), spans))

let run_schedule sc schedule =
  let r, violations, _ =
    run_scenario_strat ~record:false ~scheduler:(Schedule.of_list schedule) sc
  in
  (r, violations)

(* ------------------------------------------------------------------ *)
(* Counterexample minimization                                         *)
(* ------------------------------------------------------------------ *)

(* Greedy: zero entries left-to-right to fixpoint, keeping a change
   only if the candidate still violates; then drop trailing zeros,
   which are identity under [Schedule.of_list]'s FIFO fallback. *)
let minimize ~violates schedule =
  let arr = Array.of_list schedule in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to Array.length arr - 1 do
      if arr.(i) <> 0 then begin
        let saved = arr.(i) in
        arr.(i) <- 0;
        if violates (Array.to_list arr) then changed := true
        else arr.(i) <- saved
      end
    done
  done;
  let rec drop_zeros = function 0 :: tl -> drop_zeros tl | l -> l in
  List.rev (drop_zeros (List.rev (Array.to_list arr)))

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_invariant : string;
  v_detail : string;
  v_schedule : int list;
  v_found : int list;
}

type report = {
  r_scenario : string;
  r_runs : int;
  r_max_choice_points : int;
  r_pruned : int;
  r_exhausted : bool;
  r_walks : int;
  r_violation : violation option;
}

let explore ?(bounds = default_bounds) sc =
  let seen = Hashtbl.create 97 in
  let pruned = ref 0 in
  let found = ref None in
  let last_viols = ref [] in
  let run_prefix prefix =
    let r, viols, _ =
      run_scenario_strat ~record:false ~scheduler:(Schedule.of_list prefix) sc
    in
    last_viols := viols;
    r
  in
  let stop prefix _r =
    match !last_viols with
    | [] -> false
    | viols ->
      found := Some (prefix, viols);
      true
  in
  let expand r =
    let key = Hashtbl.hash r.observation in
    if Hashtbl.mem seen key then begin
      incr pruned;
      false
    end
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  let st =
    drive ~max_depth:bounds.max_depth ~max_runs:bounds.max_runs ~run_prefix
      ~stop ~expand
  in
  let total_runs = ref st.runs in
  let exhausted = st.complete in
  let walks = ref 0 in
  (* Seeded random-walk fallback: once the bounded space is exhausted
     (or the budget ran out), probe schedules beyond the depth bound —
     pointless only when no run ever had choice points past it. *)
  if !found = None && (st.truncated || not st.complete) then begin
    let i = ref 0 in
    while
      !found = None
      && !i < bounds.random_walks
      && !total_runs < bounds.max_runs + bounds.random_walks
    do
      let strategy = Schedule.random ~seed:(bounds.walk_seed + !i) () in
      let r, viols, _ = run_scenario_strat ~record:false ~scheduler:strategy sc in
      incr total_runs;
      incr walks;
      if viols <> [] then found := Some (r.schedule, viols);
      incr i
    done
  end;
  let violation =
    match !found with
    | None -> None
    | Some (sched0, viols0) ->
      let violates s =
        incr total_runs;
        let _, viols = run_schedule sc s in
        viols <> []
      in
      let minimized = minimize ~violates sched0 in
      incr total_runs;
      let _, viols = run_schedule sc minimized in
      let inv, detail =
        match viols with v :: _ -> v | [] -> List.hd viols0
      in
      Some
        {
          v_invariant = inv;
          v_detail = detail;
          v_schedule = minimized;
          v_found = sched0;
        }
  in
  {
    r_scenario = sc.sc_name;
    r_runs = !total_runs;
    r_max_choice_points = st.max_cp;
    r_pruned = !pruned;
    r_exhausted = exhausted;
    r_walks = !walks;
    r_violation = violation;
  }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let schedule_to_string s = String.concat "," (List.map string_of_int s)

let schedule_of_string str =
  let str = String.trim str in
  if str = "" || str = "[]" then []
  else
    let str =
      if String.length str >= 2 && str.[0] = '[' then
        String.sub str 1 (String.length str - 2)
      else str
    in
    String.split_on_char ',' str
    |> List.map (fun tok ->
           match int_of_string_opt (String.trim tok) with
           | Some n when n >= 0 -> n
           | Some _ | None ->
             failwith (Printf.sprintf "bad schedule entry %S" tok))

let render_interleaving r (trace, spans) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "schedule [%s], %d choice points, %d events\n"
    (schedule_to_string r.schedule)
    (List.length r.choices) r.dispatched;
  List.iteri
    (fun i (n, c) ->
      Printf.bprintf buf "  choice %d: branch %d of %d\n" i c n)
    r.choices;
  Buffer.add_string buf "dispatch trace:\n";
  List.iter
    (fun (t, who) -> Printf.bprintf buf "  %10.3f ms  %s\n" t who)
    trace;
  (match spans with
  | Some (_ :: _ as sp) ->
    Buffer.add_string buf "span tree:\n";
    Buffer.add_string buf (Export.span_tree sp)
  | Some [] | None -> ());
  Buffer.contents buf

let replay sc schedule =
  let r, violations, recorded =
    run_scenario_strat ~record:true ~scheduler:(Schedule.of_list schedule) sc
  in
  (r, violations, render_interleaving r recorded)

(* ------------------------------------------------------------------ *)
(* Crash-point sweep                                                   *)
(* ------------------------------------------------------------------ *)

type sweep = { s_points : int; s_failures : (int * string * string) list }

let crash_sweep ~points ~check =
  let failures = ref [] in
  for k = 0 to points - 1 do
    List.iter
      (fun (inv, detail) -> failures := (k, inv, detail) :: !failures)
      (check k)
  done;
  { s_points = points; s_failures = List.rev !failures }

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_violation fmt v =
  Format.fprintf fmt
    "@[<v>invariant : %s@ detail    : %s@ schedule  : [%s] (found as [%s])@]"
    v.v_invariant v.v_detail
    (schedule_to_string v.v_schedule)
    (schedule_to_string v.v_found)

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>scenario   : %s@ runs       : %d@ choice pts : %d max@ pruned     \
     : %d@ exhausted  : %b@ walks      : %d@ %a@]"
    r.r_scenario r.r_runs r.r_max_choice_points r.r_pruned r.r_exhausted
    r.r_walks
    (fun fmt -> function
      | None -> Format.fprintf fmt "violation  : none"
      | Some v -> Format.fprintf fmt "violation  :@   %a" pp_violation v)
    r.r_violation
