(* Tests for the correctness-analysis suite: items_conflict
   properties, the waits-for graph and deadlock classification, the
   Table 1 model checker, the determinism sanitizer, the bounded
   model checker (controlled scheduling, schedule replay, crash-point
   sweeps, the lost-update negative control), the Sim audit hooks and
   the repo lint's per-file rules. *)

open Alcotest
module Sim = Rhodos_sim.Sim
module Schedule = Rhodos_sim.Schedule
module Lm = Rhodos_txn.Lock_manager
module Pq = Rhodos_util.Prio_queue
module Waits_for = Rhodos_analysis.Waits_for
module Scenarios = Rhodos_analysis.Scenarios
module Table_check = Rhodos_analysis.Table_check
module Determinism = Rhodos_analysis.Determinism
module Explore = Rhodos_analysis.Explore
module Static = Rhodos_static.Static
module Ast_rules = Rhodos_static.Ast_rules
module Finding = Rhodos_static.Finding
module Vclock = Rhodos_analysis.Vclock
module Sanitizer = Rhodos_analysis.Sanitizer
module Cache = Rhodos_cache.Buffer_cache
module Deadlock_detector = Rhodos_analysis.Deadlock_detector
module Cluster = Rhodos.Cluster
module Fa = Rhodos_agent.File_agent
module Ta = Rhodos_agent.Transaction_agent
module Txn = Rhodos_txn.Txn_service
module Counter = Rhodos_util.Stats.Counter

(* ------------------------------------------------------------------ *)
(* items_conflict: unit edge cases                                     *)
(* ------------------------------------------------------------------ *)

let rec_item o l = Lm.Record_item (9, o, l)

let test_record_edges () =
  let conflict a b = Lm.items_conflict a b in
  check bool "adjacent ranges do not conflict" false
    (conflict (rec_item 0 10) (rec_item 10 5));
  check bool "adjacent (reversed)" false
    (conflict (rec_item 10 5) (rec_item 0 10));
  check bool "one-byte overlap conflicts" true
    (conflict (rec_item 0 10) (rec_item 9 1));
  check bool "containment conflicts" true
    (conflict (rec_item 0 100) (rec_item 10 5));
  check bool "containment (reversed)" true
    (conflict (rec_item 10 5) (rec_item 0 100));
  (* Zero-length ranges: a point probe strictly inside a locked range
     conflicts; at either boundary it does not; two empty ranges never
     conflict, even at the same offset. *)
  check bool "zero-length inside conflicts" true
    (conflict (rec_item 5 0) (rec_item 0 10));
  check bool "zero-length at right boundary" false
    (conflict (rec_item 10 0) (rec_item 0 10));
  check bool "zero-length at left boundary" false
    (conflict (rec_item 0 0) (rec_item 0 10));
  check bool "two zero-length at same offset" false
    (conflict (rec_item 5 0) (rec_item 5 0));
  check bool "different files never conflict" false
    (conflict (Lm.Record_item (1, 0, 10)) (Lm.Record_item (2, 0, 10)))

(* ------------------------------------------------------------------ *)
(* items_conflict: properties                                          *)
(* ------------------------------------------------------------------ *)

let item_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> Lm.File_item f) (int_bound 3);
        map2 (fun f p -> Lm.Page_item (f, p)) (int_bound 3) (int_bound 4);
        map3
          (fun f o l -> Lm.Record_item (f, o, l))
          (int_bound 3) (int_bound 30) (int_bound 12);
      ])

let item_print = function
  | Lm.File_item f -> Printf.sprintf "File(%d)" f
  | Lm.Page_item (f, p) -> Printf.sprintf "Page(%d,%d)" f p
  | Lm.Record_item (f, o, l) -> Printf.sprintf "Record(%d,%d,%d)" f o l

let arb_item = QCheck.make ~print:item_print item_gen

let prop_symmetry =
  QCheck.Test.make ~name:"items_conflict symmetric" ~count:2000
    (QCheck.pair arb_item arb_item)
    (fun (a, b) -> Lm.items_conflict a b = Lm.items_conflict b a)

let prop_cross_symmetry =
  QCheck.Test.make ~name:"items_conflict_cross symmetric" ~count:2000
    (QCheck.pair arb_item arb_item)
    (fun (a, b) -> Lm.items_conflict_cross a b = Lm.items_conflict_cross b a)

let prop_reflexivity =
  QCheck.Test.make ~name:"items_conflict reflexive (nonempty items)"
    ~count:1000 arb_item (fun a ->
      match a with
      | Lm.Record_item (_, _, 0) ->
        (* An empty range does not even conflict with itself. *)
        not (Lm.items_conflict a a)
      | _ -> Lm.items_conflict a a)

let prop_record_interval =
  QCheck.Test.make
    ~name:"record conflict = nonempty interval intersection" ~count:2000
    QCheck.(
      pair
        (pair (int_bound 30) (int_range 1 12))
        (pair (int_bound 30) (int_range 1 12)))
    (fun ((o1, l1), (o2, l2)) ->
      let expected = max o1 o2 < min (o1 + l1) (o2 + l2) in
      Lm.items_conflict (rec_item o1 l1) (rec_item o2 l2) = expected)

(* ------------------------------------------------------------------ *)
(* Waits-for graph                                                     *)
(* ------------------------------------------------------------------ *)

let test_waits_for_cycle () =
  let g = Waits_for.of_edges [ (1, 2); (2, 1); (3, 1) ] in
  check bool "finds the 2-cycle" true (Waits_for.find_cycle g <> None);
  check (option (list int)) "cycle through T1" (Some [ 1; 2 ])
    (Waits_for.cycle_through g 1);
  check (option (list int)) "cycle through T2" (Some [ 2; 1 ])
    (Waits_for.cycle_through g 2);
  check (option (list int)) "T3 is on no cycle" None
    (Waits_for.cycle_through g 3)

let test_waits_for_acyclic () =
  let g = Waits_for.of_edges [ (1, 2); (2, 3); (1, 3) ] in
  check (option (list int)) "chain has no cycle" None (Waits_for.find_cycle g);
  Waits_for.add_edge g ~waiter:3 ~blocker:1;
  check bool "closing the chain creates one" true
    (Waits_for.find_cycle g <> None);
  Waits_for.remove_node g 2;
  (* 1 -> 3 -> 1 remains via the direct edge. *)
  check (option (list int)) "cycle survives removing T2" (Some [ 1; 3 ])
    (Waits_for.cycle_through g 1);
  Waits_for.remove_node g 3;
  check (option (list int)) "gone after removing T3" None
    (Waits_for.find_cycle g)

let test_waits_for_edges_snapshot () =
  let sim = Sim.create () in
  let lm =
    Lm.create
      ~config:{ Lm.default_config with Lm.search_cost_ms = 0. }
      ~sim ~on_suspect:(fun ~txn:_ -> ()) ()
  in
  let item = Lm.File_item 1 in
  ignore
    (Sim.spawn sim (fun () ->
         ignore (Lm.try_acquire lm ~txn:1 item Lm.Iwrite);
         let waiter txn mode =
           ignore
             (Sim.spawn sim (fun () ->
                  match Lm.acquire lm ~txn item mode with
                  | () -> ()
                  | exception Lm.Wait_cancelled _ -> ()))
         in
         waiter 2 Lm.Iread;
         waiter 3 Lm.Read_only;
         Sim.sleep sim 1.;
         (* T2 waits for the holder T1; T3 additionally waits for the
            queued T2 (head-of-line). *)
         check
           (list (pair int int))
           "waits-for edges"
           [ (2, 1); (3, 1); (3, 2) ]
           (Lm.waits_for_edges lm);
         Lm.cancel_waits lm ~txn:2;
         Lm.cancel_waits lm ~txn:3;
         Lm.release_all lm ~txn:1));
  Sim.run sim

(* ------------------------------------------------------------------ *)
(* Deadlock detector scenarios                                         *)
(* ------------------------------------------------------------------ *)

let test_two_cycle_detected () =
  let o = Scenarios.two_cycle () in
  check bool "at least one true deadlock" true (o.true_deadlocks >= 1);
  (match o.cycle with
  | Some cycle ->
    check bool "reported cycle has two transactions" true
      (List.sort compare cycle = [ 1; 2 ])
  | None -> fail "no cycle reported");
  check bool "a victim was aborted" true (o.aborted <> [])

let test_false_abort_classified () =
  let o = Scenarios.long_transaction_false_abort () in
  check int "no true deadlock" 0 o.true_deadlocks;
  check bool "timeout abort counted as false abort" true (o.false_aborts >= 1);
  check (list int) "the long transaction was the victim" [ 1 ] o.aborted;
  check (option (list int)) "no cycle reported" None o.cycle

(* ------------------------------------------------------------------ *)
(* Table 1 model check                                                 *)
(* ------------------------------------------------------------------ *)

let test_table_check () =
  let checks = Table_check.run () in
  check bool "covers all held x requested pairs at 3 levels" true
    (List.length checks >= 36);
  match Table_check.failures checks with
  | [] -> ()
  | f :: _ ->
    fail (Printf.sprintf "model check failed: %s (%s)" f.Table_check.name
            f.Table_check.detail)

(* ------------------------------------------------------------------ *)
(* Determinism sanitizer                                               *)
(* ------------------------------------------------------------------ *)

let test_determinism_clean_scenario () =
  let results = Array.make 4 0 in
  let setup sim =
    Array.fill results 0 4 0;
    for i = 0 to 3 do
      ignore
        (Sim.spawn sim (fun () ->
             Sim.sleep sim 1.;
             results.(i) <- i * 10))
    done
  in
  let observe _ =
    String.concat "," (Array.to_list (Array.map string_of_int results))
  in
  let r = Determinism.run_twice_compare ~setup ~observe () in
  check bool "digest repeatable" true r.Determinism.digest_repeatable;
  check bool "order independent" true r.Determinism.order_independent;
  check (list string) "no leaks" [] r.Determinism.leaked

let test_determinism_flags_order_dependence () =
  (* Same-time processes appending to a shared list: the result
     depends on tie-breaking, which the sanitizer must flag. *)
  let order = ref [] in
  let setup sim =
    order := [];
    for i = 0 to 3 do
      ignore (Sim.spawn sim (fun () -> order := !order @ [ i ]))
    done
  in
  let observe _ = String.concat "," (List.map string_of_int !order) in
  let r = Determinism.run_twice_compare ~setup ~observe () in
  check bool "each run individually repeatable" true
    r.Determinism.digest_repeatable;
  check bool "schedule-order dependence flagged" false
    r.Determinism.order_independent

let test_determinism_flags_leaked_waiter () =
  let setup sim =
    let mb = Sim.Mailbox.create sim in
    ignore (Sim.spawn ~name:"stuck" sim (fun () -> ignore (Sim.Mailbox.recv mb)))
  in
  let r = Determinism.run_twice_compare ~setup ~observe:(fun _ -> "") () in
  check bool "leaked waiter reported" true
    (List.exists
       (fun name -> String.length name >= 5 && String.sub name 0 5 = "stuck")
       r.Determinism.leaked)

(* ------------------------------------------------------------------ *)
(* Explorer: controlled scheduling and schedule replay                  *)
(* ------------------------------------------------------------------ *)

(* A schedule-sensitive world: three processes interleave two
   appends each, so the observation is a function of the branch taken
   at every same-time choice point — and of nothing else. *)
let race_setup order sim =
  order := [];
  for i = 0 to 2 do
    ignore
      (Sim.spawn ~name:"p" sim (fun () ->
           Sim.sleep sim 1.;
           order := !order @ [ i ];
           Sim.sleep sim 1.;
           order := !order @ [ 10 + i ]))
  done

let race_observe order _sim =
  String.concat "," (List.map string_of_int !order)

let prop_schedule_roundtrip =
  QCheck.Test.make
    ~name:"recorded schedule replays to the same digest and observation"
    ~count:60
    QCheck.(list_of_size Gen.(int_bound 6) (small_nat))
    (fun s ->
      let order = ref [] in
      let setup = race_setup order and observe = race_observe order in
      let r1 =
        Explore.exec ~scheduler:(Schedule.of_list s) ~setup ~observe ()
      in
      let r2 =
        Explore.exec
          ~scheduler:(Schedule.of_list r1.Explore.schedule)
          ~setup ~observe ()
      in
      r1.Explore.digest = r2.Explore.digest
      && r1.Explore.observation = r2.Explore.observation
      && r1.Explore.schedule = r2.Explore.schedule)

let prop_depth0_is_fifo =
  QCheck.Test.make
    ~name:"depth-0 exploration = controlled FIFO = uncontrolled run"
    ~count:40
    QCheck.(list_of_size Gen.(int_range 1 5) (int_bound 3))
    (fun delays ->
      let order = ref [] in
      let setup sim =
        order := [];
        List.iteri
          (fun i d ->
            ignore
              (Sim.spawn sim (fun () ->
                   Sim.sleep sim (float_of_int d);
                   order := i :: !order)))
          delays
      in
      let observe = race_observe order in
      let runs, _ =
        Explore.enumerate_schedules ~max_depth:0 ~max_runs:4 ~setup ~observe ()
      in
      let fifo =
        Explore.exec ~scheduler:Schedule.fifo ~setup ~observe ()
      in
      let free = Explore.exec ~setup ~observe () in
      match runs with
      | [ r ] ->
        r.Explore.digest = free.Explore.digest
        && r.Explore.observation = free.Explore.observation
        && fifo.Explore.digest = free.Explore.digest
        && fifo.Explore.observation = free.Explore.observation
      | _ -> false)

let prop_schedule_string_roundtrip =
  QCheck.Test.make ~name:"schedule wire form round-trips" ~count:200
    QCheck.(list_of_size Gen.(int_bound 8) small_nat)
    (fun s ->
      Explore.schedule_of_string (Explore.schedule_to_string s) = s)

let test_explore_seed_scenarios () =
  List.iter
    (fun (name, bounds, sc) ->
      let r = Explore.explore ~bounds sc in
      check bool (name ^ ": bounded space exhausted") true
        r.Explore.r_exhausted;
      (match r.Explore.r_violation with
      | None -> ()
      | Some v ->
        fail
          (Printf.sprintf "%s: %s violated under [%s]: %s" name
             v.Explore.v_invariant
             (Explore.schedule_to_string v.Explore.v_schedule)
             v.Explore.v_detail));
      check bool (name ^ ": explored more than the FIFO run") true
        (r.Explore.r_runs > 1))
    (Scenarios.explorer_scenarios ())

(* The deliberately reintroduced PR-3 lost update: the explorer must
   find it, the minimized schedule must still violate, and the replay
   must be deterministic. The fixed model must survive the same
   exploration untouched. *)
let test_lost_update_negative_control () =
  let sc = Scenarios.lost_update_model ~fixed:false () in
  let r = Explore.explore sc in
  match r.Explore.r_violation with
  | None -> fail "explorer missed the reintroduced lost update"
  | Some v ->
    check string "the lost-update invariant fired" "no-lost-update"
      v.Explore.v_invariant;
    check bool "minimized is no longer than found" true
      (List.length v.Explore.v_schedule <= List.length v.Explore.v_found);
    let r1, viols1 = Explore.run_schedule sc v.Explore.v_schedule in
    let r2, viols2 = Explore.run_schedule sc v.Explore.v_schedule in
    check bool "minimized schedule still violates" true (viols1 <> []);
    check bool "violations replay identically" true (viols1 = viols2);
    check int "replay is deterministic" r1.Explore.digest r2.Explore.digest;
    let fixed = Scenarios.lost_update_model ~fixed:true () in
    let rf = Explore.explore fixed in
    check bool "fixed model has no violation" true
      (rf.Explore.r_violation = None);
    check bool "fixed model space exhausted" true rf.Explore.r_exhausted

let test_crash_sweeps () =
  let s = Scenarios.cache_crash_sweep () in
  check int "cache sweep covers every injection point" 7 s.Explore.s_points;
  (match s.Explore.s_failures with
  | [] -> ()
  | (k, inv, d) :: _ ->
    fail (Printf.sprintf "cache sweep point %d: %s: %s" k inv d));
  let s = Scenarios.agent_crash_sweep () in
  check int "agent sweep covers every pwrite" 4 s.Explore.s_points;
  match s.Explore.s_failures with
  | [] -> ()
  | (k, inv, d) :: _ ->
    fail (Printf.sprintf "agent sweep point %d: %s: %s" k inv d)

let test_determinism_explorer_backed () =
  (* Clean scenario: explored interleavings all agree. *)
  let results = Array.make 4 0 in
  let setup sim =
    Array.fill results 0 4 0;
    for i = 0 to 3 do
      ignore
        (Sim.spawn sim (fun () ->
             Sim.sleep sim 1.;
             results.(i) <- i * 10))
    done
  in
  let observe _ =
    String.concat "," (Array.to_list (Array.map string_of_int results))
  in
  let r = Determinism.run_twice_compare ~schedules:8 ~setup ~observe () in
  check bool "clean scenario passes explorer-backed check" true
    (Determinism.ok r);
  check bool "some schedules actually explored" true (r.Determinism.explored > 1);
  check bool "no divergent schedule" true (r.Determinism.divergent = None);
  (* Order-dependent scenario: a deviating schedule must diverge. *)
  let order = ref [] in
  let setup sim =
    order := [];
    for i = 0 to 3 do
      ignore (Sim.spawn sim (fun () -> order := !order @ [ i ]))
    done
  in
  let observe _ = String.concat "," (List.map string_of_int !order) in
  let r = Determinism.run_twice_compare ~schedules:8 ~setup ~observe () in
  check bool "divergent schedule found" true (r.Determinism.divergent <> None);
  check bool "explorer-backed check fails" false (Determinism.ok r)

(* ------------------------------------------------------------------ *)
(* Sim runtime checks                                                  *)
(* ------------------------------------------------------------------ *)

let test_blocking_outside_process () =
  let sim = Sim.create () in
  check_raises "sleep outside a process" Sim.Blocking_outside_process
    (fun () -> Sim.sleep sim 1.);
  let mb = Sim.Mailbox.create sim in
  check_raises "recv outside a process" Sim.Blocking_outside_process
    (fun () -> ignore (Sim.Mailbox.recv mb))

let test_audit_clean_run () =
  let sim = Sim.create ~track:true () in
  ignore (Sim.spawn sim (fun () -> Sim.sleep sim 5.));
  Sim.run sim;
  let audit = Sim.audit sim in
  check (list string) "nothing parked" [] audit.Sim.parked;
  check (list string) "no undelivered kills" [] audit.Sim.undelivered_kills

let test_run_digest_repeatable () =
  let build () =
    let sim = Sim.create () in
    for i = 1 to 5 do
      ignore
        (Sim.spawn sim (fun () ->
             Sim.sleep sim (float_of_int i);
             Sim.yield sim))
    done;
    Sim.run sim;
    Sim.run_digest sim
  in
  check int "identical runs, identical digests" (build ()) (build ())

let test_lifo_tie_break () =
  let q = Pq.create ~tie:Pq.Lifo () in
  Pq.add q ~prio:1. "a";
  Pq.add q ~prio:1. "b";
  Pq.add q ~prio:0.5 "c";
  check (option (pair (float 0.) string)) "lower prio first" (Some (0.5, "c"))
    (Pq.pop q);
  check (option (pair (float 0.) string)) "newest of equals first"
    (Some (1., "b")) (Pq.pop q);
  check (option (pair (float 0.) string)) "oldest last" (Some (1., "a"))
    (Pq.pop q)

(* ------------------------------------------------------------------ *)
(* Repo lint: per-file rules                                           *)
(* ------------------------------------------------------------------ *)

let rules vs = List.map (fun v -> v.Finding.rule) vs

let test_lint_catch_all () =
  check (list string) "try with _ flagged" [ "no-catch-all" ]
    (rules (Static.lint_source ~file:"t.ml" "let f x = try g x with _ -> 0"));
  check (list string) "multiline try with | _ flagged" [ "no-catch-all" ]
    (rules
       (Static.lint_source ~file:"t.ml" "let f x =\n  try\n    g x\n  with\n  | _ -> 0"));
  check int "line number points at the with" 4
    (match
       Static.lint_source ~file:"t.ml" "let f x =\n  try\n    g x\n  with\n  | _ -> 0"
     with
    | [ v ] -> v.Finding.line
    | _ -> -1);
  check (list string) "wildcard with guard flagged" [ "no-catch-all" ]
    (rules
       (Static.lint_source ~file:"t.ml" "let f x = try g x with _ when p x -> 0"));
  check (list string) "match arm exception _ flagged" [ "no-catch-all" ]
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x = match g x with v -> v | exception _ -> 0"));
  check int "line number points at the arm" 4
    (match
       Static.lint_source ~file:"t.ml"
         "let f x =\n  match g x with\n  | v -> v\n  | exception _ -> 0"
     with
    | [ v ] -> v.Finding.line
    | _ -> -1);
  check (list string) "Killed handled only after exception _ flagged" [ "no-catch-all" ]
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x = match g x with v -> v | exception _ -> 0 | exception Sim.Killed -> 1"));
  check (list string) "other exception first flagged" [ "no-catch-all" ]
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x = match g x with v -> v | exception Not_found -> 1 | exception _ -> 0"))

let test_lint_catch_all_negatives () =
  check (list string) "match wildcard allowed" []
    (rules (Static.lint_source ~file:"t.ml" "let f x = match x with _ -> 0"));
  check (list string) "record update allowed" []
    (rules (Static.lint_source ~file:"t.ml" "let f g = { g with a = 1 }"));
  check (list string) "named handler allowed" []
    (rules
       (Static.lint_source ~file:"t.ml" "let f x = try g x with Not_found -> 0"));
  check (list string) "catch-all in comment allowed" []
    (rules (Static.lint_source ~file:"t.ml" "(* try f with _ -> 0 *) let x = 1"));
  check (list string) "nested match inside try allowed" []
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x = try (match x with _ -> 1) with Failure _ -> 0"));
  check (list string) "exception _ after a Killed arm allowed" []
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x =\n\
          \  match g x with\n\
          \  | v -> v\n\
          \  | exception (Sim.Killed as k) -> raise k\n\
          \  | exception _ -> 0"));
  check (list string) "Killed in an or-pattern allowed" []
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x = match g x with v -> v | exception (Exit | Killed) -> 1 | exception _ -> 0"));
  check (list string) "named exception arm allowed" []
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x = match g x with v -> v | exception Not_found -> 0"));
  check (list string) "value wildcard arm allowed" []
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x = match g x with Some v -> v | _ -> 0"))

let test_lint_forbidden () =
  (* a host clock trips both the general rule and the hygiene rule;
     findings on one line come in rule order *)
  check (list string) "Unix. flagged" [ "host-clock-hygiene"; "no-wall-clock" ]
    (rules (Static.lint_source ~file:"t.ml" "let t = Unix.gettimeofday ()"));
  check (list string) "Random.self_init flagged" [ "no-wall-clock" ]
    (rules (Static.lint_source ~file:"t.ml" "let () = Random.self_init ()"));
  check (list string) "unseeded Random.int flagged" [ "no-unseeded-random" ]
    (rules (Static.lint_source ~file:"t.ml" "let roll () = Random.int 6"));
  check (list string) "Sys.time flagged"
    [ "host-clock-hygiene"; "no-wall-clock" ]
    (rules (Static.lint_source ~file:"t.ml" "let t = Sys.time ()"));
  check (list string) "in a string literal, allowed" []
    (rules (Static.lint_source ~file:"t.ml" "let s = \"Unix.stat\""));
  check (list string) "in a comment, allowed" []
    (rules (Static.lint_source ~file:"t.ml" "(* Unix.stat *) let x = 1"));
  check (list string) "prefix of another ident, allowed" []
    (rules (Static.lint_source ~file:"t.ml" "let t = My_unix.now ()"))

let test_lint_host_clock () =
  check (list string) "monotonic clock outside the profiler flagged"
    [ "host-clock-hygiene" ]
    (rules
       (Static.lint_source ~file:"t.ml" "let t = Monotonic_clock.now ()"));
  check (list string) "Unix.times flagged"
    [ "host-clock-hygiene"; "no-wall-clock" ]
    (rules (Static.lint_source ~file:"t.ml" "let t = Unix.times ()"));
  check (list string) "the profiler module is the sanctioned reader" []
    (rules
       (Static.lint_source ~file:"lib/obs/profiler.ml"
          "let now_ns () = Int64.to_int (Monotonic_clock.now ())"));
  check (list string) "in a comment, allowed" []
    (rules (Static.lint_source ~file:"t.ml" "(* Monotonic_clock.now *) let x = 1"));
  check (list string) "bench profile may time itself" []
    (rules
       (Static.lint_source ~profile:Ast_rules.Bench ~file:"micro.ml"
          "let run () = ()\nlet t = Monotonic_clock.now ()"))

let test_lint_hot_path () =
  (* the rule watches sim.ml's dispatch/step/run let-regions only *)
  check (list string) "allocating pop in Sim.step flagged"
    [ "hot-path-alloc" ]
    (rules
       (Static.lint_source ~file:"lib/sim/sim.ml"
          "let step t =\n  match Prio_queue.pop t.events with\n  | None -> false\n  | Some _ -> true"));
  check (list string) "ready scan in Sim.run flagged" [ "hot-path-alloc" ]
    (rules
       (Static.lint_source ~file:"lib/sim/sim.ml"
          "let run t =\n  ignore (Prio_queue.ready t.events)"));
  check (list string) "allocation-free accessors allowed" []
    (rules
       (Static.lint_source ~file:"lib/sim/sim.ml"
          "let step t =\n\
          \  if Prio_queue.is_empty t.events then false\n\
          \  else begin\n\
          \    let time = Prio_queue.unsafe_min_prio t.events in\n\
          \    let ev = Prio_queue.pop_into t.events in\n\
          \    ignore (time, ev); true\n\
          \  end"));
  check (list string) "other let-regions are free to use the full API" []
    (rules
       (Static.lint_source ~file:"lib/sim/sim.ml"
          "let controlled_step t =\n  ignore (Prio_queue.ready t.events)"));
  check (list string) "static-ok escape hatch honoured" []
    (rules
       (Static.lint_source ~file:"lib/sim/sim.ml"
          "let run t =\n\
          \  (* static-ok: hot-path-alloc drained once at shutdown *)\n\
          \  ignore (Prio_queue.drain t.events)"));
  check (list string) "a marker for another rule does not exempt"
    [ "hot-path-alloc" ]
    (rules
       (Static.lint_source ~file:"lib/sim/sim.ml"
          "let run t =\n  ignore (Prio_queue.drain t.events) (* static-ok: shutdown *)"));
  check (list string) "rule is scoped to sim.ml" []
    (rules
       (Static.lint_source ~file:"lib/analysis/explore.ml"
          "let run t = ignore (Prio_queue.ready t.events)"));
  check int "line number points at the offending token" 2
    (match
       Static.lint_source ~file:"lib/sim/sim.ml"
         "let dispatch t =\n  ignore (Prio_queue.peek t.events)"
     with
    | [ v ] -> v.Finding.line
    | _ -> -1)

let test_lint_pairing () =
  check (list string) "acquire without release flagged" [ "paired-release" ]
    (rules (Static.lint_source ~file:"t.ml" "let f s = Semaphore.acquire s"));
  check (list string) "acquire with release allowed" []
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f s = Semaphore.acquire s; g (); Semaphore.release s"))

let test_lint_bench_profile () =
  check (list string) "unregistered experiment flagged" [ "bench-emitter" ]
    (rules (Static.lint_source ~profile:Ast_rules.Bench ~file:"exp_e99.ml" "let run () = ()"));
  check (list string) "registered experiment allowed" []
    (rules
       (Static.lint_source ~profile:Ast_rules.Bench ~file:"exp_e99.ml"
          "let () = Json_out.register \"E99\"\nlet run () = ()"));
  check (list string) "non-experiment bench module exempt" []
    (rules (Static.lint_source ~profile:Ast_rules.Bench ~file:"micro.ml" "let run () = ()"));
  check (list string) "bench profile may print tables" []
    (rules
       (Static.lint_source ~profile:Ast_rules.Bench ~file:"common.ml"
          "let note fmt = Printf.printf fmt"));
  check (list string) "library profile ignores experiment naming" []
    (rules (Static.lint_source ~file:"exp_e99.ml" "let run () = ()"))

let test_lint_repo_clean () =
  (* The tree under test is copied into _build, so ../lib is the
     library source seen by the build. *)
  let dir = Filename.concat Filename.parent_dir_name "lib" in
  if Sys.file_exists dir && Sys.is_directory dir then begin
    let vs = Static.lint_dir dir in
    List.iter
      (fun v -> Printf.printf "%s:%d: %s %s\n" v.Finding.file v.Finding.line
          v.Finding.rule v.Finding.message)
      vs;
    check int "lib/ lints clean" 0 (List.length vs)
  end

let test_lint_global_state () =
  check (list string) "module-level Hashtbl flagged" [ "global-mutable-state" ]
    (rules
       (Static.lint_source ~file:"t.ml"
          "let sources : (string, int) Hashtbl.t = Hashtbl.create 8"));
  check (list string) "module-level ref flagged" [ "global-mutable-state" ]
    (rules (Static.lint_source ~file:"t.ml" "let hits = ref 0"));
  check (list string) "creator function allowed" []
    (rules (Static.lint_source ~file:"t.ml" "let create () = Hashtbl.create 8"));
  check (list string) "parameterized binding allowed" []
    (rules (Static.lint_source ~file:"t.ml" "let clone (t : t) = ref t.v"));
  check (list string) "nested binding allowed" []
    (rules
       (Static.lint_source ~file:"t.ml"
          "let f x =\n    let q = Queue.create () in\n    ignore q; x"));
  check (list string) "no file is allowlisted anymore"
    [ "global-mutable-state" ]
    (rules (Static.lint_source ~file:"logging.ml" "let sources = Hashtbl.create 8"))

let test_lint_raw_cell () =
  check (list string) "raw Hashtbl op on a migrated field flagged"
    [ "raw-shared-cell" ]
    (rules
       (Static.lint_source ~file:"file_agent.ml"
          "let forget t k = Hashtbl.remove t.inflight k"));
  check (list string) "raw field assignment flagged" [ "raw-shared-cell" ]
    (rules
       (Static.lint_source ~file:"buffer_cache.ml" "let reset t v = t.buffers <- v"));
  check (list string) "cell accessors allowed" []
    (rules
       (Static.lint_source ~file:"file_agent.ml"
          "let pending t = Cell.get t.inflight"));
  check (list string) "same pattern in an uninstrumented file allowed" []
    (rules
       (Static.lint_source ~file:"other.ml"
          "let forget t k = Hashtbl.remove t.inflight k"));
  check (list string) "unrelated fields unconstrained" []
    (rules (Static.lint_source ~file:"file_agent.ml" "let bump t v = t.stats <- v"));
  check (list string) "raw Hashtbl op on the block service's inflight"
    [ "raw-shared-cell" ]
    (rules
       (Static.lint_source ~file:"block_service.ml"
          "let forget t k = Hashtbl.remove t.inflight k"));
  check (list string) "raw reset of the agent's name cache"
    [ "raw-shared-cell" ]
    (rules
       (Static.lint_source ~file:"file_agent.ml"
          "let drop t = Hashtbl.reset t.name_cache"))

let test_lint_direct_print () =
  let src = "let say s = Printf.printf \"%s\" s" in
  check (list string) "Printf.printf flagged" [ "no-direct-print" ]
    (rules (Static.lint_source ~file:"t.ml" src));
  check (list string) "logging.ml is the sanctioned sink" []
    (rules (Static.lint_source ~file:"logging.ml" src))

let with_temp_dir f =
  let dir = Filename.temp_dir "rhodos_lint" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_file path src =
  Out_channel.with_open_bin path (fun oc -> output_string oc src)

let test_lint_missing_mli () =
  with_temp_dir (fun dir ->
      write_file (Filename.concat dir "a.ml") "let x = 1\n";
      check (list string) "a.ml with no a.mli flagged" [ "missing-mli" ]
        (rules (Static.lint_dir dir));
      check (list string) "bench modules need none" []
        (rules (Static.lint_dir ~profile:Ast_rules.Bench dir));
      write_file (Filename.concat dir "a.mli") "val x : int\n";
      check (list string) "with its interface, clean" []
        (rules (Static.lint_dir dir)))

(* ------------------------------------------------------------------ *)
(* Race and protocol sanitizers                                        *)
(* ------------------------------------------------------------------ *)

let sz_kinds sz =
  List.sort_uniq compare
    (List.map (fun v -> v.Sanitizer.v_kind) (Sanitizer.violations sz))

let test_vclock_basics () =
  let a = Vclock.tick (Vclock.tick Vclock.empty 0) 0 in
  let b = Vclock.tick Vclock.empty 1 in
  let m = Vclock.merge a b in
  check int "absent component is 0" 0 (Vclock.get Vclock.empty 3);
  check int "tick advances own component" 2 (Vclock.get a 0);
  check int "merge keeps max of 0" 2 (Vclock.get m 0);
  check int "merge keeps max of 1" 1 (Vclock.get m 1);
  check bool "empty <= anything" true (Vclock.leq Vclock.empty a);
  check bool "a <= merge a b" true (Vclock.leq a m);
  check bool "merge a b </= a" false (Vclock.leq m a);
  check bool "disjoint clocks are concurrent" true
    (Vclock.compare_clocks a b = Vclock.Concurrent);
  check bool "a before its join" true (Vclock.compare_clocks a m = Vclock.Before);
  check bool "join after a" true (Vclock.compare_clocks m a = Vclock.After);
  check bool "merge is commutative (Equal)" true
    (Vclock.compare_clocks m (Vclock.merge b a) = Vclock.Equal);
  check string "rendering" "{0:2 1:1}" (Vclock.to_string m)

(* Workers touching one shared cell under per-worker lock lists:
   chained common locks provide the happens-before edges (release of
   an item joins into its next grantee) that keep the accesses
   ordered. *)
let run_lock_workers specs =
  let sim = Sim.create () in
  let sz = Sanitizer.create sim in
  let lm = Lm.create ~sim ~on_suspect:(fun ~txn:_ -> ()) () in
  Sanitizer.attach_lock_manager sz lm;
  let cell = Sim.Cell.create ~name:"narrow:shared" sim 0 in
  List.iteri
    (fun i (txn, items) ->
      ignore
        (Sim.spawn_at
           ~name:(Printf.sprintf "narrow-w%d" i)
           sim ~at:(float_of_int i)
           (fun () ->
             List.iter (fun it -> Lm.acquire lm ~txn it Lm.Iwrite) items;
             Sim.Cell.update cell (fun v -> v + 1);
             Lm.release_all lm ~txn)))
    specs;
  Sim.run sim;
  sz_kinds sz

let test_lockset_narrowing () =
  let a = Lm.File_item 1 and b = Lm.File_item 2 and c = Lm.File_item 3 in
  check (list string) "chained common locks: ordered, stays clean"
    []
    (run_lock_workers [ (1, [ a; b ]); (2, [ b; c ]); (3, [ c ]) ]);
  check (list string) "a worker sharing no lock with the chain races"
    [ "data-race" ]
    (run_lock_workers [ (1, [ a; b ]); (2, [ b; c ]); (3, [ c ]); (4, [ a ]) ])

(* A small fully synchronized workload: three workers update a cell
   under a semaphore, report through a mailbox, one fills an ivar; a
   collector joins everything and writes a second cell. Every access
   pair is ordered by some chain of sync edges, so the sanitizer must
   stay silent under EVERY schedule. *)
let hb_setup ~sanitize sz_ref sim =
  if sanitize then sz_ref := Some (Sanitizer.create sim);
  let c1 = Sim.Cell.create ~name:"hb:counter" sim 0 in
  let c2 = Sim.Cell.create ~name:"hb:total" sim 0 in
  let sem = Sim.Semaphore.create sim 1 in
  let mb = Sim.Mailbox.create sim in
  let iv = Sim.Ivar.create sim in
  for i = 0 to 2 do
    ignore
      (Sim.spawn ~name:(Printf.sprintf "hb-w%d" i) sim (fun () ->
           Sim.Semaphore.acquire sem;
           let v = Sim.Cell.get c1 in
           Sim.yield sim;
           Sim.Cell.set c1 (v + 1);
           Sim.Semaphore.release sem;
           Sim.Mailbox.send mb i;
           if i = 0 then Sim.Ivar.fill iv 40))
  done;
  ignore
    (Sim.spawn ~name:"hb-collector" sim (fun () ->
         let s = ref 0 in
         for _ = 1 to 3 do
           s := !s + Sim.Mailbox.recv mb
         done;
         let v = Sim.Ivar.read iv in
         Sim.Cell.set c2 (!s + v)))

let prop_hb_partial_order =
  (* Under random schedules, the access clocks the sanitizer records
     form a strict partial order consistent with program order: within
     a process later accesses are strictly After, no two distinct
     accesses are Equal, and [leq] is transitive. *)
  QCheck.Test.make ~name:"happens-before is a strict partial order" ~count:30
    QCheck.(int_bound 9999)
    (fun seed ->
      let sz_ref = ref None in
      ignore
        (Explore.exec
           ~scheduler:(Schedule.random ~seed ())
           ~setup:(hb_setup ~sanitize:true sz_ref)
           ~observe:(fun _ -> "")
           ());
      let sz = match !sz_ref with Some s -> s | None -> assert false in
      let accs = Array.of_list (Sanitizer.accesses sz) in
      let n = Array.length accs in
      let clock i = accs.(i).Sanitizer.acc_clock in
      let ok = ref (n >= 7 && Sanitizer.violations sz = []) in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if accs.(i).Sanitizer.acc_proc = accs.(j).Sanitizer.acc_proc then
            ok :=
              !ok && Vclock.compare_clocks (clock i) (clock j) = Vclock.Before
        done
      done;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            ok := !ok && Vclock.compare_clocks (clock i) (clock j) <> Vclock.Equal
        done
      done;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if Vclock.leq (clock i) (clock j) && Vclock.leq (clock j) (clock k)
            then ok := !ok && Vclock.leq (clock i) (clock k)
          done
        done
      done;
      !ok)

let test_sanitizer_digest_neutral () =
  (* Attaching the sanitizer must not perturb the simulation: emission
     never schedules events, so the run digest and dispatch count are
     byte-for-byte those of the bare run. *)
  let go ~sanitize =
    let sz_ref = ref None in
    Explore.exec ~setup:(hb_setup ~sanitize sz_ref) ~observe:(fun _ -> "") ()
  in
  let bare = go ~sanitize:false in
  let monitored = go ~sanitize:true in
  check int "same digest with and without the sanitizer" bare.Explore.digest
    monitored.Explore.digest;
  check int "same dispatch count" bare.Explore.dispatched
    monitored.Explore.dispatched

let test_seeded_race_both_passes () =
  (* End-to-end negative control: the unlocked counter model is caught
     by the happens-before pass even under plain FIFO, and adding the
     lock silences it. *)
  let _, viols =
    Explore.run_schedule (Scenarios.seeded_race_model ~locked:false ()) []
  in
  check bool "happens-before pass fires" true
    (List.mem_assoc "sanitizer:data-race" viols);
  let _, viols =
    Explore.run_schedule (Scenarios.seeded_race_model ~locked:true ()) []
  in
  check int "locked variant is clean" 0 (List.length viols)

let test_protocol_monitors_feed () =
  (* Drive the lock-protocol monitors with the synthetic event stream
     the real lock manager refuses to produce. *)
  let sim = Sim.create () in
  let sz = Sanitizer.create sim in
  let item = Lm.File_item 7 in
  let feed ev = Sanitizer.feed_lock_event sz ev in
  feed (Lm.Ev_granted { txn = 1; item; mode = Lm.Iwrite });
  feed (Lm.Ev_granted { txn = 2; item; mode = Lm.Iwrite });
  (* incompatible: table1 *)
  feed (Lm.Ev_granted { txn = 1; item; mode = Lm.Iwrite });
  (* re-grant at a held rank: double-acquire *)
  feed (Lm.Ev_released { txn = 3 });
  (* nothing held: release-without-hold *)
  feed (Lm.Ev_released { txn = 1 });
  feed (Lm.Ev_granted { txn = 1; item; mode = Lm.Iread });
  (* growing again after shrinking: 2pl *)
  check (list string) "each monitor fired exactly once"
    [ "2pl"; "double-acquire"; "release-without-hold"; "table1" ]
    (sz_kinds sz)

let test_sanitizer_ivar_double_fill () =
  let sim = Sim.create () in
  let sz = Sanitizer.create sim in
  ignore
    (Sim.spawn ~name:"filler" sim (fun () ->
         let iv = Sim.Ivar.create sim in
         Sim.Ivar.fill iv 1;
         try Sim.Ivar.fill iv 2 with Invalid_argument _ -> ()));
  Sim.run sim;
  check (list string) "double fill reported" [ "ivar-double-fill" ] (sz_kinds sz)

let test_sanitizer_use_after_evict () =
  (* Same shape as the cache's own monitor test, but routed through
     [Sanitizer.attach_cache]: the stale batch entry must surface as a
     ["use-after-evict"] violation. *)
  let sim = Sim.create () in
  let sz = Sanitizer.create sim in
  let writeback_batch entries =
    List.iter
      (fun (_, _, written) ->
        Sim.sleep sim 1.0;
        written ())
      entries
  in
  let c =
    Cache.create ~writeback_batch ~sim ~capacity:8
      ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
      ~writeback:(fun _ _ -> ())
      ()
  in
  Sanitizer.attach_cache sz ~name:"t" ~key_to_string:string_of_int c;
  ignore
    (Sim.spawn ~name:"flusher" sim (fun () ->
         Cache.write c 0 (Bytes.make 4 'a');
         Cache.write c 1 (Bytes.make 4 'b');
         Cache.flush c));
  ignore
    (Sim.spawn_at ~name:"invalidator" sim ~at:1.5 (fun () ->
         Cache.invalidate c 1));
  Sim.run sim;
  check (list string) "stale entry reported" [ "use-after-evict" ] (sz_kinds sz)

(* ------------------------------------------------------------------ *)
(* The observation stream                                              *)
(* ------------------------------------------------------------------ *)

type producers = { sim_seen : bool; lock_seen : bool; cache_seen : bool }

(* A cluster run with transactions and a batch writeback. With
   [observe], every in-lib consumer subscribes to the one stream at
   once — the sanitizer (lock manager and agent cache attached), a
   deadlock detector, the explorer's dispatch log — plus a catch-all
   recorder of which producers it heard from. *)
let stream_run ~observe =
  let seen = ref { sim_seen = false; lock_seen = false; cache_seen = false } in
  let dispatches = ref (fun () -> []) in
  let sim =
    Cluster.run (fun sim t ->
        let ws = Cluster.add_client t ~name:"ws" in
        if observe then begin
          let lm = Txn.lock_manager (Cluster.txn_service t) in
          let pool = Fa.buffer_pool (Cluster.file_agent ws) in
          let sz = Sanitizer.create sim in
          Sanitizer.attach_lock_manager sz lm;
          Sanitizer.attach_cache sz ~name:"agent-pool"
            ~key_to_string:(fun (f, b) -> Printf.sprintf "%d.%d" f b)
            pool;
          ignore (Deadlock_detector.attach lm);
          dispatches := Explore.record_dispatches sim;
          ignore
            (Sim.subscribe sim (fun ev ->
                 let s = !seen in
                 seen :=
                   match ev with
                   | Lm.Lock_event _ -> { s with lock_seen = true }
                   | Cache.Batch_written _ -> { s with cache_seen = true }
                   | Sim.M_dispatch _ | Sim.M_spawn _ | Sim.M_cell_read _ ->
                     { s with sim_seen = true }
                   | _ -> s))
        end;
        let d = Cluster.create_file ws "/plain" in
        Cluster.pwrite ws d ~off:0 ~data:(Bytes.make 20_000 'p');
        Fa.flush (Cluster.file_agent ws);
        Cluster.with_transaction ws (fun ta td ->
            let fd = Ta.tcreate ta td ~path:"/acct" in
            Ta.twrite ta td fd (Bytes.make 64 'a'));
        Cluster.with_transaction ws (fun ta td ->
            let fd = Ta.topen ta td ~path:"/acct" in
            ignore (Ta.tread ta td fd 64));
        sim)
  in
  (Sim.run_digest sim, Sim.events_dispatched sim, !seen, !dispatches ())

let test_stream_all_consumers_neutral () =
  let bare_digest, bare_n, _, _ = stream_run ~observe:false in
  let digest, n, seen, dispatches = stream_run ~observe:true in
  check int "same digest with every consumer attached" bare_digest digest;
  check int "same dispatch count" bare_n n;
  check bool "recorder heard the simulator" true seen.sim_seen;
  check bool "recorder heard the lock manager" true seen.lock_seen;
  check bool "recorder heard the buffer cache" true seen.cache_seen;
  check bool "dispatch log filled" true (dispatches <> [])

let test_stream_per_manager_filter () =
  (* Two lock managers share one world; the detector and the sanitizer
     attach to [a] only. Each cell is written by two processes with no
     simulator edge between them, ordered only by one manager's lock:
     [a]'s grants order "cell-a", but [b]'s must not be joined, so
     "cell-b" is a race — and [b]'s grants must not be counted. *)
  let sim = Sim.create () in
  let sz = Sanitizer.create sim in
  let mk () = Lm.create ~sim ~on_suspect:(fun ~txn:_ -> ()) () in
  let a = mk () and b = mk () in
  let det = Deadlock_detector.attach a in
  Sanitizer.attach_lock_manager sz a;
  let cell_a = Sim.Cell.create ~name:"cell-a" sim 0 in
  let cell_b = Sim.Cell.create ~name:"cell-b" sim 0 in
  let writer lm cell txn at =
    ignore
      (Sim.spawn_at ~name:(Printf.sprintf "w%d" txn) sim ~at (fun () ->
           Lm.acquire lm ~txn (Lm.File_item 1) Lm.Iwrite;
           Sim.Cell.set cell txn;
           Lm.release_all lm ~txn))
  in
  writer a cell_a 1 0.;
  writer a cell_a 2 10.;
  writer b cell_b 11 0.;
  writer b cell_b 12 10.;
  Sim.run sim;
  check int "detector counts only its manager's grants" 2
    (Counter.get (Deadlock_detector.stats det) "grants_observed");
  check (list string) "only the cell ordered by the other manager races"
    [ "data-race" ] (sz_kinds sz);
  check bool "the race is on cell-b" true
    (List.for_all
       (fun v -> String.starts_with ~prefix:"cell-b:" v.Sanitizer.v_detail)
       (Sanitizer.violations sz))

(* ------------------------------------------------------------------ *)

let () =
  run "rhodos_analysis"
    [
      ( "items_conflict",
        [
          test_case "record range edge cases" `Quick test_record_edges;
          QCheck_alcotest.to_alcotest prop_symmetry;
          QCheck_alcotest.to_alcotest prop_cross_symmetry;
          QCheck_alcotest.to_alcotest prop_reflexivity;
          QCheck_alcotest.to_alcotest prop_record_interval;
        ] );
      ( "waits_for",
        [
          test_case "two-cycle" `Quick test_waits_for_cycle;
          test_case "acyclic / incremental" `Quick test_waits_for_acyclic;
          test_case "lock-manager snapshot" `Quick test_waits_for_edges_snapshot;
        ] );
      ( "deadlock detector",
        [
          test_case "seeded 2-cycle is a true deadlock" `Quick
            test_two_cycle_detected;
          test_case "timeout without cycle is a false abort" `Quick
            test_false_abort_classified;
        ] );
      ( "table 1 model check",
        [ test_case "exhaustive matrix + conversions" `Quick test_table_check ] );
      ( "determinism",
        [
          test_case "clean scenario passes" `Quick
            test_determinism_clean_scenario;
          test_case "order dependence flagged" `Quick
            test_determinism_flags_order_dependence;
          test_case "leaked waiter flagged" `Quick
            test_determinism_flags_leaked_waiter;
        ] );
      ( "explorer",
        [
          QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
          QCheck_alcotest.to_alcotest prop_depth0_is_fifo;
          QCheck_alcotest.to_alcotest prop_schedule_string_roundtrip;
          test_case "seed scenarios exhaust with zero violations" `Quick
            test_explore_seed_scenarios;
          test_case "lost-update negative control" `Quick
            test_lost_update_negative_control;
          test_case "crash-point sweeps" `Quick test_crash_sweeps;
          test_case "explorer-backed determinism" `Quick
            test_determinism_explorer_backed;
        ] );
      ( "sim sanitizers",
        [
          test_case "blocking outside a process" `Quick
            test_blocking_outside_process;
          test_case "clean audit" `Quick test_audit_clean_run;
          test_case "repeatable digest" `Quick test_run_digest_repeatable;
          test_case "lifo tie-break" `Quick test_lifo_tie_break;
        ] );
      ( "lint",
        [
          test_case "catch-all try" `Quick test_lint_catch_all;
          test_case "catch-all negatives" `Quick test_lint_catch_all_negatives;
          test_case "forbidden identifiers" `Quick test_lint_forbidden;
          test_case "host-clock hygiene" `Quick test_lint_host_clock;
          test_case "hot-path alloc" `Quick test_lint_hot_path;
          test_case "acquire/release pairing" `Quick test_lint_pairing;
          test_case "bench profile" `Quick test_lint_bench_profile;
          test_case "global mutable state" `Quick test_lint_global_state;
          test_case "raw shared cell" `Quick test_lint_raw_cell;
          test_case "direct print" `Quick test_lint_direct_print;
          test_case "missing mli" `Quick test_lint_missing_mli;
          test_case "repo lib/ is clean" `Quick test_lint_repo_clean;
        ] );
      ( "race sanitizer",
        [
          test_case "vclock basics" `Quick test_vclock_basics;
          test_case "lockset narrowing" `Quick test_lockset_narrowing;
          QCheck_alcotest.to_alcotest prop_hb_partial_order;
          test_case "digest neutral" `Quick test_sanitizer_digest_neutral;
          test_case "seeded race caught by both passes" `Quick
            test_seeded_race_both_passes;
          test_case "protocol monitors" `Quick test_protocol_monitors_feed;
          test_case "ivar double fill" `Quick test_sanitizer_ivar_double_fill;
          test_case "use-after-evict via attach_cache" `Quick
            test_sanitizer_use_after_evict;
        ] );
      ( "observation stream",
        [
          test_case "all consumers digest neutral" `Quick
            test_stream_all_consumers_neutral;
          test_case "per-manager filter" `Quick test_stream_per_manager_filter;
        ] );
    ]
