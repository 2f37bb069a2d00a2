(* Unit tests for the AST-based static analysis: call-graph
   construction and name canonicalisation, the may-block fixpoint,
   the lock pass (held-state scan + lock-order cycles), wire-protocol
   coverage, suppressions and baselines — all on inline programs —
   plus the old token engine's weak spots, parse failures, and the
   differential between the two lint entry points over lib/ and the
   committed fixtures. *)

module Source = Rhodos_static.Source
module Callgraph = Rhodos_static.Callgraph
module Mayblock = Rhodos_static.Mayblock
module Lockpass = Rhodos_static.Lockpass
module Finding = Rhodos_static.Finding
module Static = Rhodos_static.Static
module Ast_rules = Rhodos_static.Ast_rules

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let build srcs =
  Callgraph.build
    (List.map (fun (path, src) -> Source.of_string ~path src) srcs)

let analyze srcs =
  Static.analyze_files
    (List.map (fun (path, src) -> Source.of_string ~path src) srcs)

let rules report =
  List.sort_uniq compare
    (List.map (fun (f : Finding.t) -> f.Finding.rule) report.Static.findings)

let has_rule report rule = List.mem rule (rules report)

(* ------------------------------------------------------------------ *)
(* Call graph                                                          *)
(* ------------------------------------------------------------------ *)

let test_callgraph_edges () =
  let g =
    build
      [ ("a.ml", "let g () = Sim.sleep 1.0\nlet f () = g ()\n") ]
  in
  let calls name =
    match Callgraph.node g name with
    | Some n -> List.map fst n.Callgraph.calls
    | None -> Alcotest.failf "node %s missing" name
  in
  check bool "f calls A.g" true (List.mem "A.g" (calls "A.f"));
  check bool "g calls Sim.sleep" true (List.mem "Sim.sleep" (calls "A.g"))

let test_alias_canonicalisation () =
  let g =
    build
      [
        ( "a.ml",
          "module Lm = Rhodos_txn.Lock_manager\n\
           let f lm = Lm.acquire lm ~txn:1 (Lm.File_item 1) Lm.Iwrite\n" );
      ]
  in
  match Callgraph.node g "A.f" with
  | Some n ->
    check bool "aliased acquire canonicalised" true
      (List.mem "Lock_manager.acquire" (List.map fst n.Callgraph.calls))
  | None -> Alcotest.fail "A.f missing"

let test_spawn_args_excluded () =
  let g =
    build
      [
        ( "a.ml",
          "let f sim = ignore (Sim.spawn sim (fun () -> Sim.sleep 1.0))\n" );
      ]
  in
  match Callgraph.node g "A.f" with
  | Some n ->
    check bool "spawned closure's sleep not attributed to f" false
      (List.mem "Sim.sleep" (List.map fst n.Callgraph.calls))
  | None -> Alcotest.fail "A.f missing"

(* ------------------------------------------------------------------ *)
(* May-block fixpoint                                                  *)
(* ------------------------------------------------------------------ *)

let test_mayblock_propagation () =
  let g =
    build [ ("a.ml", "let g () = Sim.sleep 1.0\nlet f () = g ()\n") ]
  in
  let mb = Mayblock.compute g in
  check bool "f may block (time), transitively" true
    (Mayblock.may_block mb "A.f" ~classes:[ Mayblock.Time ] <> []);
  check bool "witness chain ends at the seed" true
    (Mayblock.chain mb "A.f" "Sim.sleep" = [ "A.f"; "A.g"; "Sim.sleep" ])

let test_acquire_opaque () =
  let g =
    build
      [
        ( "a.ml",
          "let f lm = Lock_manager.acquire lm ~txn:1 (File_item 1) 0\n" );
      ]
  in
  let mb = Mayblock.compute g in
  check bool "acquirer blocks with Lock class" true
    (Mayblock.may_block mb "A.f" ~classes:[ Mayblock.Lock ] <> []);
  check bool "lock manager internals do not leak Time reasons" true
    (Mayblock.may_block mb "A.f" ~classes:[ Mayblock.Time; Mayblock.Remote ]
    = [])

(* ------------------------------------------------------------------ *)
(* Lock pass                                                           *)
(* ------------------------------------------------------------------ *)

let bad_block_src =
  "let fetch conn fid = conn.Service_conn.pread fid 0 10\n\
   let locked lm conn fid =\n\
  \  Lock_manager.acquire lm ~txn:1 (File_item 1) 0;\n\
  \  let d = fetch conn fid in\n\
  \  Lock_manager.release_all lm ~txn:1;\n\
  \  d\n"

let test_block_under_lock_caught () =
  let report = analyze [ ("a.ml", bad_block_src) ] in
  check bool "may-block-under-lock found" true
    (has_rule report "may-block-under-lock");
  List.iter
    (fun (f : Finding.t) ->
      if f.Finding.rule = "may-block-under-lock" then
        check bool "witness chain present" true (f.Finding.witness <> []))
    report.Static.findings

let test_release_before_block_silent () =
  let report =
    analyze
      [
        ( "a.ml",
          "let fetch conn fid = conn.Service_conn.pread fid 0 10\n\
           let locked lm conn fid =\n\
          \  Lock_manager.acquire lm ~txn:1 (File_item 1) 0;\n\
          \  Lock_manager.release_all lm ~txn:1;\n\
          \  fetch conn fid\n" );
      ]
  in
  check bool "no finding after release" false
    (has_rule report "may-block-under-lock")

let test_abba_cycle_caught () =
  let report =
    analyze
      [
        ( "a.ml",
          "let one lm =\n\
          \  Lock_manager.acquire lm ~txn:1 (File_item 1) 0;\n\
          \  Lock_manager.acquire lm ~txn:1 (File_item 2) 0;\n\
          \  Lock_manager.release_all lm ~txn:1\n\
           let two lm =\n\
          \  Lock_manager.acquire lm ~txn:2 (File_item 2) 0;\n\
          \  Lock_manager.acquire lm ~txn:2 (File_item 1) 0;\n\
          \  Lock_manager.release_all lm ~txn:2\n" );
      ]
  in
  check bool "ABBA cycle found" true (has_rule report "lock-order-cycle")

let test_lock_order_dag_silent () =
  let report =
    analyze
      [
        ( "a.ml",
          "let one lm =\n\
          \  Lock_manager.acquire lm ~txn:1 (File_item 1) 0;\n\
          \  Lock_manager.acquire lm ~txn:1 (File_item 2) 0;\n\
          \  Lock_manager.release_all lm ~txn:1\n\
           let two lm =\n\
          \  Lock_manager.acquire lm ~txn:2 (File_item 1) 0;\n\
          \  Lock_manager.acquire lm ~txn:2 (File_item 2) 0;\n\
          \  Lock_manager.release_all lm ~txn:2\n" );
      ]
  in
  check bool "consistent order is silent" false
    (has_rule report "lock-order-cycle")

let test_interprocedural_cycle () =
  (* one takes A then (through a helper) B; two takes B then A — the
     cycle only exists once acquire sites compose through the call
     graph. *)
  let report =
    analyze
      [
        ( "a.ml",
          "let helper lm = Lock_manager.acquire lm ~txn:1 (File_item 2) 0\n\
           let one lm =\n\
          \  Lock_manager.acquire lm ~txn:1 (File_item 1) 0;\n\
          \  helper lm;\n\
          \  Lock_manager.release_all lm ~txn:1\n\
           let two lm =\n\
          \  Lock_manager.acquire lm ~txn:2 (File_item 2) 0;\n\
          \  Lock_manager.acquire lm ~txn:2 (File_item 1) 0;\n\
          \  Lock_manager.release_all lm ~txn:2\n" );
      ]
  in
  check bool "interprocedural ABBA found" true
    (has_rule report "lock-order-cycle")

let test_self_edge_not_a_cycle () =
  (* Re-acquiring the same rendered token (a per-page loop) must not
     read as a one-node "cycle". *)
  let report =
    analyze
      [
        ( "a.ml",
          "let loop lm =\n\
          \  Lock_manager.acquire lm ~txn:1 (Page_item p) 0;\n\
          \  Lock_manager.acquire lm ~txn:1 (Page_item p) 0;\n\
          \  Lock_manager.release_all lm ~txn:1\n" );
      ]
  in
  check bool "self edge is not a cycle" false
    (has_rule report "lock-order-cycle")

let test_cell_update_blocking () =
  let report =
    analyze
      [
        ( "a.ml",
          "let bump cell = Sim.Cell.update cell (fun h -> Sim.sleep 1.0; h)\n"
        );
      ]
  in
  check bool "blocking inside Cell.update found" true
    (has_rule report "may-block-in-cell-update")

(* A semaphore is no Lock_manager grant: [release_all] leaves it held,
   so the File_item 2 taken after the release still orders after it,
   closing a cycle with [two]. *)
let test_sem_outlives_release_all () =
  let report =
    analyze
      [
        ( "a.ml",
          "let one t lm =\n\
          \  Sim.Semaphore.acquire t.slots;\n\
          \  Lock_manager.release_all lm ~txn:1;\n\
          \  Lock_manager.acquire lm ~txn:1 (File_item 2) 0;\n\
          \  Lock_manager.release_all lm ~txn:1;\n\
          \  Sim.Semaphore.release t.slots\n\
           let two t lm =\n\
          \  Lock_manager.acquire lm ~txn:2 (File_item 2) 0;\n\
          \  Sim.Semaphore.acquire t.slots;\n\
          \  Sim.Semaphore.release t.slots;\n\
          \  Lock_manager.release_all lm ~txn:2\n" );
      ]
  in
  check bool "sem and File_item 2 form a cycle" true
    (has_rule report "lock-order-cycle")

(* [with_acquire]'s token ends with its closure: the File_item taken
   after it orders after nothing. *)
let test_scoped_sem_ends () =
  let report =
    analyze
      [
        ( "a.ml",
          "let one t lm =\n\
          \  Sim.Semaphore.with_acquire t.slots (fun () -> ());\n\
          \  Lock_manager.acquire lm ~txn:1 (File_item 1) 0;\n\
          \  Lock_manager.release_all lm ~txn:1\n\
           let two t lm =\n\
          \  Lock_manager.acquire lm ~txn:2 (File_item 1) 0;\n\
          \  Sim.Semaphore.with_acquire t.slots (fun () -> ());\n\
          \  Lock_manager.release_all lm ~txn:2\n" );
      ]
  in
  check bool "no cycle through a finished with_acquire" false
    (has_rule report "lock-order-cycle")

(* ------------------------------------------------------------------ *)
(* Wire-protocol coverage                                              *)
(* ------------------------------------------------------------------ *)

let test_protocol_missing_arm () =
  let report =
    analyze
      [
        ( "a.ml",
          "type request = P | Q of int | R of string | S of int\n\
           let handle = function P -> 0 | Q n -> n | R _ -> 1 | _ -> 2\n" );
      ]
  in
  let missing =
    List.filter
      (fun (f : Finding.t) -> f.Finding.rule = "wire-protocol-coverage")
      report.Static.findings
  in
  check int "exactly the one missing constructor" 1 (List.length missing);
  check bool "it names S" true
    (List.for_all (fun (f : Finding.t) -> f.Finding.slug = "S") missing)

let test_protocol_full_coverage_silent () =
  let report =
    analyze
      [
        ( "a.ml",
          "type request = P | Q of int | R of string\n\
           let handle = function P -> 0 | Q n -> n | R _ -> 1\n" );
      ]
  in
  check bool "full coverage is silent" false
    (has_rule report "wire-protocol-coverage")

let test_protocol_extractor_not_dispatcher () =
  (* A single-constructor match ([expect_int]-style) is not the
     dispatcher; it must not make the other constructors "missing". *)
  let report =
    analyze
      [
        ( "a.ml",
          "type response = A | B of int | C of string | D of int\n\
           let expect_b = function B n -> n | _ -> 0\n" );
      ]
  in
  check bool "result extractor is not a dispatcher" false
    (has_rule report "wire-protocol-coverage")

(* ------------------------------------------------------------------ *)
(* Suppressions and baseline                                           *)
(* ------------------------------------------------------------------ *)

let suppressed_src =
  "let fetch conn fid = conn.Service_conn.pread fid 0 10\n\
   let locked lm conn fid =\n\
  \  Lock_manager.acquire lm ~txn:1 (File_item 1) 0;\n\
  \  (* static-ok: may-block-under-lock held across the read by design *)\n\
  \  let d = fetch conn fid in\n\
  \  Lock_manager.release_all lm ~txn:1;\n\
  \  d\n"

let test_suppression () =
  let report = analyze [ ("a.ml", suppressed_src) ] in
  check bool "suppressed finding dropped" false
    (has_rule report "may-block-under-lock");
  check int "and counted" 1 report.Static.suppressed

let test_baseline_round_trip () =
  let report = analyze [ ("a.ml", bad_block_src) ] in
  let keys = List.map Finding.key report.Static.findings in
  check bool "some findings to baseline" true (keys <> []);
  let parsed = Finding.baseline_of_string (Finding.baseline_to_string keys) in
  check bool "baseline round-trips" true
    (List.sort_uniq compare keys = parsed);
  let fresh, stale = Static.against_baseline report ~baseline:parsed in
  check int "baselined run is clean" 0 (List.length fresh);
  check int "no stale keys" 0 (List.length stale);
  let fresh, stale =
    Static.against_baseline report ~baseline:[ "bogus|key|x|y" ]
  in
  check bool "unbaselined findings are fresh" true (fresh <> []);
  check bool "unknown key is stale" true (stale = [ "bogus|key|x|y" ])

(* ------------------------------------------------------------------ *)
(* The retired token engine's weak spots                               *)
(* ------------------------------------------------------------------ *)

(* The per-file lint once ran on a token scan that misread these; the
   parse tree must not. *)
let token_rules src =
  List.map
    (fun (f : Finding.t) -> f.Finding.rule)
    (Static.lint_source ~file:"x.ml" src)

let test_multiline_let_in_not_global () =
  let src =
    "let f () =\n  let state =\n    ref 0\n  in\n  incr state;\n  !state\n"
  in
  check bool "multi-line local let is not module state" false
    (List.mem "global-mutable-state" (token_rules src))

let test_multiline_global_still_caught () =
  let src = "let table =\n  Hashtbl.create 16\n\nlet g () = 1\n" in
  check bool "multi-line module binding still flagged" true
    (List.mem "global-mutable-state" (token_rules src))

let test_sort_needs_token_boundary () =
  let flagged src = List.mem "hashtbl-iter-order" (token_rules src) in
  check bool "resort_marker does not absolve" true
    (flagged
       "let keys t = Hashtbl.fold (fun k _ a -> k :: a) t []\n\
        let resort_marker = 0\n");
  check bool "a real sort absolves" false
    (flagged
       "let keys t = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) t [])\n")

(* ------------------------------------------------------------------ *)
(* Differential: both entry points agree on the rules they share       *)
(* ------------------------------------------------------------------ *)

(* [rhodos_lint DIR] and [rhodos_lint static] run one implementation of
   the shared rules through one suppression reader, so over the same
   files they must report the same (rule, file, line) set. *)
let differential dir =
  let files = Source.load_dir dir in
  let shared (fs : Finding.t list) =
    List.sort_uniq compare
      (List.filter_map
         (fun (f : Finding.t) ->
           if List.mem f.Finding.rule ("parse-failure" :: Ast_rules.static_rules)
           then Some (f.Finding.rule, f.Finding.file, f.Finding.line)
           else None)
         fs)
  in
  let triple = Alcotest.(list (triple string string int)) in
  check triple
    (Printf.sprintf "shared-rule findings over %s" dir)
    (shared (Static.analyze_files files).Static.findings)
    (shared (Static.lint_files files))

let test_differential_lib () = differential "../lib"
let test_differential_fixtures () = differential "fixtures/static"

(* A syntax error is itself a finding, in both entry points, at the
   error's line; nothing else reads the file. The probe lives in a temp
   dir so the pinned fixture report does not move. *)
let test_parse_failure () =
  let dir = Filename.temp_dir "rhodos_static" "" in
  let file name src =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc src);
    path
  in
  let paths =
    [
      file "bad.ml" "let ok = 1\n\nlet x = in 2\nlet y = 3\n";
      file "bad.mli" "";
    ]
  in
  let out = Filename.concat dir "out.txt" in
  let lint args =
    let code =
      Sys.command
        (Filename.quote_command "../bin/rhodos_lint.exe" ~stdout:out
           (args @ [ dir ]))
    in
    let stdout = In_channel.with_open_bin out In_channel.input_all in
    (code, List.filter (( <> ) "") (String.split_on_char '\n' stdout))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (out :: paths);
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (name, args) ->
          let code, findings = lint args in
          check int (name ^ " exits 1") 1 code;
          check (Alcotest.list Alcotest.string)
            (name ^ " reports one parse failure at the error's line")
            [ Filename.concat dir "bad.ml:3: [parse-failure] Syntax error" ]
            findings)
        [ ("rhodos_lint DIR", []); ("rhodos_lint static DIR", [ "static" ]) ])

let test_fixture_self_test () =
  let ok, lines = Static.self_test ~dir:"fixtures/static" in
  if not ok then
    Alcotest.failf "fixture self-test failed:\n%s" (String.concat "\n" lines)

(* ------------------------------------------------------------------ *)
(* Exception flow                                                      *)
(* ------------------------------------------------------------------ *)

module Exnflow = Rhodos_static.Exnflow
module Mayblock' = Rhodos_static.Mayblock

let exnflow srcs =
  let g = build srcs in
  let lock = Lockpass.run g (Mayblock'.compute g) in
  Exnflow.run g lock

let raises_of srcs fn =
  let t, _ = exnflow srcs in
  List.sort compare (Exnflow.raises t fn)

let test_exn_direct_and_transitive () =
  let src = "let f () = raise Not_found\nlet g () = f ()\n" in
  check bool "direct raise in f" true
    (List.mem "Not_found" (raises_of [ ("a.ml", src) ] "A.f"));
  check bool "propagated to g" true
    (List.mem "Not_found" (raises_of [ ("a.ml", src) ] "A.g"))

let test_exn_recursion () =
  let src =
    "exception Exhausted\n\
     let rec f n = if n = 0 then raise Exhausted else f (n - 1)\n"
  in
  check bool "fixpoint over self-recursion" true
    (List.mem "A.Exhausted" (raises_of [ ("a.ml", src) ] "A.f"))

let test_exn_mutual_recursion () =
  let src =
    "exception Odd_zero\n\
     let rec even n = if n = 0 then true else odd (n - 1)\n\
     and odd n = if n = 0 then raise Odd_zero else even (n - 1)\n"
  in
  let srcs = [ ("a.ml", src) ] in
  check bool "odd raises" true
    (List.mem "A.Odd_zero" (raises_of srcs "A.odd"));
  check bool "propagated through the cycle to even" true
    (List.mem "A.Odd_zero" (raises_of srcs "A.even"))

let test_exn_handler_subtraction () =
  let srcs =
    [
      ( "a.ml",
        "let f () = raise Not_found\n\
         let g () = try f () with Not_found -> 0\n\
         let h () = try f () with _ -> 0\n\
         let k () = try f () with e -> raise e\n" );
    ]
  in
  check bool "named arm subtracts" false
    (List.mem "Not_found" (raises_of srcs "A.g"));
  check bool "catch-all subtracts everything" true
    (raises_of srcs "A.h" = []);
  check bool "rebinding catch-all re-raises what it caught" true
    (List.mem "Not_found" (raises_of srcs "A.k"))

let test_swallowed_control_exn () =
  let bad = "let f sim = try Sim.sleep sim 1.0 with _ -> ()\n" in
  let ok =
    "let f sim = try Sim.sleep sim 1.0 with\n\
    \  | Sim.Killed as k -> raise k\n\
    \  | _ -> ()\n"
  in
  check bool "catch-all over a blocking call flagged" true
    (has_rule (analyze [ ("a.ml", bad) ]) "swallowed-control-exn");
  check bool "explicit re-raise arm silent" false
    (has_rule (analyze [ ("a.ml", ok) ]) "swallowed-control-exn")

let test_leak_on_raise () =
  let bad =
    "let find tbl k = Hashtbl.find tbl k\n\
     let f sem tbl k =\n\
    \  Sim.Semaphore.acquire sem;\n\
    \  let v = find tbl k in\n\
    \  Sim.Semaphore.release sem;\n\
    \  v\n"
  in
  let ok =
    "let find tbl k = Hashtbl.find tbl k\n\
     let f sem tbl k = Sim.Semaphore.with_acquire sem (fun () -> find tbl k)\n"
  in
  let report = analyze [ ("a.ml", bad) ] in
  check bool "release only on the normal path flagged" true
    (has_rule report "leak-on-raise");
  List.iter
    (fun (f : Finding.t) ->
      if f.Finding.rule = "leak-on-raise" then
        check bool "leak witness present" true (f.Finding.witness <> []))
    report.Static.findings;
  check bool "with_acquire silent" false
    (has_rule (analyze [ ("a.ml", ok) ]) "leak-on-raise")

let test_ivar_unfilled_on_raise () =
  let bad =
    "let f conn fid iv =\n\
    \  let data = conn.Service_conn.pread fid 0 512 in\n\
    \  Sim.Ivar.fill iv (Ok data)\n"
  in
  let ok =
    "let f conn fid iv =\n\
    \  match conn.Service_conn.pread fid 0 512 with\n\
    \  | data -> Sim.Ivar.fill iv (Ok data)\n\
    \  | exception e -> Sim.Ivar.fill iv (Error e); raise e\n"
  in
  check bool "raise before fill flagged" true
    (has_rule (analyze [ ("a.ml", bad) ]) "ivar-unfilled-on-raise");
  check bool "fill-then-re-raise silent" false
    (has_rule (analyze [ ("a.ml", ok) ]) "ivar-unfilled-on-raise")

let wire_src ~mapped =
  Printf.sprintf
    "exception Stale of int\n\
     type request = Ping of int | Fetch of int\n\
     type wire_error = E_fail of string%s\n\
     let lookup h = if h = 0 then raise (Stale h) else h\n\
     let map_error = function\n\
     %s  | Failure m -> E_fail m\n\
    \  | e -> E_fail (Printexc.to_string e)\n\
     let dispatch req =\n\
    \  try match req with Ping n -> n | Fetch h -> lookup h\n\
    \  with e -> ignore (map_error e); 0\n"
    (if mapped then " | E_stale of int" else "")
    (if mapped then "  | Stale h -> E_stale h\n" else "")

let test_unmapped_wire_error () =
  check bool "declared exn through mapper catch-all flagged" true
    (has_rule (analyze [ ("a.ml", wire_src ~mapped:false) ])
       "unmapped-wire-error");
  check bool "explicit mapper arm silent" false
    (has_rule (analyze [ ("a.ml", wire_src ~mapped:true) ])
       "unmapped-wire-error")

let test_escaping_raise_into_dispatch () =
  let bad =
    "exception Bad of int\n\
     type request = Ping of int | Fetch of int\n\
     let lookup h = if h = 0 then raise (Bad h) else h\n\
     let dispatch req = match req with Ping n -> n | Fetch h -> lookup h\n"
  in
  let ok =
    "exception Bad of int\n\
     type request = Ping of int | Fetch of int\n\
     let lookup h = if h = 0 then raise (Bad h) else h\n\
     let dispatch req =\n\
    \  try match req with Ping n -> n | Fetch h -> lookup h\n\
    \  with Bad _ -> 0\n"
  in
  check bool "unhandled dispatcher flagged" true
    (has_rule (analyze [ ("a.ml", bad) ]) "escaping-raise-into-dispatch");
  check bool "handled dispatcher silent" false
    (has_rule (analyze [ ("a.ml", ok) ]) "escaping-raise-into-dispatch")

let test_exn_baseline_round_trip () =
  let report = analyze [ ("a.ml", wire_src ~mapped:false) ] in
  check bool "something to baseline" true (report.Static.findings <> []);
  let keys =
    Finding.baseline_of_string
      (Finding.baseline_to_string (List.map Finding.key report.Static.findings))
  in
  let fresh, stale = Static.against_baseline report ~baseline:keys in
  check int "new-rule keys round-trip" 0 (List.length fresh);
  check int "no stale keys" 0 (List.length stale)

let test_pass_timings () =
  let c = ref 0. in
  let clock () =
    c := !c +. 1.;
    !c
  in
  let report =
    Static.analyze_files ~clock
      [ Source.of_string ~path:"a.ml" "let f () = raise Not_found\n" ]
  in
  check bool "exnflow pass timed" true
    (List.mem_assoc "exnflow" report.Static.timings);
  List.iter
    (fun (_, s) -> check bool "positive duration" true (s > 0.))
    report.Static.timings

(* [release_all] drops Lock_manager grants only: the semaphore is
   still held when the lookup raises. *)
let test_leak_after_release_all () =
  let src =
    "let f sem lm tbl k =\n\
    \  Sim.Semaphore.acquire sem;\n\
    \  Lock_manager.release_all lm ~txn:1;\n\
    \  let v = Hashtbl.find tbl k in\n\
    \  Sim.Semaphore.release sem;\n\
    \  v\n"
  in
  check bool "semaphore leak past release_all flagged" true
    (has_rule (analyze [ ("a.ml", src) ]) "leak-on-raise")

(* Random call graphs: each function may raise one declared exception
   directly and calls some later-defined functions. The pass's raise
   set must over-approximate the transitive closure of the syntactic
   direct-raise sets over the call edges. *)
let prop_raise_set_over_approximates =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 6) (fun n ->
          list_repeat n
            (pair (opt (int_range 0 4)) (list_size (int_range 0 3) (int_bound (n - 1))))))
  in
  let print fns =
    String.concat "; "
      (List.mapi
         (fun i (d, cs) ->
           Printf.sprintf "f%d raises %s calls [%s]" i
             (match d with None -> "-" | Some k -> "E" ^ string_of_int k)
             (String.concat "," (List.map string_of_int cs)))
         fns)
  in
  QCheck.Test.make ~name:"raise set over-approximates direct raises" ~count:100
    (QCheck.make ~print gen) (fun fns ->
      let n = List.length fns in
      let body (d, cs) =
        String.concat ";\n  "
          (List.map (fun c -> Printf.sprintf "ignore (f%d ())" (c mod n)) cs
          @ [
              (match d with
              | Some k -> Printf.sprintf "raise E%d" k
              | None -> "()");
            ])
      in
      let src =
        String.concat "\n"
          (List.init 5 (fun k -> Printf.sprintf "exception E%d" k))
        ^ "\n"
        ^ String.concat "\nand "
            (List.mapi
               (fun i fn ->
                 Printf.sprintf "%sf%d () =\n  %s"
                   (if i = 0 then "let rec " else "")
                   i (body fn))
               fns)
        ^ "\n"
      in
      let t, _ = exnflow [ ("a.ml", src) ] in
      (* Transitive closure of the syntactic direct-raise sets. *)
      let expected = Array.make n [] in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iteri
          (fun i (d, cs) ->
            let want =
              (match d with Some k -> [ "A.E" ^ string_of_int k ] | None -> [])
              @ List.concat_map (fun c -> expected.(c mod n)) cs
            in
            List.iter
              (fun e ->
                if not (List.mem e expected.(i)) then begin
                  expected.(i) <- e :: expected.(i);
                  changed := true
                end)
              want)
          fns
      done;
      List.for_all
        (fun i ->
          let got = Exnflow.raises t (Printf.sprintf "A.f%d" i) in
          List.for_all (fun e -> List.mem e got) expected.(i))
        (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Race pass: inventory, escape, locksets, torn windows                *)
(* ------------------------------------------------------------------ *)

module Racepass = Rhodos_static.Racepass

let race srcs =
  let g = build srcs in
  let mb = Mayblock'.compute g in
  Racepass.run g mb (Lockpass.run g mb)

let race_rules srcs =
  List.sort_uniq compare
    (List.map
       (fun (f : Finding.t) -> f.Finding.rule)
       (race srcs).Racepass.findings)

let torn_field_src =
  "type counter = { mutable hits : int }\n\
   let worker r =\n\
  \  let seen = r.hits in\n\
  \  Sim.sleep 1.0;\n\
  \  r.hits <- seen + 1\n"

let two_spawns = "let main sim =\n\
  \  let r = { hits = 0 } in\n\
  \  ignore (Sim.spawn sim (fun () -> worker r));\n\
  \  ignore (Sim.spawn sim (fun () -> worker r))\n"

let test_race_inventory_escape () =
  let r = race [ ("a.ml", torn_field_src ^ two_spawns) ] in
  check bool "torn two-root field race caught" true
    (List.exists
       (fun (f : Finding.t) -> f.Finding.rule = "static-race")
       r.Racepass.findings);
  match
    List.find_opt
      (fun (l : Racepass.location) -> l.Racepass.l_id = "field:A.hits")
      r.Racepass.locations
  with
  | Some l ->
    check int "two roots reach it" 2 (List.length l.Racepass.l_roots);
    check bool "empty protection" true (l.Racepass.l_locks = [])
  | None -> Alcotest.fail "field:A.hits missing from protection map"

let test_race_single_root_silent () =
  let one_spawn =
    "let main sim =\n\
    \  let r = { hits = 0 } in\n\
    \  ignore (Sim.spawn sim (fun () -> worker r))\n"
  in
  check (Alcotest.list Alcotest.string) "one root cannot race" []
    (race_rules [ ("a.ml", torn_field_src ^ one_spawn) ])

let test_race_multiplicity () =
  (* One syntactic spawn site, but the local function that runs it is
     used twice — the site must count as two concurrent roots. *)
  let main =
    "let main sim =\n\
    \  let r = { hits = 0 } in\n\
    \  let go () = ignore (Sim.spawn sim (fun () -> worker r)) in\n\
    \  go ();\n\
    \  go ()\n"
  in
  check bool "doubled spawn site escapes" true
    (List.mem "static-race" (race_rules [ ("a.ml", torn_field_src ^ main) ]))

let test_race_torn_window_gate () =
  (* Same two-root shape, but the read and write-back sit in one
     atomic window (the sleep comes after both): silent. *)
  let atomic =
    "type counter = { mutable hits : int }\n\
     let worker r =\n\
    \  r.hits <- r.hits + 1;\n\
    \  Sim.sleep 1.0\n"
  in
  check (Alcotest.list Alcotest.string) "no blocking call between accesses"
    []
    (race_rules [ ("a.ml", atomic ^ two_spawns) ])

let test_race_consistent_lockset_silent () =
  let locked =
    "type counter = { mutable hits : int }\n\
     let worker r =\n\
    \  Lock_manager.acquire lm ~txn:1 (File_item 7) Iwrite;\n\
    \  let seen = r.hits in\n\
    \  Lock_manager.acquire lm ~txn:1 (Page_item (7, 0)) Iwrite;\n\
    \  r.hits <- seen + 1;\n\
    \  Lock_manager.release_all lm ~txn:1\n"
  in
  check (Alcotest.list Alcotest.string)
    "common File item silences the torn window" []
    (race_rules [ ("a.ml", locked ^ two_spawns) ])

let test_race_ivar_handoff_silent () =
  let src =
    "type slot = { mutable payload : int }\n\
     let producer r iv =\n\
    \  r.payload <- 1;\n\
    \  Sim.sleep 1.0;\n\
    \  r.payload <- 42;\n\
    \  Sim.Ivar.fill iv ()\n\
     let consumer r iv =\n\
    \  ignore (Sim.Ivar.read iv);\n\
    \  let a = r.payload in\n\
    \  Sim.sleep 1.0;\n\
    \  ignore (a + r.payload)\n\
     let main sim =\n\
    \  let r = { payload = 0 } in\n\
    \  let iv = Sim.Ivar.create sim in\n\
    \  ignore (Sim.spawn sim (fun () -> producer r iv));\n\
    \  ignore (Sim.spawn sim (fun () -> consumer r iv))\n"
  in
  check (Alcotest.list Alcotest.string) "handoff token covers every site" []
    (race_rules [ ("a.ml", src) ])

let test_race_entry_lockset () =
  (* The helper takes no lock itself; protection must flow in from
     the call sites as the entry-lockset meet. *)
  let helper =
    "type counter = { mutable hits : int }\n\
     let helper r =\n\
    \  let seen = r.hits in\n\
    \  Sim.sleep 1.0;\n\
    \  r.hits <- seen + 1\n"
  in
  let locked_caller =
    "let locked r lm =\n\
    \  Lock_manager.acquire lm ~txn:1 (File_item 3) Iwrite;\n\
    \  helper r;\n\
    \  Lock_manager.release_all lm ~txn:1\n"
  in
  let spawn_two callee =
    Printf.sprintf
      "let main sim lm =\n\
      \  let r = { hits = 0 } in\n\
      \  ignore (Sim.spawn sim (fun () -> %s));\n\
      \  ignore (Sim.spawn sim (fun () -> %s))\n"
      callee callee
  in
  check (Alcotest.list Alcotest.string) "meet over locked callers protects"
    []
    (race_rules [ ("a.ml", helper ^ locked_caller ^ spawn_two "locked r lm") ]);
  (* One unlocked caller must empty the meet: *)
  let shared_mixed =
    helper ^ locked_caller
    ^ "let unlocked r = helper r\n"
    ^ "let main sim lm =\n\
      \  let r = { hits = 0 } in\n\
      \  ignore (Sim.spawn sim (fun () -> locked r lm));\n\
      \  ignore (Sim.spawn sim (fun () -> unlocked r))\n"
  in
  check bool "one unlocked caller empties the meet" true
    (List.mem "static-race" (race_rules [ ("a.ml", shared_mixed) ]))

let test_race_ref_instance_sensitivity () =
  (* A function-local ref reached only through calls is one fresh
     instance per activation: never shared, never reported. *)
  let fresh_per_call =
    "let count () =\n\
    \  let i = ref 0 in\n\
    \  let v = !i in\n\
    \  Sim.sleep 1.0;\n\
    \  i := v + 1\n\
     let main sim =\n\
    \  ignore (Sim.spawn sim (fun () -> count ()));\n\
    \  ignore (Sim.spawn sim (fun () -> count ()))\n"
  in
  check (Alcotest.list Alcotest.string) "callee refs are per-activation" []
    (race_rules [ ("a.ml", fresh_per_call) ]);
  (* The same ref captured by the owner's own spawned closures is one
     shared instance — that must still be caught. *)
  let captured =
    "let owner sim =\n\
    \  let acc = ref 0 in\n\
    \  ignore\n\
    \    (Sim.spawn sim (fun () ->\n\
    \         let v = !acc in\n\
    \         Sim.sleep 1.0;\n\
    \         acc := v + 1));\n\
    \  ignore\n\
    \    (Sim.spawn sim (fun () ->\n\
    \         let v = !acc in\n\
    \         Sim.sleep 1.0;\n\
    \         acc := v + 1))\n"
  in
  check bool "owner's captured ref is shared" true
    (List.mem "static-race" (race_rules [ ("a.ml", captured) ]))

let test_race_unmonitored_global () =
  let src =
    "let minted = ref 0\n\
     let next () = minted := !minted + 1; !minted\n\
     let main sim =\n\
    \  ignore (Sim.spawn sim (fun () -> ignore (next ())));\n\
    \  ignore (Sim.spawn sim (fun () -> ignore (next ())))\n"
  in
  let rules = race_rules [ ("a.ml", src) ] in
  check bool "module-level mutable flagged" true
    (List.mem "unmonitored-shared-state" rules);
  check bool "atomic increment is not a static race" false
    (List.mem "static-race" rules)

let test_race_cell_rule () =
  let src =
    "let worker c =\n\
    \  let v = Sim.Cell.get c in\n\
    \  Sim.sleep 1.0;\n\
    \  Sim.Cell.set c (v + 1)\n\
     let main sim =\n\
    \  let c = Sim.Cell.create ~name:\"t:c\" sim 0 in\n\
    \  ignore (Sim.spawn sim (fun () -> worker c));\n\
    \  ignore (Sim.spawn sim (fun () -> worker c))\n"
  in
  let r = race [ ("a.ml", src) ] in
  check bool "torn Data-cell write caught" true
    (List.exists
       (fun (f : Finding.t) -> f.Finding.rule = "unsynchronized-cell-write")
       r.Racepass.findings);
  check bool "cell name recovered" true
    (List.exists
       (fun (l : Racepass.location) ->
         l.Racepass.l_cell_name = Some "t:c")
       r.Racepass.locations)

let test_race_pass_timed () =
  let c = ref 0. in
  let clock () =
    c := !c +. 1.;
    !c
  in
  let report =
    Static.analyze_files ~clock
      [ Source.of_string ~path:"a.ml" "let f () = ()\n" ]
  in
  check bool "racepass timed" true
    (List.mem_assoc "racepass" report.Static.timings)

(* The seeded-race fixture the dynamic sanitizer catches must be
   flagged statically too (pre-suppression, so call the pass
   directly). *)
let test_race_differential_seeded () =
  let path = "../lib/analysis/scenarios.ml" in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let r = race [ ("scenarios.ml", src) ] in
    check bool "seeded cell in protection map with sanitizer's name" true
      (List.exists
         (fun (l : Racepass.location) ->
           l.Racepass.l_cell_name = Some "model:shared-counter")
         r.Racepass.locations);
    check bool "seeded race flagged statically" true
      (List.exists
         (fun (f : Finding.t) ->
           f.Finding.rule = "unsynchronized-cell-write"
           && f.Finding.slug = "cell:counter")
         r.Racepass.findings)
  end

(* Byte-identical output across two runs over the same sources: the
   --json report (findings and protection map) must be reproducible
   so baselines and CI diffs are trustworthy. *)
let test_race_json_deterministic () =
  let srcs =
    [
      ("a.ml", torn_field_src ^ two_spawns);
      ( "b.ml",
        "let minted = ref 0\n\
         let next () = minted := !minted + 1; !minted\n\
         let main sim =\n\
        \  ignore (Sim.spawn sim (fun () -> ignore (next ())));\n\
        \  ignore (Sim.spawn sim (fun () -> ignore (next ())))\n" );
    ]
  in
  let render () =
    let report = analyze srcs in
    Finding.list_to_json
      ~extras:
        [ ("protection_map",
           Racepass.locations_to_json report.Static.race_locations) ]
      report.Static.findings
  in
  let one = render () in
  let two = render () in
  check bool "identical JSON across runs" true (String.equal one two)

(* Must-lockset readings of the shared lock events: a semaphore held
   across [release_all] still protects; [try_acquire] may fail and
   protects nothing; [with_acquire] protects only inside its closure. *)
let race_worker body =
  Printf.sprintf
    "type counter = { mutable hits : int }\n\
     let worker r sem lm =\n\
    \  %s;\n\
    \  let seen = r.hits in\n\
    \  Sim.sleep 1.0;\n\
    \  r.hits <- seen + 1\n\
     let main sim sem lm =\n\
    \  let r = { hits = 0 } in\n\
    \  ignore (Sim.spawn sim (fun () -> worker r sem lm));\n\
    \  ignore (Sim.spawn sim (fun () -> worker r sem lm))\n"
    body

let test_race_lock_events () =
  check (Alcotest.list Alcotest.string) "semaphore survives release_all" []
    (race_rules
       [ ("a.ml",
          race_worker
            "Sim.Semaphore.acquire sem; Lock_manager.release_all lm ~txn:1") ]);
  check bool "try_acquire protects nothing" true
    (List.mem "static-race"
       (race_rules
          [ ("a.ml",
             race_worker
               "ignore (Lock_manager.try_acquire lm ~txn:1 (File_item 7) Iwrite)")
          ]));
  check bool "with_acquire protects only its closure" true
    (List.mem "static-race"
       (race_rules
          [ ("a.ml",
             race_worker "Sim.Semaphore.with_acquire sem (fun () -> ())") ]))

(* Random lock nests: whatever the pass infers at an access site must
   be a subset of the items the program syntactically acquires —
   locksets are evidence, never invention. *)
let prop_lockset_subset =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 4) (fun n ->
          list_repeat n
            (triple
               (list_size (int_range 0 2) (int_bound 3))
               bool
               (list_size (int_range 0 2) (int_bound (max 0 (n - 1)))))))
  in
  let print fns =
    String.concat "; "
      (List.mapi
         (fun i (ks, w, cs) ->
           Printf.sprintf "f%d acquires [%s]%s calls [%s]" i
             (String.concat "," (List.map string_of_int ks))
             (if w then " writes" else "")
             (String.concat "," (List.map string_of_int cs)))
         fns)
  in
  QCheck.Test.make ~name:"inferred locksets are syntactically acquired"
    ~count:60 (QCheck.make ~print gen) (fun fns ->
      let n = List.length fns in
      let body (ks, w, cs) =
        String.concat ";\n  "
          (List.map
             (fun k ->
               Printf.sprintf
                 "Lock_manager.acquire lm ~txn:1 (File_item %d) Iwrite" k)
             ks
          @ (if w then [ "shared := !shared + 1"; "Sim.sleep 1.0";
                         "shared := !shared + 1" ]
             else [ "Sim.sleep 1.0" ])
          @ List.map (fun c -> Printf.sprintf "ignore (f%d lm)" (c mod n)) cs
          @ [ "Lock_manager.release_all lm ~txn:1" ])
      in
      let src =
        "let shared = ref 0\n"
        ^ String.concat "\nand "
            (List.mapi
               (fun i fn ->
                 Printf.sprintf "%sf%d lm =\n  %s"
                   (if i = 0 then "let rec " else "")
                   i (body fn))
               fns)
        ^ "\nlet main sim lm =\n\
          \  ignore (Sim.spawn sim (fun () -> f0 lm));\n\
          \  ignore (Sim.spawn sim (fun () -> f0 lm))\n"
      in
      let acquired =
        List.sort_uniq compare
          (List.concat_map
             (fun (ks, _, _) ->
               List.map (fun k -> Printf.sprintf "File_item %d" k) ks)
             fns)
      in
      let r = race [ ("a.ml", src) ] in
      List.for_all
        (fun (l : Racepass.location) ->
          List.for_all
            (fun (a : Racepass.access) ->
              List.for_all (fun t -> List.mem t acquired) a.Racepass.a_locks)
            l.Racepass.l_accesses
          && List.for_all (fun t -> List.mem t acquired) l.Racepass.l_locks)
        r.Racepass.locations)

(* The fixture sweep's whole --json report, timings aside, is pinned
   to a committed golden file: finding lines, witness chains, counts
   and the protection map. After a deliberate change, regenerate it
   from test/ with [rhodos_lint static --json fixtures/static] and the
   "timings" array emptied. The file sits beside, not inside, the
   fixture directory, so the sweep never reads it. *)
let test_fixture_golden () =
  let report = Static.analyze ~dirs:[ "fixtures/static" ] () in
  let got =
    Finding.list_to_json ~suppressed:report.Static.suppressed
      ~parse_failures:
        (List.map (fun (p, e) -> p ^ ": " ^ e) report.Static.parse_failures)
      ~extras:
        [ ("protection_map",
           Racepass.locations_to_json report.Static.race_locations) ]
      report.Static.findings
  in
  let ic = open_in_bin "fixtures/static.expected.json" in
  let want = String.trim (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  if got <> want then begin
    let n = min (String.length got) (String.length want) in
    let rec first i = if i < n && got.[i] = want.[i] then first (i + 1) else i in
    let i = first 0 in
    let around s =
      let lo = max 0 (i - 80) in
      String.sub s lo (min 200 (String.length s - lo))
    in
    Alcotest.failf
      "fixture JSON differs at byte %d:\n want ...%s...\n got  ...%s..." i
      (around want) (around got)
  end

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "static"
    [
      ( "callgraph",
        [
          Alcotest.test_case "edges" `Quick test_callgraph_edges;
          Alcotest.test_case "alias canonicalisation" `Quick
            test_alias_canonicalisation;
          Alcotest.test_case "spawn args excluded" `Quick
            test_spawn_args_excluded;
        ] );
      ( "mayblock",
        [
          Alcotest.test_case "propagation + chain" `Quick
            test_mayblock_propagation;
          Alcotest.test_case "acquire opaqueness" `Quick test_acquire_opaque;
        ] );
      ( "lockpass",
        [
          Alcotest.test_case "block under lock caught" `Quick
            test_block_under_lock_caught;
          Alcotest.test_case "release first silent" `Quick
            test_release_before_block_silent;
          Alcotest.test_case "ABBA cycle caught" `Quick test_abba_cycle_caught;
          Alcotest.test_case "DAG silent" `Quick test_lock_order_dag_silent;
          Alcotest.test_case "interprocedural cycle" `Quick
            test_interprocedural_cycle;
          Alcotest.test_case "self edge not a cycle" `Quick
            test_self_edge_not_a_cycle;
          Alcotest.test_case "blocking in Cell.update" `Quick
            test_cell_update_blocking;
          Alcotest.test_case "sem outlives release_all" `Quick
            test_sem_outlives_release_all;
          Alcotest.test_case "with_acquire scope ends" `Quick
            test_scoped_sem_ends;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "missing arm" `Quick test_protocol_missing_arm;
          Alcotest.test_case "full coverage silent" `Quick
            test_protocol_full_coverage_silent;
          Alcotest.test_case "extractor is not a dispatcher" `Quick
            test_protocol_extractor_not_dispatcher;
        ] );
      ( "driver",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "baseline round trip" `Quick
            test_baseline_round_trip;
          Alcotest.test_case "fixture self-test" `Quick test_fixture_self_test;
          Alcotest.test_case "fixture golden JSON" `Quick test_fixture_golden;
          Alcotest.test_case "parse failure is a finding" `Quick
            test_parse_failure;
        ] );
      ( "token-engine",
        [
          Alcotest.test_case "multi-line let ... in" `Quick
            test_multiline_let_in_not_global;
          Alcotest.test_case "multi-line global caught" `Quick
            test_multiline_global_still_caught;
          Alcotest.test_case "sort token boundary" `Quick
            test_sort_needs_token_boundary;
        ] );
      ( "exnflow",
        [
          Alcotest.test_case "direct and transitive" `Quick
            test_exn_direct_and_transitive;
          Alcotest.test_case "recursion" `Quick test_exn_recursion;
          Alcotest.test_case "mutual recursion" `Quick
            test_exn_mutual_recursion;
          Alcotest.test_case "handler subtraction" `Quick
            test_exn_handler_subtraction;
          Alcotest.test_case "swallowed control exn" `Quick
            test_swallowed_control_exn;
          Alcotest.test_case "leak on raise" `Quick test_leak_on_raise;
          Alcotest.test_case "ivar unfilled on raise" `Quick
            test_ivar_unfilled_on_raise;
          Alcotest.test_case "unmapped wire error" `Quick
            test_unmapped_wire_error;
          Alcotest.test_case "escaping raise into dispatch" `Quick
            test_escaping_raise_into_dispatch;
          Alcotest.test_case "baseline round trip (new rules)" `Quick
            test_exn_baseline_round_trip;
          Alcotest.test_case "per-pass timings" `Quick test_pass_timings;
          QCheck_alcotest.to_alcotest prop_raise_set_over_approximates;
          Alcotest.test_case "sem leak past release_all" `Quick
            test_leak_after_release_all;
        ] );
      ( "racepass",
        [
          Alcotest.test_case "inventory and escape" `Quick
            test_race_inventory_escape;
          Alcotest.test_case "single root silent" `Quick
            test_race_single_root_silent;
          Alcotest.test_case "spawn-site multiplicity" `Quick
            test_race_multiplicity;
          Alcotest.test_case "torn-window gate" `Quick
            test_race_torn_window_gate;
          Alcotest.test_case "consistent lockset silent" `Quick
            test_race_consistent_lockset_silent;
          Alcotest.test_case "ivar handoff silent" `Quick
            test_race_ivar_handoff_silent;
          Alcotest.test_case "interprocedural entry lockset" `Quick
            test_race_entry_lockset;
          Alcotest.test_case "ref instance sensitivity" `Quick
            test_race_ref_instance_sensitivity;
          Alcotest.test_case "unmonitored global" `Quick
            test_race_unmonitored_global;
          Alcotest.test_case "cell rule + name" `Quick test_race_cell_rule;
          Alcotest.test_case "pass timed" `Quick test_race_pass_timed;
          Alcotest.test_case "seeded race caught statically" `Quick
            test_race_differential_seeded;
          Alcotest.test_case "deterministic JSON" `Quick
            test_race_json_deterministic;
          QCheck_alcotest.to_alcotest prop_lockset_subset;
          Alcotest.test_case "lock event readings" `Quick test_race_lock_events;
        ] );
      ( "differential",
        [
          Alcotest.test_case "lib/" `Quick test_differential_lib;
          Alcotest.test_case "fixtures" `Quick test_differential_fixtures;
        ] );
    ]
