module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Fit = Rhodos_file.Fit
module Fs = Rhodos_file.File_service
module Lm = Rhodos_txn.Lock_manager
module Txn = Rhodos_txn.Txn_service
module Log = Rhodos_txn.Txn_log
module Counter = Rhodos_util.Stats.Counter

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mib n = n * 1024 * 1024

let make_fs ?(ndisks = 1) ?(with_stable = false) sim =
  let disks =
    Array.init ndisks (fun i ->
        let disk =
          Disk.create ~name:(Printf.sprintf "d%d" i) sim
            (Disk.geometry_with_capacity (mib 8))
        in
        let stable =
          if with_stable then
            let g = Disk.geometry_with_capacity (mib 16) in
            Some
              ( Disk.create ~name:(Printf.sprintf "s%da" i) sim g,
                Disk.create ~name:(Printf.sprintf "s%db" i) sim g )
          else None
        in
        let bs = Block.create ~disk ?stable () in
        Block.format bs;
        bs)
  in
  Fs.create ~disks ()

let run_in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim)) in
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "simulation stalled"

let with_txn ?config ?ndisks ?with_stable f =
  run_in_sim (fun sim ->
      let fs = make_fs ?ndisks ?with_stable sim in
      let ts = Txn.create ?config ~fs () in
      f sim fs ts)

(* ------------------------------------------------------------------ *)
(* Lock manager: Table 1                                               *)
(* ------------------------------------------------------------------ *)

let with_lm ?config f =
  run_in_sim (fun sim ->
      let lm = Lm.create ?config ~sim ~on_suspect:(fun ~txn:_ -> ()) () in
      f sim lm)

let item = Lm.Page_item (1, 0)

let test_table1_matrix () =
  (* Exhaustive reproduction of Table 1: held mode x requested mode,
     requester is a different transaction. *)
  let expected =
    [
      (None, Lm.Read_only, true);
      (None, Lm.Iread, true);
      (None, Lm.Iwrite, true);
      (Some Lm.Read_only, Lm.Read_only, true);
      (Some Lm.Read_only, Lm.Iread, true);
      (Some Lm.Read_only, Lm.Iwrite, false);
      (Some Lm.Iread, Lm.Read_only, false);
      (Some Lm.Iread, Lm.Iread, false);
      (Some Lm.Iread, Lm.Iwrite, false);
      (Some Lm.Iwrite, Lm.Read_only, false);
      (Some Lm.Iwrite, Lm.Iread, false);
      (Some Lm.Iwrite, Lm.Iwrite, false);
    ]
  in
  List.iter
    (fun (held, req, ok) ->
      with_lm (fun _ lm ->
          (match held with
          | Some m -> check bool "holder ok" true (Lm.try_acquire lm ~txn:1 item m)
          | None -> ());
          let label =
            Printf.sprintf "%s then %s"
              (match held with Some m -> Lm.mode_to_string m | None -> "free")
              (Lm.mode_to_string req)
          in
          check bool label ok (Lm.try_acquire lm ~txn:2 item req)))
    expected

let test_iread_converts_to_iwrite_same_txn () =
  with_lm (fun _ lm ->
      check bool "IR granted" true (Lm.try_acquire lm ~txn:1 item Lm.Iread);
      check bool "same txn converts to IW" true (Lm.try_acquire lm ~txn:1 item Lm.Iwrite);
      check bool "holds IW" true (Lm.holds lm ~txn:1 item = Some Lm.Iwrite);
      check int "conversion counted" 1 (Counter.get (Lm.stats lm) "conversions"))

let test_ro_shared_with_single_iread () =
  with_lm (fun _ lm ->
      check bool "ro 1" true (Lm.try_acquire lm ~txn:1 item Lm.Read_only);
      check bool "ro 2" true (Lm.try_acquire lm ~txn:2 item Lm.Read_only);
      check bool "one IR joins" true (Lm.try_acquire lm ~txn:3 item Lm.Iread);
      check bool "second IR refused" false (Lm.try_acquire lm ~txn:4 item Lm.Iread);
      (* Once the IR is set, no NEW read-only locks. *)
      check bool "new RO refused after IR" false (Lm.try_acquire lm ~txn:5 item Lm.Read_only))

let test_blocking_acquire_wakes_fifo () =
  with_lm (fun sim lm ->
      check bool "w holds" true (Lm.try_acquire lm ~txn:1 item Lm.Iwrite);
      let order = ref [] in
      let waiter id =
        ignore
          (Sim.spawn sim (fun () ->
               Lm.acquire lm ~txn:id item Lm.Iwrite;
               order := id :: !order;
               Sim.sleep sim 1.;
               Lm.release_all lm ~txn:id))
      in
      waiter 2;
      Sim.sleep sim 0.1;
      waiter 3;
      Sim.sleep sim 0.1;
      waiter 4;
      Sim.sleep sim 1.;
      Lm.release_all lm ~txn:1;
      Sim.sleep sim 50.;
      check (Alcotest.list int) "FIFO wakeups" [ 2; 3; 4 ] (List.rev !order))

let test_record_range_overlap () =
  with_lm (fun _ lm ->
      check bool "range a" true
        (Lm.try_acquire lm ~txn:1 (Lm.Record_item (9, 0, 100)) Lm.Iwrite);
      check bool "overlapping refused" false
        (Lm.try_acquire lm ~txn:2 (Lm.Record_item (9, 50, 100)) Lm.Iwrite);
      check bool "disjoint ok" true
        (Lm.try_acquire lm ~txn:2 (Lm.Record_item (9, 100, 50)) Lm.Iwrite);
      check bool "other file ok" true
        (Lm.try_acquire lm ~txn:3 (Lm.Record_item (8, 0, 100)) Lm.Iwrite))

let test_separate_tables_per_level () =
  with_lm (fun _ lm ->
      ignore (Lm.try_acquire lm ~txn:1 (Lm.Record_item (1, 0, 10)) Lm.Iwrite);
      ignore (Lm.try_acquire lm ~txn:2 (Lm.Page_item (1, 0)) Lm.Iwrite);
      ignore (Lm.try_acquire lm ~txn:3 (Lm.File_item 1) Lm.Iwrite);
      check int "record table" 1 (Lm.table_size lm `Record);
      check int "page table" 1 (Lm.table_size lm `Page);
      check int "file table" 1 (Lm.table_size lm `File))

let test_lease_timeout_contested () =
  run_in_sim (fun sim ->
      let suspected = ref [] in
      let lm_cell = ref None in
      let lm =
        Lm.create
          ~config:{ Lm.lt_ms = 10.; max_renewals = 5; search_cost_ms = 0.; cross_level = false }
          ~sim
          ~on_suspect:(fun ~txn ->
            suspected := (txn, Sim.now sim) :: !suspected;
            match !lm_cell with
            | Some lm -> Lm.release_all lm ~txn
            | None -> ())
          ()
      in
      lm_cell := Some lm;
      check bool "holder" true (Lm.try_acquire lm ~txn:1 item Lm.Iwrite);
      (* A competitor arrives: at the next LT expiry the holder must be
         suspected (contested break), well before N * LT. *)
      let got = ref false in
      let _ = Sim.spawn sim (fun () ->
          Sim.sleep sim 2.;
          Lm.acquire lm ~txn:2 item Lm.Iwrite;
          got := true) in
      Sim.sleep sim 25.;
      (match !suspected with
      | [ (1, at) ] -> check bool "broken at first expiry" true (at <= 11.)
      | _ -> Alcotest.fail "expected exactly one suspect");
      check bool "waiter got the lock" true !got)

let test_lease_renewed_when_uncontested () =
  run_in_sim (fun sim ->
      let suspected = ref 0 in
      let lm_cell = ref None in
      let lm =
        Lm.create
          ~config:{ Lm.lt_ms = 10.; max_renewals = 3; search_cost_ms = 0.; cross_level = false }
          ~sim
          ~on_suspect:(fun ~txn ->
            incr suspected;
            match !lm_cell with Some lm -> Lm.release_all lm ~txn | None -> ())
          ()
      in
      lm_cell := Some lm;
      check bool "holder" true (Lm.try_acquire lm ~txn:1 item Lm.Iwrite);
      Sim.sleep sim 25. (* two renewals so far, no contest *);
      check int "not suspected yet" 0 !suspected;
      check bool "renewals counted" true (Counter.get (Lm.stats lm) "renewals" >= 2);
      (* After N renewals the lock is broken regardless. *)
      Sim.sleep sim 30.;
      check int "suspected after N*LT" 1 !suspected)

let test_cancel_waits_raises () =
  with_lm (fun sim lm ->
      check bool "holder" true (Lm.try_acquire lm ~txn:1 item Lm.Iwrite);
      let raised = ref false in
      let _ = Sim.spawn sim (fun () ->
          try Lm.acquire lm ~txn:2 item Lm.Iwrite
          with Lm.Wait_cancelled 2 -> raised := true) in
      Sim.sleep sim 1.;
      Lm.cancel_waits lm ~txn:2;
      Sim.sleep sim 1.;
      check bool "Wait_cancelled raised" true !raised;
      check int "no waiters left" 0 (Lm.waiter_count lm))

let test_upgrade_deadlock_resolved_by_lease () =
  (* The classic conversion deadlock: two transactions both hold RO on
     the same item and both want IW. Neither can proceed; the lease
     timeout must break it. *)
  run_in_sim (fun sim ->
      let suspected = ref [] in
      let lm_cell = ref None in
      let lm =
        Lm.create
          ~config:{ Lm.lt_ms = 15.; max_renewals = 3; search_cost_ms = 0.; cross_level = false }
          ~sim
          ~on_suspect:(fun ~txn ->
            suspected := txn :: !suspected;
            match !lm_cell with
            | Some lm ->
              Lm.cancel_waits lm ~txn;
              Lm.release_all lm ~txn
            | None -> ())
          ()
      in
      lm_cell := Some lm;
      check bool "ro1" true (Lm.try_acquire lm ~txn:1 item Lm.Read_only);
      check bool "ro2" true (Lm.try_acquire lm ~txn:2 item Lm.Read_only);
      let outcomes = ref [] in
      let upgrader id =
        ignore
          (Sim.spawn sim (fun () ->
               match Lm.acquire lm ~txn:id item Lm.Iwrite with
               | () -> outcomes := (id, `Got) :: !outcomes
               | exception Lm.Wait_cancelled _ ->
                 outcomes := (id, `Cancelled) :: !outcomes))
      in
      upgrader 1;
      upgrader 2;
      Sim.sleep sim 500.;
      check int "both resolved" 2 (List.length !outcomes);
      check bool "at least one suspected" true (List.length !suspected >= 1);
      (* At least one upgrader must have obtained the lock or been
         cleanly cancelled — nobody hangs. *)
      check int "no waiters left" 0 (Lm.waiter_count lm))

(* ------------------------------------------------------------------ *)
(* Cross-level locking (the paper's deferred relaxation)               *)
(* ------------------------------------------------------------------ *)

let cross_config =
  { Lm.default_config with Lm.search_cost_ms = 0.; cross_level = true }

let test_cross_level_conflict_relation () =
  let file_i = Lm.File_item 7 in
  let page0 = Lm.Page_item (7, 0) in
  let page1 = Lm.Page_item (7, 1) in
  let rec_in_page0 = Lm.Record_item (7, 100, 50) in
  let rec_spanning = Lm.Record_item (7, 8000, 400) (* crosses pages 0 and 1 *) in
  check bool "file vs page" true (Lm.items_conflict_cross file_i page0);
  check bool "file vs record" true (Lm.items_conflict_cross file_i rec_in_page0);
  check bool "page vs record inside" true (Lm.items_conflict_cross page0 rec_in_page0);
  check bool "page1 vs record in page0" false
    (Lm.items_conflict_cross page1 rec_in_page0);
  check bool "spanning record hits both pages" true
    (Lm.items_conflict_cross page0 rec_spanning
    && Lm.items_conflict_cross page1 rec_spanning);
  check bool "different file never" false
    (Lm.items_conflict_cross (Lm.File_item 8) page0)

let test_cross_level_blocks_mixed_grants () =
  with_lm ~config:cross_config (fun _ lm ->
      (* A record writer blocks a file-level writer on the same file
         and a page writer on the containing page. *)
      check bool "record granted" true
        (Lm.try_acquire lm ~txn:1 (Lm.Record_item (5, 0, 10)) Lm.Iwrite);
      check bool "file-level refused" false
        (Lm.try_acquire lm ~txn:2 (Lm.File_item 5) Lm.Iwrite);
      check bool "containing page refused" false
        (Lm.try_acquire lm ~txn:3 (Lm.Page_item (5, 0)) Lm.Iwrite);
      check bool "other page fine" true
        (Lm.try_acquire lm ~txn:4 (Lm.Page_item (5, 3)) Lm.Iwrite);
      check bool "other file fine" true
        (Lm.try_acquire lm ~txn:5 (Lm.File_item 6) Lm.Iwrite))

let test_cross_level_off_by_default () =
  with_lm (fun _ lm ->
      ignore (Lm.try_acquire lm ~txn:1 (Lm.Record_item (5, 0, 10)) Lm.Iwrite);
      (* Under the paper's stated assumption the levels do not see
         each other. *)
      check bool "file-level granted" true
        (Lm.try_acquire lm ~txn:2 (Lm.File_item 5) Lm.Iwrite))

let test_cross_level_release_wakes_other_table () =
  with_lm ~config:cross_config (fun sim lm ->
      check bool "file writer" true (Lm.try_acquire lm ~txn:1 (Lm.File_item 9) Lm.Iwrite);
      let got = ref false in
      let _ = Sim.spawn sim (fun () ->
          Lm.acquire lm ~txn:2 (Lm.Record_item (9, 0, 8)) Lm.Iwrite;
          got := true) in
      Sim.sleep sim 1.;
      check bool "record writer blocked" false !got;
      Lm.release_all lm ~txn:1;
      Sim.sleep sim 1.;
      check bool "woken by cross-table release" true !got)

(* ------------------------------------------------------------------ *)
(* Adaptive default locking level (paper conclusions)                  *)
(* ------------------------------------------------------------------ *)

let test_adaptive_locking_suggestion () =
  with_txn (fun sim fs ts ->
      let setup = Txn.tbegin ts in
      let hot = Txn.tcreate ts setup ~locking_level:Fit.Record_level in
      let cold = Txn.tcreate ts setup ~locking_level:Fit.Record_level in
      Txn.twrite ts setup hot ~off:0 (Bytes.make 4096 'h');
      Txn.twrite ts setup cold ~off:0 (Bytes.make 4096 'c');
      Txn.tend ts setup;
      (* A cold file: nobody recently -> file level. *)
      Sim.sleep sim 2000.;
      check bool "cold file -> file level" true
        (Txn.suggest_locking_level ts cold = Fit.File_level);
      (* Three distinct transactions touch the hot file. *)
      for i = 0 to 2 do
        let txn = Txn.tbegin ts in
        ignore (Txn.tread ts txn hot ~off:(i * 512) ~len:16);
        Txn.tend ts txn
      done;
      check bool "hot file -> record level" true
        (Txn.suggest_locking_level ts hot = Fit.Record_level);
      (* Applying stores it in the FIT. *)
      ignore (Txn.apply_suggested_locking ts hot);
      check bool "FIT updated" true
        ((Fs.get_attributes fs hot).Fit.locking_level = Fit.Record_level);
      (* Two sharers -> page level. *)
      Sim.sleep sim 2000.;
      for i = 0 to 1 do
        let txn = Txn.tbegin ts in
        ignore (Txn.tread ts txn hot ~off:(i * 512) ~len:16);
        Txn.tend ts txn
      done;
      check bool "two sharers -> page level" true
        (Txn.suggest_locking_level ts hot = Fit.Page_level))

(* ------------------------------------------------------------------ *)
(* Transaction service                                                 *)
(* ------------------------------------------------------------------ *)

let test_commit_visible () =
  with_txn (fun _ _ ts ->
      let txn = Txn.tbegin ts in
      let f = Txn.tcreate ts txn in
      Txn.twrite ts txn f ~off:0 (Bytes.of_string "hello world");
      (* Tentative data visible to self... *)
      check Alcotest.string "read your writes" "hello world"
        (Bytes.to_string (Txn.tread ts txn f ~off:0 ~len:11));
      Txn.tend ts txn;
      (* ...and committed afterwards. *)
      let txn2 = Txn.tbegin ts in
      check Alcotest.string "visible after commit" "hello world"
        (Bytes.to_string (Txn.tread ts txn2 f ~off:0 ~len:11));
      Txn.tend ts txn2)

let test_abort_discards () =
  with_txn (fun _ fs ts ->
      (* Committed base value. *)
      let txn0 = Txn.tbegin ts in
      let f = Txn.tcreate ts txn0 in
      Txn.twrite ts txn0 f ~off:0 (Bytes.of_string "AAAA");
      Txn.tend ts txn0;
      let txn = Txn.tbegin ts in
      Txn.twrite ts txn f ~off:0 (Bytes.of_string "BBBB");
      Txn.tabort ts txn;
      check Alcotest.string "abort discards tentative" "AAAA"
        (Bytes.to_string (Fs.pread fs f ~off:0 ~len:4)))

let test_abort_undoes_create () =
  with_txn (fun _ fs ts ->
      let txn = Txn.tbegin ts in
      let f = Txn.tcreate ts txn in
      Txn.twrite ts txn f ~off:0 (Bytes.of_string "gone");
      Txn.tabort ts txn;
      try
        ignore (Fs.file_size fs f);
        Alcotest.fail "expected File_not_found"
      with Fs.File_not_found _ -> ())

let test_tentative_invisible_to_others () =
  with_txn (fun sim _ ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup ~locking_level:Fit.Record_level in
      Txn.twrite ts setup f ~off:0 (Bytes.of_string "XXXX");
      Txn.tend ts setup;
      let writer = Txn.tbegin ts in
      Txn.twrite ts writer f ~off:0 (Bytes.of_string "YYYY");
      (* Another transaction reading a DIFFERENT record sees committed
         state and must not see Y even after writer wrote. *)
      let seen = ref "" in
      let _ = Sim.spawn sim (fun () ->
          let reader = Txn.tbegin ts in
          seen := Bytes.to_string (Txn.tread ts reader f ~off:0 ~len:4);
          Txn.tend ts reader) in
      (* The reader blocks on the record lock until writer commits. *)
      Sim.sleep sim 1.;
      check Alcotest.string "reader still blocked" "" !seen;
      Txn.tend ts writer;
      Sim.sleep sim 10.;
      check Alcotest.string "reader sees committed value" "YYYY" !seen)

let test_ro_readers_share () =
  with_txn (fun sim _ ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make 100 'r');
      Txn.tend ts setup;
      (* Warm the caches so the readers measure locking, not I/O. *)
      let warm = Txn.tbegin ts in
      ignore (Txn.tread ts warm f ~off:0 ~len:100);
      Txn.tend ts warm;
      let done_count = ref 0 in
      let t0 = Sim.now sim in
      for _ = 1 to 5 do
        ignore
          (Sim.spawn sim (fun () ->
               let txn = Txn.tbegin ts in
               ignore (Txn.tread ts txn f ~off:0 ~len:100);
               Sim.sleep sim 5. (* hold the read lock a while *);
               Txn.tend ts txn;
               incr done_count))
      done;
      Sim.sleep sim 15.;
      (* All five overlapped: serialized they would need 25ms. *)
      check int "readers ran concurrently" 5 !done_count;
      ignore t0)

let test_wal_preserves_contiguity () =
  with_txn (fun _ fs ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make (16 * 8192) 'c');
      Txn.tend ts setup;
      check int "contiguous before" 1 (Fs.extent_count fs f);
      let txn = Txn.tbegin ts in
      Txn.twrite ts txn f ~off:8192 (Bytes.make 8192 'u');
      Txn.tend ts txn;
      check int "still contiguous after WAL commit" 1 (Fs.extent_count fs f);
      check bool "content updated" true
        (Bytes.equal (Fs.pread fs f ~off:8192 ~len:8192) (Bytes.make 8192 'u'));
      check bool "WAL used" true (Counter.get (Txn.stats ts) "wal_intentions" >= 1);
      check int "no shadow" 0 (Counter.get (Txn.stats ts) "shadow_intentions"))

let test_shadow_destroys_contiguity () =
  with_txn
    ~config:{ Txn.default_config with Txn.force_technique = Some Txn.Shadow_page }
    (fun _ fs ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make (16 * 8192) 'c');
      Txn.tend ts setup;
      let before = Fs.extent_count fs f in
      let txn = Txn.tbegin ts in
      Txn.twrite ts txn f ~off:(4 * 8192) (Bytes.make 8192 's');
      Txn.tend ts txn;
      check bool "extent count grew" true (Fs.extent_count fs f > before);
      check bool "content updated" true
        (Bytes.equal (Fs.pread fs f ~off:(4 * 8192) ~len:8192) (Bytes.make 8192 's'));
      check bool "shadow used" true (Counter.get (Txn.stats ts) "shadow_intentions" >= 1))

let test_hybrid_rule_picks_shadow_for_fragmented () =
  (* Fragment the file with forced shadow commits, then check the
     hybrid rule chooses shadow for the now-discontiguous region. *)
  with_txn (fun _ fs ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make (8 * 8192) 'c');
      Txn.tend ts setup;
      (* Manually fragment via replace_block-style txn. *)
      let frag_ts =
        Txn.create
          ~config:{ Txn.default_config with Txn.force_technique = Some Txn.Shadow_page }
          ~fs ()
      in
      let txn = Txn.tbegin frag_ts in
      Txn.twrite frag_ts txn f ~off:(2 * 8192) (Bytes.make 8192 'x');
      Txn.tend frag_ts txn;
      check bool "fragmented" true (Fs.extent_count fs f > 1);
      (* Now the hybrid service writes across the discontiguity. *)
      let txn = Txn.tbegin ts in
      Txn.twrite ts txn f ~off:(8192 + 100) (Bytes.make (2 * 8192) 'h');
      Txn.tend ts txn;
      check bool "hybrid chose shadow" true
        (Counter.get (Txn.stats ts) "shadow_intentions" >= 1))

let test_record_level_always_wal () =
  with_txn (fun _ _ ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup ~locking_level:Fit.Record_level in
      Txn.twrite ts setup f ~off:0 (Bytes.make 1000 'a');
      Txn.tend ts setup;
      let txn = Txn.tbegin ts in
      Txn.twrite ts txn f ~off:100 (Bytes.of_string "rec");
      Txn.tend ts txn;
      check int "record mode never shadows" 0
        (Counter.get (Txn.stats ts) "shadow_intentions"))

let test_overlapping_writes_same_txn () =
  with_txn (fun _ fs ts ->
      let txn = Txn.tbegin ts in
      let f = Txn.tcreate ts txn in
      Txn.twrite ts txn f ~off:0 (Bytes.make 100 'a');
      Txn.twrite ts txn f ~off:50 (Bytes.make 100 'b');
      Txn.twrite ts txn f ~off:25 (Bytes.make 10 'c');
      Txn.tend ts txn;
      let expected = Bytes.make 150 'a' in
      Bytes.blit (Bytes.make 100 'b') 0 expected 50 100;
      Bytes.blit (Bytes.make 10 'c') 0 expected 25 10;
      check bool "write order respected" true
        (Bytes.equal (Fs.pread fs f ~off:0 ~len:150) expected))

let test_deadlock_resolved_by_timeout () =
  let config =
    {
      Txn.default_config with
      Txn.lock_config = { Lm.lt_ms = 20.; max_renewals = 3; search_cost_ms = 0.; cross_level = false };
    }
  in
  with_txn ~config (fun sim _ ts ->
      let setup = Txn.tbegin ts in
      let f1 = Txn.tcreate ts setup in
      let f2 = Txn.tcreate ts setup in
      Txn.twrite ts setup f1 ~off:0 (Bytes.make 10 '1');
      Txn.twrite ts setup f2 ~off:0 (Bytes.make 10 '2');
      Txn.tend ts setup;
      let outcomes = ref [] in
      let deadlocker a b name =
        ignore
          (Sim.spawn sim (fun () ->
               try
                 let txn = Txn.tbegin ts in
                 Txn.twrite ts txn a ~off:0 (Bytes.make 10 'x');
                 Sim.sleep sim 5. (* let both grab their first lock *);
                 Txn.twrite ts txn b ~off:0 (Bytes.make 10 'y');
                 Txn.tend ts txn;
                 outcomes := (name, `Committed) :: !outcomes
               with Txn.Aborted _ -> outcomes := (name, `Aborted) :: !outcomes))
      in
      deadlocker f1 f2 "t1";
      deadlocker f2 f1 "t2";
      Sim.sleep sim 2000.;
      check int "both finished" 2 (List.length !outcomes);
      let aborted = List.filter (fun (_, o) -> o = `Aborted) !outcomes in
      check bool "timeout broke the deadlock" true (List.length aborted >= 1);
      check bool "timeout abort counted" true
        (Counter.get (Txn.stats ts) "timeout_aborts" >= 1))

let test_two_phase_locking_enforced () =
  with_txn (fun sim _ ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make 100 '0');
      Txn.tend ts setup;
      (* Run a few transactions; the lock manager counts any acquire
         after release (the 2PL violation detector). *)
      for _ = 1 to 5 do
        ignore
          (Sim.spawn sim (fun () ->
               let txn = Txn.tbegin ts in
               ignore (Txn.tread ts txn f ~off:0 ~len:10 ~intent:`Update);
               Txn.twrite ts txn f ~off:0 (Bytes.make 10 'w');
               Txn.tend ts txn))
      done;
      Sim.sleep sim 3000.;
      check int "no 2PL violations" 0
        (Counter.get (Lm.stats (Txn.lock_manager ts)) "2pl_violations"))

let test_bank_transfers_conserve_money () =
  (* The serializability smoke test: concurrent transfers between
     account files keep the total constant, whatever commits/aborts. *)
  with_txn
    ~config:
      {
        Txn.default_config with
        Txn.lock_config = { Lm.lt_ms = 50.; max_renewals = 4; search_cost_ms = 0.; cross_level = false };
      }
    (fun sim _ ts ->
      let naccounts = 4 in
      let setup = Txn.tbegin ts in
      let accounts =
        Array.init naccounts (fun _ ->
            let f = Txn.tcreate ts setup ~locking_level:Fit.File_level in
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 1000L;
            Txn.twrite ts setup f ~off:0 b;
            f)
      in
      Txn.tend ts setup;
      let read_balance txn f =
        Int64.to_int (Bytes.get_int64_le (Txn.tread ts txn f ~off:0 ~len:8 ~intent:`Update) 0)
      in
      let write_balance txn f v =
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int v);
        Txn.twrite ts txn f ~off:0 b
      in
      let rng = Rhodos_util.Rng.create 7 in
      let finished = ref 0 and committed = ref 0 in
      let ntxns = 30 in
      for _ = 1 to ntxns do
        let src = Rhodos_util.Rng.int rng naccounts in
        let dst = (src + 1 + Rhodos_util.Rng.int rng (naccounts - 1)) mod naccounts in
        let amount = 1 + Rhodos_util.Rng.int rng 100 in
        ignore
          (Sim.spawn sim (fun () ->
               (try
                  let txn = Txn.tbegin ts in
                  let s = read_balance txn accounts.(src) in
                  Sim.sleep sim (Rhodos_util.Rng.float rng 3.);
                  let d = read_balance txn accounts.(dst) in
                  write_balance txn accounts.(src) (s - amount);
                  write_balance txn accounts.(dst) (d + amount);
                  Txn.tend ts txn;
                  incr committed
                with Txn.Aborted _ -> ());
               incr finished))
      done;
      Sim.run ~until:60000. sim;
      check int "all transfer attempts finished" ntxns !finished;
      check bool "some committed" true (!committed > 0);
      let audit = Txn.tbegin ts in
      let total =
        Array.fold_left
          (fun acc f ->
            acc
            + Int64.to_int
                (Bytes.get_int64_le (Txn.tread ts audit f ~off:0 ~len:8) 0))
          0 accounts
      in
      Txn.tend ts audit;
      check int "money conserved" (1000 * naccounts) total)

let test_tdelete_applies_at_commit () =
  with_txn (fun _ fs ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make 10 'd');
      Txn.tend ts setup;
      let txn = Txn.tbegin ts in
      Txn.tdelete ts txn f;
      (* Still present before commit. *)
      check int "present before commit" 10 (Fs.file_size fs f);
      Txn.tend ts txn;
      try
        ignore (Fs.file_size fs f);
        Alcotest.fail "expected File_not_found"
      with Fs.File_not_found _ -> ())

let test_tdelete_abort_keeps_file () =
  with_txn (fun _ fs ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make 10 'd');
      Txn.tend ts setup;
      let txn = Txn.tbegin ts in
      Txn.tdelete ts txn f;
      Txn.tabort ts txn;
      check int "file survives abort" 10 (Fs.file_size fs f))

(* ------------------------------------------------------------------ *)
(* Intentions list + crash recovery                                    *)
(* ------------------------------------------------------------------ *)

let test_log_roundtrip () =
  run_in_sim (fun sim ->
      let fs = make_fs sim in
      let bs = Fs.block_service fs 0 in
      let log = Log.create bs ~fragments:16 in
      let records =
        [
          Log.Write { txn = 1; file = 42; off = 100; data = Bytes.of_string "abc" };
          Log.Shadow { txn = 1; file = 42; block_index = 3; shadow_disk = 0; shadow_frag = 99 };
          Log.Commit { txn = 1 };
          Log.Done { txn = 1 };
          Log.Abort { txn = 2 };
        ]
      in
      List.iter (Log.append log) records;
      check bool "scan returns records" true (Log.scan log = records);
      (* Re-attach from disk: survives the in-memory copy being lost. *)
      let log2 = Log.attach bs ~region:(Log.region log) ~fragments:16 in
      check bool "attach recovers records" true (Log.scan log2 = records);
      Log.checkpoint log2;
      check bool "checkpoint clears" true (Log.scan log2 = []);
      let log3 = Log.attach bs ~region:(Log.region log) ~fragments:16 in
      check bool "checkpoint durable" true (Log.scan log3 = []))

let log_record_gen =
  let open QCheck.Gen in
  let txn = int_range 1 99 in
  oneof
    [
      map2
        (fun t (file, off, n) ->
          Log.Write { txn = t; file; off; data = Bytes.make n 'd' })
        txn
        (triple (int_range 0 50) (int_range 0 10000) (int_range 0 64));
      map2
        (fun t (file, bi, frag) ->
          Log.Shadow { txn = t; file; block_index = bi; shadow_disk = 0; shadow_frag = frag })
        txn
        (triple (int_range 0 50) (int_range 0 100) (int_range 0 5000));
      map (fun t -> Log.Commit { txn = t }) txn;
      map (fun t -> Log.Done { txn = t }) txn;
      map (fun t -> Log.Abort { txn = t }) txn;
    ]

let log_roundtrip_prop =
  QCheck.Test.make ~name:"intentions list roundtrips any record sequence" ~count:25
    (QCheck.make QCheck.Gen.(list_size (0 -- 25) log_record_gen))
    (fun records ->
      run_in_sim (fun sim ->
          let fs = make_fs sim in
          let bs = Fs.block_service fs 0 in
          let log = Log.create bs ~fragments:64 in
          List.iter (Log.append log) records;
          let direct = Log.scan log = records in
          let reattached =
            Log.scan (Log.attach bs ~region:(Log.region log) ~fragments:64) = records
          in
          direct && reattached))

let test_log_full () =
  run_in_sim (fun sim ->
      let fs = make_fs sim in
      let log = Log.create (Fs.block_service fs 0) ~fragments:1 in
      try
        for _ = 1 to 1000 do
          Log.append log (Log.Write { txn = 1; file = 1; off = 0; data = Bytes.make 100 'x' })
        done;
        Alcotest.fail "expected Log_full"
      with Log.Log_full -> ())

let test_recovery_redoes_committed () =
  run_in_sim (fun sim ->
      let fs = make_fs ~with_stable:true sim in
      let ts = Txn.create ~fs () in
      let region = Txn.log_region ts in
      (* Committed transaction. *)
      let t1 = Txn.tbegin ts in
      let f = Txn.tcreate ts t1 in
      Txn.twrite ts t1 f ~off:0 (Bytes.of_string "durable!");
      Txn.tend ts t1;
      (* A transaction that logged intentions + Commit but crashed
         before applying: simulate by writing the log records
         directly. *)
      let log = Log.attach (Fs.block_service fs 0) ~region:(fst region) ~fragments:(snd region) in
      Log.append log (Log.Write { txn = 999; file = Fs.id_to_int f; off = 0; data = Bytes.of_string "REDONE__" });
      Log.append log (Log.Commit { txn = 999 });
      (* An in-flight transaction without Commit: must be discarded. *)
      Log.append log (Log.Write { txn = 1000; file = Fs.id_to_int f; off = 0; data = Bytes.of_string "NEVER!!!" });
      (* Crash: lose all volatile state. *)
      ignore (Fs.crash fs);
      let ts2, report = Txn.recover_service ~fs ~log_region:region () in
      check (Alcotest.list int) "redone" [ 999 ] report.Txn.redone_transactions;
      check (Alcotest.list int) "discarded" [ 1000 ] report.Txn.discarded_transactions;
      let txn = Txn.tbegin ts2 in
      check Alcotest.string "redo applied" "REDONE__"
        (Bytes.to_string (Txn.tread ts2 txn f ~off:0 ~len:8));
      Txn.tend ts2 txn)

let test_recovery_is_idempotent () =
  run_in_sim (fun sim ->
      let fs = make_fs ~with_stable:true sim in
      let ts = Txn.create ~fs () in
      let region = Txn.log_region ts in
      let t1 = Txn.tbegin ts in
      let f = Txn.tcreate ts t1 in
      Txn.twrite ts t1 f ~off:0 (Bytes.of_string "steady");
      Txn.tend ts t1;
      ignore (Fs.crash fs);
      let _, r1 = Txn.recover_service ~fs ~log_region:region () in
      let _, r2 = Txn.recover_service ~fs ~log_region:region () in
      check int "second recovery redoes nothing" 0 (List.length r2.Txn.redone_transactions);
      ignore r1;
      let fs_check = Fs.pread fs f ~off:0 ~len:6 in
      check Alcotest.string "data intact" "steady" (Bytes.to_string fs_check))

let test_aborted_txn_not_redone () =
  run_in_sim (fun sim ->
      let fs = make_fs ~with_stable:true sim in
      let ts = Txn.create ~fs () in
      let region = Txn.log_region ts in
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.of_string "keepthis");
      Txn.tend ts setup;
      let victim = Txn.tbegin ts in
      Txn.twrite ts victim f ~off:0 (Bytes.of_string "discard!");
      Txn.tabort ts victim;
      ignore (Fs.crash fs);
      let ts2, report = Txn.recover_service ~fs ~log_region:region () in
      check int "nothing redone" 0 (List.length report.Txn.redone_transactions);
      let txn = Txn.tbegin ts2 in
      check Alcotest.string "committed state intact" "keepthis"
        (Bytes.to_string (Txn.tread ts2 txn f ~off:0 ~len:8));
      Txn.tend ts2 txn)

let test_shadow_commit_cheaper_than_wal_on_commit_io () =
  (* Section 6.7: "the shadow page technique requires lesser I/O
     overhead than the wal technique, because there is no need to copy
     blocks in the commit phase". Measure bytes through the log. *)
  let log_bytes technique =
    with_txn
      ~config:{ Txn.default_config with Txn.force_technique = Some technique }
      (fun _ _ ts ->
        let setup = Txn.tbegin ts in
        let f = Txn.tcreate ts setup in
        Txn.twrite ts setup f ~off:0 (Bytes.make (8 * 8192) 'i');
        Txn.tend ts setup;
        let before = ref 0 in
        let txn = Txn.tbegin ts in
        Txn.twrite ts txn f ~off:0 (Bytes.make (4 * 8192) 'j');
        ignore before;
        Txn.tend ts txn;
        (* The second transaction's intentions dominate the log. *)
        Counter.get (Txn.stats ts) "wal_intentions"
        + Counter.get (Txn.stats ts) "shadow_intentions")
  in
  ignore (log_bytes Txn.Wal);
  (* Structural check is in the bench; here just confirm both paths
     commit correctly (asserted inside). *)
  ignore (log_bytes Txn.Shadow_page)

(* ------------------------------------------------------------------ *)
(* Commit path: each commit applies its own in-memory intentions       *)
(* ------------------------------------------------------------------ *)

let block = Block.block_bytes

let log_records fs ts =
  let region, fragments = Txn.log_region ts in
  Log.scan (Log.attach (Fs.block_service fs 0) ~region ~fragments)

(* The file as the intentions list describes it: every committed
   transaction's records replayed in log order, shadow blocks read
   back from where they were written. *)
let replay_log fs records ~file ~size =
  let model = Bytes.make size '\000' in
  let committed = Hashtbl.create 8 in
  List.iter (function Log.Commit { txn } -> Hashtbl.replace committed txn () | _ -> ()) records;
  List.iter
    (function
      | Log.Write { txn; file = f; off; data } when f = file && Hashtbl.mem committed txn ->
        Bytes.blit data 0 model off (Bytes.length data)
      | Log.Shadow { txn; file = f; block_index; shadow_disk; shadow_frag }
        when f = file && Hashtbl.mem committed txn ->
        let data =
          Block.get_block (Fs.block_service fs shadow_disk) ~pos:shadow_frag
            ~fragments:Block.fragments_per_block
        in
        Bytes.blit data 0 model (block_index * block) block
      | _ -> ())
    records;
  model

(* One transaction, in its own process, writing [tag] over each listed
   block of [f] and committing; (tag, id, committed) goes to
   [outcomes]. *)
let spawn_commit sim ts f outcomes tag blocks =
  ignore
    (Sim.spawn sim (fun () ->
         let txn = Txn.tbegin ts in
         List.iter (fun bi -> Txn.twrite ts txn f ~off:(bi * block) (Bytes.make block tag)) blocks;
         let committed = match Txn.tend ts txn with () -> true | exception Txn.Aborted _ -> false in
         outcomes := (tag, Txn.txn_id txn, committed) :: !outcomes))

let await_outcomes sim outcomes n =
  while List.length !outcomes < n do
    Sim.sleep sim 10.
  done;
  List.sort compare !outcomes

(* A file image whose block [bi] is filled with [owner bi]. *)
let blocks_of nblocks owner = Bytes.init (nblocks * block) (fun i -> owner (i / block))

(* Crash, rebuild the service from the intentions list, and read [f]
   back through it. *)
let check_recovery fs ts f expected ~discarded =
  let region = Txn.log_region ts in
  ignore (Fs.crash fs);
  let ts2, report = Txn.recover_service ~fs ~log_region:region () in
  check (Alcotest.list int) "nothing to redo" [] report.Txn.redone_transactions;
  check (Alcotest.list int) "discarded" discarded report.Txn.discarded_transactions;
  let txn = Txn.tbegin ts2 in
  check bool "recovered file agrees" true
    (Bytes.equal expected (Txn.tread ts2 txn f ~off:0 ~len:(Bytes.length expected)));
  Txn.tend ts2 txn

let test_interleaved_commits_apply_own_intentions () =
  (* Shadow paging reads and writes a block before each append, so two
     concurrent commits interleave their intentions in the log. *)
  with_txn ~with_stable:true
    ~config:{ Txn.default_config with Txn.force_technique = Some Txn.Shadow_page }
    (fun sim fs ts ->
      let nblocks = 8 in
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make (nblocks * block) '.');
      Txn.tend ts setup;
      let outcomes = ref [] in
      spawn_commit sim ts f outcomes 'A' [ 0; 2; 4 ];
      spawn_commit sim ts f outcomes 'B' [ 1; 3; 5 ];
      check bool "both committed" true
        (List.for_all (fun (_, _, ok) -> ok) (await_outcomes sim outcomes 2));
      let records = log_records fs ts in
      let shadow_owners =
        List.filter_map (function Log.Shadow { txn; _ } -> Some txn | _ -> None) records
      in
      let rec switches = function
        | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + switches rest
        | _ -> 0
      in
      check int "six shadow intentions" 6 (List.length shadow_owners);
      check bool "the two commits' intentions interleave" true (switches shadow_owners >= 2);
      let expected =
        blocks_of nblocks (function 0 | 2 | 4 -> 'A' | 1 | 3 | 5 -> 'B' | _ -> '.')
      in
      let size = Bytes.length expected in
      check bool "file holds both commits" true
        (Bytes.equal expected (Fs.pread fs f ~off:0 ~len:size));
      List.iter
        (function
          | Log.Shadow { block_index; shadow_disk; shadow_frag; _ } ->
            check bool "descriptor points at its own shadow block" true
              (Fs.block_location fs f ~block_index = Some (shadow_disk, shadow_frag))
          | _ -> ())
        records;
      check bool "file agrees with the log replay" true
        (Bytes.equal expected (replay_log fs records ~file:(Fs.id_to_int f) ~size));
      check_recovery fs ts f expected ~discarded:[])

let test_commit_skips_foreign_intentions () =
  (* B's commit overflows a one-fragment log after some of its shadow
     intentions have landed before A's Commit record: A applies only
     its own, and B's abort leaves nothing behind. *)
  with_txn ~with_stable:true
    ~config:
      { Txn.default_config with Txn.force_technique = Some Txn.Shadow_page; log_fragments = 1 }
    (fun sim fs ts ->
      let nblocks = 48 in
      let f = Fs.create_file fs in
      Fs.pwrite fs f ~off:0 (Bytes.make (nblocks * block) '.');
      let outcomes = ref [] in
      spawn_commit sim ts f outcomes 'A' [ 0; 2; 4 ];
      spawn_commit sim ts f outcomes 'B' (List.init 40 (fun i -> 5 + i));
      match await_outcomes sim outcomes 2 with
      | [ ('A', a, true); ('B', b, false) ] ->
        let rec b_before_a_commit = function
          | Log.Shadow { txn; _ } :: _ when txn = b -> true
          | Log.Commit { txn } :: _ when txn = a -> false
          | _ :: rest -> b_before_a_commit rest
          | [] -> false
        in
        check bool "B's intentions precede A's commit" true
          (b_before_a_commit (log_records fs ts));
        let expected = blocks_of nblocks (function 0 | 2 | 4 -> 'A' | _ -> '.') in
        check bool "only A's intentions applied" true
          (Bytes.equal expected (Fs.pread fs f ~off:0 ~len:(Bytes.length expected)));
        check_recovery fs ts f expected ~discarded:[ b ]
      | _ -> Alcotest.fail "expected A to commit and B to overflow the log")

let test_commit_alloc_flat_in_log_length () =
  (* A commit must not read the log back: its allocation may not grow
     with the number of records already in the intentions list. *)
  with_txn ~with_stable:true (fun _ fs ts ->
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make (2 * block) '0');
      Txn.tend ts setup;
      let commit i =
        let txn = Txn.tbegin ts in
        Txn.twrite ts txn f ~off:(i mod 2 * block) (Bytes.make 16 (Char.chr (65 + (i mod 26))));
        let m0 = Gc.minor_words () in
        Txn.tend ts txn;
        Gc.minor_words () -. m0
      in
      ignore (commit 0) (* warm the caches *);
      let near_empty = commit 1 in
      for i = 2 to 341 do
        ignore (commit i)
      done;
      check bool "at least 1,000 records logged" true (List.length (log_records fs ts) >= 1000);
      let long_log = commit 342 in
      check int "no checkpoint ran" 0 (Counter.get (Txn.stats ts) "log_checkpoints");
      if long_log > 2. *. near_empty then
        Alcotest.failf "commit on a 1,000-record log allocated %.0f words, near-empty %.0f"
          long_log near_empty)

let serializability_prop =
  (* Random concurrent read-modify-write increments: the final value
     must equal the number of committed increments. *)
  QCheck.Test.make ~name:"concurrent increments serialize" ~count:10
    QCheck.(pair (int_range 2 8) (int_range 1 500))
    (fun (workers, seed) ->
      run_in_sim (fun sim ->
          let fs = make_fs sim in
          let ts =
            Txn.create
              ~config:
                {
                  Txn.default_config with
                  Txn.lock_config =
                    { Lm.lt_ms = 100.; max_renewals = 5; search_cost_ms = 0.; cross_level = false };
                }
              ~fs ()
          in
          let setup = Txn.tbegin ts in
          let f = Txn.tcreate ts setup ~locking_level:Fit.File_level in
          let z = Bytes.create 8 in
          Bytes.set_int64_le z 0 0L;
          Txn.twrite ts setup f ~off:0 z;
          Txn.tend ts setup;
          let rng = Rhodos_util.Rng.create seed in
          let committed = ref 0 in
          for _ = 1 to workers do
            ignore
              (Sim.spawn sim (fun () ->
                   try
                     let txn = Txn.tbegin ts in
                     let v =
                       Int64.to_int
                         (Bytes.get_int64_le
                            (Txn.tread ts txn f ~off:0 ~len:8 ~intent:`Update)
                            0)
                     in
                     Sim.sleep sim (Rhodos_util.Rng.float rng 5.);
                     let b = Bytes.create 8 in
                     Bytes.set_int64_le b 0 (Int64.of_int (v + 1));
                     Txn.twrite ts txn f ~off:0 b;
                     Txn.tend ts txn;
                     incr committed
                   with Txn.Aborted _ -> ()))
          done;
          Sim.run ~until:100000. sim;
          let audit = Txn.tbegin ts in
          let final =
            Int64.to_int (Bytes.get_int64_le (Txn.tread ts audit f ~off:0 ~len:8) 0)
          in
          Txn.tend ts audit;
          final = !committed))

let () =
  Alcotest.run "rhodos_txn"
    [
      ( "lock manager",
        [
          Alcotest.test_case "Table 1 matrix" `Quick test_table1_matrix;
          Alcotest.test_case "IR->IW conversion" `Quick
            test_iread_converts_to_iwrite_same_txn;
          Alcotest.test_case "RO sharing" `Quick test_ro_shared_with_single_iread;
          Alcotest.test_case "FIFO wakeups" `Quick test_blocking_acquire_wakes_fifo;
          Alcotest.test_case "record ranges" `Quick test_record_range_overlap;
          Alcotest.test_case "three tables" `Quick test_separate_tables_per_level;
          Alcotest.test_case "contested lease broken" `Quick test_lease_timeout_contested;
          Alcotest.test_case "uncontested lease renewed" `Quick
            test_lease_renewed_when_uncontested;
          Alcotest.test_case "cancel waits" `Quick test_cancel_waits_raises;
          Alcotest.test_case "upgrade deadlock" `Quick
            test_upgrade_deadlock_resolved_by_lease;
        ] );
      ( "cross-level locking",
        [
          Alcotest.test_case "conflict relation" `Quick
            test_cross_level_conflict_relation;
          Alcotest.test_case "mixed grants blocked" `Quick
            test_cross_level_blocks_mixed_grants;
          Alcotest.test_case "off by default" `Quick test_cross_level_off_by_default;
          Alcotest.test_case "cross-table wakeup" `Quick
            test_cross_level_release_wakes_other_table;
        ] );
      ( "adaptive locking",
        [ Alcotest.test_case "suggestion follows usage" `Quick
            test_adaptive_locking_suggestion ] );
      ( "transactions",
        [
          Alcotest.test_case "commit visible" `Quick test_commit_visible;
          Alcotest.test_case "abort discards" `Quick test_abort_discards;
          Alcotest.test_case "abort undoes create" `Quick test_abort_undoes_create;
          Alcotest.test_case "isolation" `Quick test_tentative_invisible_to_others;
          Alcotest.test_case "readers share" `Quick test_ro_readers_share;
          Alcotest.test_case "overlapping writes" `Quick test_overlapping_writes_same_txn;
          Alcotest.test_case "deadlock timeout" `Quick test_deadlock_resolved_by_timeout;
          Alcotest.test_case "2PL enforced" `Quick test_two_phase_locking_enforced;
          Alcotest.test_case "bank transfers" `Quick test_bank_transfers_conserve_money;
          Alcotest.test_case "tdelete at commit" `Quick test_tdelete_applies_at_commit;
          Alcotest.test_case "tdelete abort" `Quick test_tdelete_abort_keeps_file;
          QCheck_alcotest.to_alcotest serializability_prop;
        ] );
      ( "commit techniques",
        [
          Alcotest.test_case "WAL preserves contiguity" `Quick test_wal_preserves_contiguity;
          Alcotest.test_case "shadow destroys contiguity" `Quick
            test_shadow_destroys_contiguity;
          Alcotest.test_case "hybrid rule" `Quick test_hybrid_rule_picks_shadow_for_fragmented;
          Alcotest.test_case "record level always WAL" `Quick test_record_level_always_wal;
          Alcotest.test_case "commit io" `Quick
            test_shadow_commit_cheaper_than_wal_on_commit_io;
          Alcotest.test_case "interleaved commits apply own intentions" `Quick
            test_interleaved_commits_apply_own_intentions;
          Alcotest.test_case "commit skips foreign intentions" `Quick
            test_commit_skips_foreign_intentions;
          Alcotest.test_case "commit allocation flat in log length" `Quick
            test_commit_alloc_flat_in_log_length;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "log roundtrip" `Quick test_log_roundtrip;
          QCheck_alcotest.to_alcotest log_roundtrip_prop;
          Alcotest.test_case "log full" `Quick test_log_full;
          Alcotest.test_case "redo committed" `Quick test_recovery_redoes_committed;
          Alcotest.test_case "idempotent" `Quick test_recovery_is_idempotent;
          Alcotest.test_case "aborted not redone" `Quick test_aborted_txn_not_redone;
        ] );
    ]
