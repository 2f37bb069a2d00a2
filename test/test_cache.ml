module Sim = Rhodos_sim.Sim
module Cache = Rhodos_cache.Buffer_cache
module Counter = Rhodos_util.Stats.Counter

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let run_in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim)) in
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "process did not finish"

(* A cache over a recording "store" so write-back behaviour is
   observable. *)
let make_cache ?(capacity = 4) ~policy sim =
  let store : (int, bytes) Hashtbl.t = Hashtbl.create 16 in
  let log = ref [] in
  let writeback k data =
    log := k :: !log;
    Hashtbl.replace store k (Bytes.copy data)
  in
  let cache = Cache.create ~sim ~capacity ~policy ~writeback () in
  (cache, store, log)

let data tag = Bytes.make 8 (Char.chr (Char.code 'a' + tag))

let test_miss_then_hit () =
  run_in_sim (fun sim ->
      let c, _, _ = make_cache ~policy:Cache.Write_through sim in
      check (Alcotest.option Alcotest.bytes) "miss" None (Cache.find c 1);
      Cache.insert_clean c 1 (data 1);
      check (Alcotest.option Alcotest.bytes) "hit" (Some (data 1)) (Cache.find c 1);
      let s = Cache.stats c in
      check int "one hit" 1 (Counter.get s "hits");
      check int "one miss" 1 (Counter.get s "misses"))

let test_write_through_persists_immediately () =
  run_in_sim (fun sim ->
      let c, store, _ = make_cache ~policy:Cache.Write_through sim in
      Cache.write c 7 (data 2);
      check bool "persisted now" true (Hashtbl.mem store 7);
      check int "no dirty buffers" 0 (Cache.dirty_count c))

let test_delayed_write_defers () =
  run_in_sim (fun sim ->
      let c, store, _ =
        make_cache ~policy:(Cache.Delayed_write { flush_interval_ms = 0. }) sim
      in
      Cache.write c 7 (data 3);
      check bool "not yet persisted" false (Hashtbl.mem store 7);
      check int "one dirty" 1 (Cache.dirty_count c);
      Cache.flush c;
      check bool "persisted after flush" true (Hashtbl.mem store 7);
      check int "clean after flush" 0 (Cache.dirty_count c))

let test_periodic_flusher () =
  let sim = Sim.create () in
  let c, store, _ =
    make_cache ~policy:(Cache.Delayed_write { flush_interval_ms = 30. }) sim
  in
  let _ = Sim.spawn sim (fun () -> Cache.write c 1 (data 1)) in
  Sim.run ~until:10. sim;
  check bool "not flushed at t=10" false (Hashtbl.mem store 1);
  Sim.run ~until:40. sim;
  check bool "flushed by t=40" true (Hashtbl.mem store 1);
  Cache.stop c;
  Sim.run ~until:1000. sim

let test_lru_eviction () =
  run_in_sim (fun sim ->
      let c, _, _ = make_cache ~capacity:2 ~policy:Cache.Write_through sim in
      Cache.insert_clean c 1 (data 1);
      Cache.insert_clean c 2 (data 2);
      ignore (Cache.find c 1) (* 1 is now most recent *);
      Cache.insert_clean c 3 (data 3) (* evicts 2 *);
      check bool "1 kept" true (Cache.find c 1 <> None);
      check bool "3 kept" true (Cache.find c 3 <> None);
      check bool "2 evicted" true (Cache.find c 2 = None);
      check int "length bounded" 2 (Cache.length c))

let test_dirty_eviction_writes_back () =
  run_in_sim (fun sim ->
      let c, store, _ =
        make_cache ~capacity:1 ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
          sim
      in
      Cache.write c 1 (data 1);
      Cache.write c 2 (data 2) (* evicts dirty 1 *);
      check bool "evicted dirty written back" true (Hashtbl.mem store 1);
      check int "dirty eviction counted" 1
        (Counter.get (Cache.stats c) "dirty_evictions"))

let test_invalidate_drops_dirty () =
  run_in_sim (fun sim ->
      let c, store, _ =
        make_cache ~policy:(Cache.Delayed_write { flush_interval_ms = 0. }) sim
      in
      Cache.write c 1 (data 1);
      Cache.invalidate c 1;
      Cache.flush c;
      check bool "never written" false (Hashtbl.mem store 1))

let test_flush_key () =
  run_in_sim (fun sim ->
      let c, store, _ =
        make_cache ~policy:(Cache.Delayed_write { flush_interval_ms = 0. }) sim
      in
      Cache.write c 1 (data 1);
      Cache.write c 2 (data 2);
      Cache.flush_key c 1;
      check bool "key 1 persisted" true (Hashtbl.mem store 1);
      check bool "key 2 still dirty" false (Hashtbl.mem store 2);
      check int "one dirty left" 1 (Cache.dirty_count c))

let test_crash_loses_dirty () =
  run_in_sim (fun sim ->
      let c, store, _ =
        make_cache ~policy:(Cache.Delayed_write { flush_interval_ms = 0. }) sim
      in
      Cache.write c 1 (data 1);
      Cache.write c 2 (data 2);
      Cache.flush_key c 1;
      let lost = Cache.crash c in
      check int "one dirty buffer lost" 1 lost;
      check bool "flushed data survived below" true (Hashtbl.mem store 1);
      check bool "unflushed data gone" false (Hashtbl.mem store 2);
      check int "cache empty" 0 (Cache.length c))

let test_write_updates_existing () =
  run_in_sim (fun sim ->
      let c, store, _ = make_cache ~policy:Cache.Write_through sim in
      Cache.write c 1 (data 1);
      Cache.write c 1 (data 2);
      check (Alcotest.option Alcotest.bytes) "latest value" (Some (data 2))
        (Cache.find c 1);
      check bool "store has latest" true (Bytes.equal (Hashtbl.find store 1) (data 2)))

let test_flush_order_oldest_first () =
  run_in_sim (fun sim ->
      let c, _, log =
        make_cache ~capacity:8 ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
          sim
      in
      Cache.write c 3 (data 1);
      Cache.write c 1 (data 1);
      Cache.write c 2 (data 1);
      Cache.flush c;
      check (Alcotest.list int) "oldest first" [ 3; 1; 2 ] (List.rev !log))

let test_find_returns_copy () =
  (* Regression: [find] used to hand out the pool's own buffer, so a
     caller scribbling on the result silently corrupted the cached
     block — the exact aliasing bug the file agent hit when a partial
     pwrite edited the bytes returned by a cache hit in place. *)
  run_in_sim (fun sim ->
      let c, _, _ = make_cache ~policy:Cache.Write_through sim in
      Cache.insert_clean c 1 (data 1);
      (match Cache.find c 1 with
      | Some b -> Bytes.fill b 0 (Bytes.length b) 'X'
      | None -> Alcotest.fail "expected a hit");
      check (Alcotest.option Alcotest.bytes) "cache unscathed" (Some (data 1))
        (Cache.find c 1))

let test_read_into_copies_range () =
  (* [read_into] is [find] with the copy going straight into the
     caller's buffer: exactly the asked range lands at the asked spot,
     hits and misses count as [find]'s do, recency is refreshed, and
     the destination is the caller's alone. *)
  run_in_sim (fun sim ->
      let c, _, _ = make_cache ~capacity:2 ~policy:Cache.Write_through sim in
      Cache.insert_clean c 1 (Bytes.of_string "abcdefgh");
      let dst = Bytes.make 8 'Z' in
      check bool "miss" false (Cache.read_into c 9 ~off:0 ~len:8 dst ~dst_off:0);
      check Alcotest.string "a miss leaves dst alone" "ZZZZZZZZ" (Bytes.to_string dst);
      check bool "hit" true (Cache.read_into c 1 ~off:2 ~len:3 dst ~dst_off:4);
      check Alcotest.string "only the range is copied" "ZZZZcdeZ" (Bytes.to_string dst);
      let s = Cache.stats c in
      check int "one hit" 1 (Counter.get s "hits");
      check int "one miss" 1 (Counter.get s "misses");
      Bytes.fill dst 0 8 'X';
      check (Alcotest.option Alcotest.bytes) "dst edits never reach the pool"
        (Some (Bytes.of_string "abcdefgh")) (Cache.find c 1);
      Cache.insert_clean c 2 (data 2);
      ignore (Cache.read_into c 1 ~off:0 ~len:1 dst ~dst_off:0);
      Cache.insert_clean c 3 (data 3);
      check bool "a hit refreshes recency" true (Cache.mem c 1);
      check bool "so the other buffer is the victim" false (Cache.mem c 2))

let test_batch_flush_oldest_first () =
  run_in_sim (fun sim ->
      let batches = ref [] in
      let writeback _ _ = Alcotest.fail "flush must use the batch path" in
      let c =
        Cache.create ~writeback_batch:(fun entries ->
            List.iter (fun (_, _, written) -> written ()) entries;
            batches := List.map (fun (k, _, _) -> k) entries :: !batches)
          ~sim ~capacity:8
          ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
          ~writeback ()
      in
      Cache.write c 3 (data 1);
      Cache.write c 1 (data 2);
      Cache.write c 2 (data 3);
      Cache.flush c;
      check int "one batch" 1 (List.length !batches);
      check (Alcotest.list int) "whole dirty set, oldest first" [ 3; 1; 2 ]
        (List.hd !batches);
      check int "batch flushes counted" 1
        (Counter.get (Cache.stats c) "batch_flushes");
      Cache.flush c;
      check int "clean flush dispatches nothing" 1 (List.length !batches))

let test_flush_keys_subset () =
  run_in_sim (fun sim ->
      let batches = ref [] in
      let c =
        Cache.create ~writeback_batch:(fun entries ->
            List.iter (fun (_, _, written) -> written ()) entries;
            batches := List.map (fun (k, _, _) -> k) entries :: !batches)
          ~sim ~capacity:8
          ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
          ~writeback:(fun _ _ -> ()) ()
      in
      Cache.write c 5 (data 1);
      Cache.write c 9 (data 2);
      Cache.flush_keys c [ 9; 7; 5 ];
      check (Alcotest.list int) "only the dirty requested keys, oldest first"
        [ 5; 9 ] (List.hd !batches);
      check int "nothing left dirty" 0 (Cache.dirty_count c))

let test_batch_marks_clean_per_entry () =
  (* Regression: write_out used to mark the whole dirty set clean
     before handing it to the (blocking, multi-RPC) batch writer, so a
     crash mid-batch lost every not-yet-written buffer without
     counting it. Now a buffer is cleaned only when its entry's
     [written] thunk runs — a batch that dies early leaves the tail
     dirty, and [crash] counts exactly that tail. *)
  run_in_sim (fun sim ->
      let c =
        Cache.create
          ~writeback_batch:(fun entries ->
            (* Persist only the first entry, then die mid-batch. *)
            match entries with
            | (_, _, written) :: _ -> written ()
            | [] -> ())
          ~sim ~capacity:8
          ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
          ~writeback:(fun _ _ -> ()) ()
      in
      Cache.write c 1 (data 1);
      Cache.write c 2 (data 2);
      Cache.write c 3 (data 3);
      Cache.flush c;
      check int "unwritten entries stay dirty" 2 (Cache.dirty_count c);
      check int "crash counts exactly the unwritten tail" 2 (Cache.crash c))

let test_batch_mark_ignores_superseded_data () =
  (* A write that replaces a buffer's bytes after the batch snapshot
     was taken but before that entry goes on the wire must survive:
     the mark-written thunk sees different bytes and leaves the buffer
     dirty for the next flush. *)
  run_in_sim (fun sim ->
      let c_ref = ref None in
      let c =
        Cache.create
          ~writeback_batch:
            (List.iter (fun (k, _, written) ->
                 if k = 1 then Cache.write (Option.get !c_ref) 1 (data 9);
                 written ()))
          ~sim ~capacity:8
          ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
          ~writeback:(fun _ _ -> ()) ()
      in
      c_ref := Some c;
      Cache.write c 1 (data 1);
      Cache.flush c;
      check int "superseded buffer stays dirty" 1 (Cache.dirty_count c);
      check (Alcotest.option Alcotest.bytes) "new bytes retained" (Some (data 9))
        (Cache.find c 1))

let test_on_evict_hook () =
  run_in_sim (fun sim ->
      let evicted = ref [] in
      let c =
        Cache.create ~on_evict:(fun k -> evicted := k :: !evicted) ~sim
          ~capacity:2 ~policy:Cache.Write_through
          ~writeback:(fun _ _ -> ()) ()
      in
      Cache.insert_clean c 1 (data 1);
      Cache.insert_clean c 2 (data 2);
      Cache.insert_clean c 3 (data 3) (* evicts 1 *);
      check (Alcotest.list int) "hook saw the victim" [ 1 ] (List.rev !evicted);
      Cache.invalidate c 2;
      check (Alcotest.list int) "invalidate is not an eviction" [ 1 ]
        (List.rev !evicted))

let test_evict_during_flush_keeps_new_bytes () =
  (* Regression for the flushing-flag eviction guard: a victim evicted
     while its bytes sit in a blocking batch writeback used to get its
     CURRENT bytes persisted by the eviction, marked clean and removed
     — and then the batch clobbered the store with its OLDER snapshot,
     with nothing left dirty to re-flush. The new bytes were silently
     lost. Now mid-flush buffers are skipped by eviction (the pool
     temporarily exceeds capacity instead), the identity check keeps
     the rewritten buffer dirty, and the next flush persists the new
     bytes. *)
  let sim = Sim.create () in
  let persisted : (int, bytes) Hashtbl.t = Hashtbl.create 8 in
  let writeback k d = Hashtbl.replace persisted k (Bytes.copy d) in
  let writeback_batch entries =
    List.iter
      (fun (k, d, written) ->
        Sim.sleep sim 1.0;
        written ();
        Hashtbl.replace persisted k (Bytes.copy d))
      entries
  in
  let c =
    Cache.create ~name:"evflush" ~writeback_batch ~sim ~capacity:3
      ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
      ~writeback ()
  in
  ignore
    (Sim.spawn ~name:"flusher" sim (fun () ->
         Cache.write c 0 (data 0);
         Cache.write c 1 (data 1);
         Cache.write c 2 (data 2);
         Cache.flush c));
  ignore
    (Sim.spawn_at ~name:"mutator" sim ~at:0.5 (fun () ->
         (* Mid-batch: rewrite key 0 with new bytes, then insert enough
            keys that capacity pressure would (pre-fix) evict key 0 and
            persist-then-clobber it. *)
         Cache.write c 0 (data 9);
         Cache.insert_clean c 3 (data 3);
         Cache.insert_clean c 4 (data 4);
         Cache.insert_clean c 5 (data 5);
         Cache.insert_clean c 6 (data 6);
         check bool "pool exceeds capacity rather than corrupting the flush"
           true
           (Cache.length c > Cache.capacity c)));
  ignore (Sim.spawn_at ~name:"second-flush" sim ~at:10. (fun () -> Cache.flush c));
  Sim.run sim;
  check (Alcotest.option Alcotest.bytes) "key 0 durable with the NEW bytes"
    (Some (data 9))
    (Hashtbl.find_opt persisted 0)

let test_use_after_evict_monitor () =
  (* A batch entry whose buffer was invalidated before its thunk ran
     is about to persist a stale snapshot: its stream event must say
     so. *)
  let sim = Sim.create () in
  let events : int list ref = ref [] in
  let writeback_batch entries =
    List.iter
      (fun (_, _, written) ->
        Sim.sleep sim 1.0;
        written ())
      entries
  in
  let c : int Cache.t =
    Cache.create ~writeback_batch ~sim ~capacity:8
      ~policy:(Cache.Delayed_write { flush_interval_ms = 0. })
      ~writeback:(fun _ _ -> ())
      ()
  in
  let on_event : Sim.mon_event -> unit = function
    | Cache.Batch_written { cache; key; stale = true } -> (
      match Cache.same c cache with
      | Some Type.Equal -> events := key :: !events
      | None -> ())
    | _ -> ()
  in
  ignore (Sim.subscribe sim on_event);
  ignore
    (Sim.spawn ~name:"flusher" sim (fun () ->
         Cache.write c 0 (data 0);
         Cache.write c 1 (data 1);
         Cache.flush c));
  ignore (Sim.spawn_at ~name:"invalidator" sim ~at:1.5 (fun () -> Cache.invalidate c 1));
  Sim.run sim;
  check (Alcotest.list int) "monitor saw the stale entry" [ 1 ] !events

let delayed_write_coalesces_prop =
  (* N writes to the same key cost exactly one writeback on flush. *)
  QCheck.Test.make ~name:"delayed-write coalesces repeated writes" ~count:50
    QCheck.(int_range 1 20)
    (fun n ->
      run_in_sim (fun sim ->
          let c, _, log =
            make_cache ~policy:(Cache.Delayed_write { flush_interval_ms = 0. }) sim
          in
          for i = 1 to n do
            Cache.write c 42 (data (i mod 20))
          done;
          Cache.flush c;
          List.length !log = 1))

let cache_never_exceeds_capacity_prop =
  QCheck.Test.make ~name:"cache never exceeds capacity" ~count:50
    QCheck.(pair (int_range 1 6) (small_list (int_bound 20)))
    (fun (cap, keys) ->
      run_in_sim (fun sim ->
          let c, _, _ = make_cache ~capacity:cap ~policy:Cache.Write_through sim in
          List.iter (fun k -> Cache.write c k (data (k mod 20))) keys;
          Cache.length c <= cap))

let () =
  Alcotest.run "rhodos_cache"
    [
      ( "policies",
        [
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "write-through immediate" `Quick
            test_write_through_persists_immediately;
          Alcotest.test_case "delayed-write defers" `Quick test_delayed_write_defers;
          Alcotest.test_case "periodic flusher" `Quick test_periodic_flusher;
          Alcotest.test_case "write updates" `Quick test_write_updates_existing;
          Alcotest.test_case "flush oldest first" `Quick test_flush_order_oldest_first;
          Alcotest.test_case "find returns a copy" `Quick test_find_returns_copy;
          Alcotest.test_case "read_into copies the range" `Quick
            test_read_into_copies_range;
          Alcotest.test_case "batch flush oldest first" `Quick
            test_batch_flush_oldest_first;
          Alcotest.test_case "flush_keys subset" `Quick test_flush_keys_subset;
          Alcotest.test_case "batch marks clean per entry" `Quick
            test_batch_marks_clean_per_entry;
          Alcotest.test_case "batch mark ignores superseded data" `Quick
            test_batch_mark_ignores_superseded_data;
          QCheck_alcotest.to_alcotest delayed_write_coalesces_prop;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "dirty eviction writes back" `Quick
            test_dirty_eviction_writes_back;
          Alcotest.test_case "invalidate drops dirty" `Quick test_invalidate_drops_dirty;
          Alcotest.test_case "flush_key" `Quick test_flush_key;
          Alcotest.test_case "on_evict hook" `Quick test_on_evict_hook;
          QCheck_alcotest.to_alcotest cache_never_exceeds_capacity_prop;
        ] );
      ( "failure",
        [ Alcotest.test_case "crash loses dirty window" `Quick test_crash_loses_dirty ] );
      ( "flush races",
        [
          Alcotest.test_case "evict during flush keeps new bytes" `Quick
            test_evict_during_flush_keeps_new_bytes;
          Alcotest.test_case "use-after-evict monitor" `Quick
            test_use_after_evict_monitor;
        ] );
    ]
