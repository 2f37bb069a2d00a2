module Sim = Rhodos_sim.Sim
module W = Rhodos_workload.Workload
module Rng = Rhodos_util.Rng
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Net = Rhodos_net.Net
module Bullet = Rhodos_baseline.Bullet_server
module Ffa = Rhodos_baseline.First_fit_allocator

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let run_in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim)) in
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "simulation stalled"

(* ------------------------------------------------------------------ *)
(* Workload generators                                                 *)
(* ------------------------------------------------------------------ *)

let test_sequential_covers_file () =
  let ops = W.sequential_read ~file:1 ~size:10000 ~chunk:4096 in
  check int "op count" 3 (List.length ops);
  let total = List.fold_left (fun acc op -> acc + W.op_len op) 0 ops in
  check int "covers every byte" 10000 total;
  check bool "all reads" true (List.for_all W.is_read ops)

let test_random_ops_bounds () =
  let rng = Rng.create 3 in
  let ops = W.random_ops ~rng ~file:7 ~size:100000 ~count:500 ~chunk:4096 ~read_fraction:0.7 in
  check int "count" 500 (List.length ops);
  List.iter
    (fun op ->
      let off = match op with W.Read { off; _ } | W.Write { off; _ } -> off in
      check bool "offset in range" true (off >= 0 && off + W.op_len op <= 100000);
      check int "file" 7 (W.op_file op))
    ops;
  let reads = List.length (List.filter W.is_read ops) in
  check bool "roughly 70% reads" true (reads > 300 && reads < 420)

let test_hotspot_skew () =
  let rng = Rng.create 5 in
  let files = Array.init 10 (fun i -> (i, 8192)) in
  let ops = W.hotspot_ops ~rng ~files ~count:2000 ~chunk:1024 ~read_fraction:1.0 ~theta:2.0 in
  let hits = Array.make 10 0 in
  List.iter (fun op -> hits.(W.op_file op) <- hits.(W.op_file op) + 1) ops;
  check bool "file 0 hottest" true (hits.(0) > hits.(9))

let test_working_set_rereads () =
  let rng = Rng.create 1 in
  let files = [| (1, 8192); (2, 4096) |] in
  let ops = W.working_set_rereads ~rng ~files ~rounds:3 ~chunk:8192 in
  (* Each round: 1 read of file1 + 1 read of file2. *)
  check int "ops" 6 (List.length ops)

let test_size_distribution_shape () =
  let rng = Rng.create 9 in
  let sizes = W.file_size_distribution ~rng ~n:2000 in
  let small = List.length (List.filter (fun s -> s <= 8192) sizes) in
  let large = List.length (List.filter (fun s -> s > 131072) sizes) in
  check bool "most files small" true (small > 1200);
  check bool "few files large" true (large < 200);
  check bool "all positive" true (List.for_all (fun s -> s > 0) sizes)

let test_trace_roundtrip () =
  let rng = Rng.create 4 in
  let ops =
    W.random_ops ~rng ~file:3 ~size:50000 ~count:40 ~chunk:1024 ~read_fraction:0.5
  in
  check bool "trace roundtrips" true (W.trace_of_string (W.trace_to_string ops) = ops);
  check bool "junk skipped" true
    (W.trace_of_string "R 1 2 3
garbage
W 4 5 6
"
    = [ W.Read { file = 1; off = 2; len = 3 }; W.Write { file = 4; off = 5; len = 6 } ])

let test_runner_accounts () =
  run_in_sim (fun sim ->
      let store = Hashtbl.create 4 in
      let read ~file:_ ~off:_ ~len =
        Sim.sleep sim 1.;
        Bytes.make len 'r'
      in
      let write ~file ~off:_ ~data =
        Sim.sleep sim 2.;
        Hashtbl.replace store file data
      in
      let ops =
        [ W.Read { file = 1; off = 0; len = 100 }; W.Write { file = 1; off = 0; len = 50 } ]
      in
      let r = W.run ~sim ~read ~write ops in
      check int "ops" 2 r.W.ops;
      check int "reads" 1 r.W.reads;
      check int "writes" 1 r.W.writes;
      check int "bytes" 150 r.W.bytes;
      check (Alcotest.float 1e-9) "elapsed" 3. r.W.elapsed_ms;
      check bool "latency recorded" true (Rhodos_util.Stats.count r.W.latency = 2))

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_bullet_whole_file_semantics () =
  run_in_sim (fun sim ->
      let net = Net.create sim in
      let server = Net.add_node net "bullet-server" in
      let client = Net.add_node net "client" in
      let disk = Disk.create sim (Disk.geometry_with_capacity (4 * 1024 * 1024)) in
      let bs = Block.create ~disk () in
      Block.format bs;
      let bullet = Bullet.create ~net ~node:server ~block:bs ~ram_cache_files:8 in
      let id = Bullet.create_file bullet ~from:client (Bytes.of_string "immutable") in
      check Alcotest.string "read back" "immutable"
        (Bytes.to_string (Bullet.read_file bullet ~from:client id));
      Bullet.delete_file bullet ~from:client id;
      try
        ignore (Bullet.read_file bullet ~from:client id);
        Alcotest.fail "expected No_such_file"
      with Bullet.No_such_file _ -> ())

let test_bullet_rereads_pay_network_every_time () =
  run_in_sim (fun sim ->
      let net = Net.create ~latency_ms:1.0 ~bandwidth_bytes_per_ms:1000. sim in
      let server = Net.add_node net "srv" in
      let client = Net.add_node net "cl" in
      let disk = Disk.create sim (Disk.geometry_with_capacity (8 * 1024 * 1024)) in
      let bs = Block.create ~disk () in
      Block.format bs;
      let bullet = Bullet.create ~net ~node:server ~block:bs ~ram_cache_files:8 in
      let id = Bullet.create_file bullet ~from:client (Bytes.make 100_000 'b') in
      (* Warm the server cache. *)
      ignore (Bullet.read_file bullet ~from:client id);
      let t0 = Sim.now sim in
      ignore (Bullet.read_file bullet ~from:client id);
      let reread_cost = Sim.now sim -. t0 in
      (* 100 KB over 1000 B/ms is 100 ms of transfer alone: a re-read
         is nowhere near free, unlike a client cache hit. *)
      check bool "reread pays the network" true (reread_cost > 50.);
      check bool "server cache hit though" true
        (Rhodos_util.Stats.Counter.get (Bullet.server_cache_stats bullet) "hits" >= 1))

let with_bullet ~ram_cache_files f =
  run_in_sim (fun sim ->
      let net = Net.create sim in
      let server = Net.add_node net "bullet-server" in
      let client = Net.add_node net "client" in
      let disk = Disk.create sim (Disk.geometry_with_capacity (4 * 1024 * 1024)) in
      let bs = Block.create ~disk () in
      Block.format bs;
      f client (Bullet.create ~net ~node:server ~block:bs ~ram_cache_files))

(* Bullet files are immutable: a reader editing the bytes it got back
   must not change what the next reader sees, on a hit or a miss. *)
let test_bullet_reads_are_copies () =
  with_bullet ~ram_cache_files:1 (fun client bullet ->
      let a = Bullet.create_file bullet ~from:client (Bytes.of_string "immutable") in
      let b = Bullet.create_file bullet ~from:client (Bytes.of_string "other") in
      List.iter
        (fun (id, want) ->
          Bytes.fill (Bullet.read_file bullet ~from:client id) 0 (String.length want) 'X';
          check Alcotest.string "second read unchanged" want
            (Bytes.to_string (Bullet.read_file bullet ~from:client id)))
        [ (b, "other") (* hit *); (a, "immutable") (* miss *) ])

(* Fill the RAM cache, touch the oldest file, add one more: the
   second-oldest is the one evicted. *)
let test_bullet_evicts_lru () =
  with_bullet ~ram_cache_files:2 (fun client bullet ->
      let create () = Bullet.create_file bullet ~from:client (Bytes.of_string "f") in
      let a = create () in
      let b = create () in
      ignore (Bullet.read_file bullet ~from:client a);
      ignore (create ());
      let stats = Bullet.server_cache_stats bullet in
      let misses () = Rhodos_util.Stats.Counter.get stats "misses" in
      let m0 = misses () in
      ignore (Bullet.read_file bullet ~from:client a);
      check int "touched file kept" m0 (misses ());
      ignore (Bullet.read_file bullet ~from:client b);
      check int "second-oldest evicted" (m0 + 1) (misses ()))

let test_first_fit_counts_bits () =
  let a = Ffa.create ~fragments:1000 in
  let p1 = Ffa.allocate a ~fragments:10 in
  check int "first fit at 0" 0 p1;
  let examined_one = Ffa.bits_examined a in
  check bool "examined bits" true (examined_one >= 10);
  (* Allocations later in a fuller disk examine more bits. *)
  for _ = 1 to 50 do
    ignore (Ffa.allocate a ~fragments:10)
  done;
  Ffa.reset_counters a;
  ignore (Ffa.allocate a ~fragments:10);
  check bool "search cost grows with fill" true (Ffa.bits_examined a > examined_one)

let test_first_fit_no_space () =
  let a = Ffa.create ~fragments:100 in
  ignore (Ffa.allocate a ~fragments:60);
  (try
     ignore (Ffa.allocate a ~fragments:60);
     Alcotest.fail "expected No_space"
   with Ffa.No_space -> ());
  Ffa.free a ~pos:0 ~fragments:60;
  ignore (Ffa.allocate a ~fragments:60)

let () =
  Alcotest.run "rhodos_workload_baseline"
    [
      ( "workload",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_covers_file;
          Alcotest.test_case "random bounds" `Quick test_random_ops_bounds;
          Alcotest.test_case "hotspot skew" `Quick test_hotspot_skew;
          Alcotest.test_case "working set" `Quick test_working_set_rereads;
          Alcotest.test_case "size distribution" `Quick test_size_distribution_shape;
          Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "runner" `Quick test_runner_accounts;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "bullet semantics" `Quick test_bullet_whole_file_semantics;
          Alcotest.test_case "bullet rereads" `Quick
            test_bullet_rereads_pay_network_every_time;
          Alcotest.test_case "first-fit bits" `Quick test_first_fit_counts_bits;
          Alcotest.test_case "first-fit no space" `Quick test_first_fit_no_space;
          Alcotest.test_case "bullet immutable" `Quick test_bullet_reads_are_copies;
          Alcotest.test_case "bullet evicts lru" `Quick test_bullet_evicts_lru;
        ] );
    ]
