(* E5 — the 64x64 free-extent array vs a first-fit bitmap scan: "the
   use of this array not only improves the performance but also
   improves the storage utilization" (section 4).

   Both allocators manage the same fragment space, pre-fragmented by
   identical random churn to the target fill level; we then count the
   work per allocation: entries the extent array examines vs bits the
   bitmap scan examines. *)

open Common
module Ffa = Rhodos_baseline.First_fit_allocator

let () = Json_out.register "E5"

let fill_levels = [ 0.3; 0.6; 0.9 ]
let fragments_total = 16 * 1024 (* a 32 MiB disk *)
let probe_allocs = 500

(* Identical churn for both allocators: allocate random small runs
   until the fill level, with interleaved frees to fragment the
   space. *)
let churn ~seed ~fill ~alloc ~free ~free_count =
  let rng = Rng.create seed in
  let live = ref [] and nlive = ref 0 in
  let target = int_of_float (float_of_int fragments_total *. fill) in
  (try
     while fragments_total - free_count () < target do
       let n = 1 + Rng.int rng 8 in
       (match alloc n with
       | pos ->
         live := (pos, n) :: !live;
         incr nlive
       | exception (Block.No_space _ | Ffa.No_space) -> raise Exit);
       (* Free one in three to create holes. *)
       if !nlive > 3 && Rng.int rng 3 = 0 then begin
         let idx = Rng.int rng !nlive in
         let pos, n = List.nth !live idx in
         free pos n;
         live := List.filteri (fun i _ -> i <> idx) !live;
         decr nlive
       end
     done
   with Exit -> ());
  !live

let measure_extent_array fill =
  run_sim (fun sim ->
      let disk = Disk.create sim (Disk.geometry_with_capacity (mib 32)) in
      let bs =
        Block.create
          ~config:
            { Block.default_config with Block.bitmap_write_through = false }
          ~disk ()
      in
      Block.format bs;
      ignore
        (churn ~seed:7 ~fill
           ~alloc:(fun n -> Block.allocate bs ~fragments:n)
           ~free:(fun pos n -> Block.free bs ~pos ~fragments:n)
           ~free_count:(fun () -> Block.free_fragments bs));
      Block.reset_stats bs;
      let succeeded = ref 0 in
      for _ = 1 to probe_allocs do
        match Block.allocate bs ~fragments:4 with
        | _ -> incr succeeded
        | exception Block.No_space _ -> ()
      done;
      let c = Block.stats bs in
      ( float_of_int (Counter.get c "extent_entries_examined")
        /. float_of_int probe_allocs,
        Counter.get c "bitmap_fallbacks",
        !succeeded ))

let measure_first_fit fill =
  let a = Ffa.create ~fragments:fragments_total in
  ignore
    (churn ~seed:7 ~fill
       ~alloc:(fun n -> Ffa.allocate a ~fragments:n)
       ~free:(fun pos n -> Ffa.free a ~pos ~fragments:n)
       ~free_count:(fun () -> Ffa.free_fragments a));
  Ffa.reset_counters a;
  let succeeded = ref 0 in
  for _ = 1 to probe_allocs do
    match Ffa.allocate a ~fragments:4 with
    | _ -> incr succeeded
    | exception Ffa.No_space -> ()
  done;
  (float_of_int (Ffa.bits_examined a) /. float_of_int probe_allocs, !succeeded)

let run () =
  header "E5 — free-space search: 64x64 extent array vs first-fit bitmap scan";
  let table =
    Text_table.create
      ~title:
        (Printf.sprintf "%d allocations of 1 block after random churn (%d fragments)"
           probe_allocs fragments_total)
      ~columns:
        [
          "disk fill";
          "extent array: entries/alloc";
          "bitmap fallbacks";
          "ok";
          "first-fit: bits/alloc";
          "ok";
          "search ratio";
        ]
  in
  List.iter
    (fun fill ->
      let entries, fallbacks, ok_a = measure_extent_array fill in
      let bits, ok_b = measure_first_fit fill in
      if fill = 0.9 then begin
        Json_out.metric "E5" "fill90_extent_entries_per_alloc" entries;
        Json_out.metric "E5" "fill90_bitmap_bits_per_alloc" bits
      end;
      Text_table.add_row table
        [
          Printf.sprintf "%.0f%%" (fill *. 100.);
          Printf.sprintf "%.1f" entries;
          string_of_int fallbacks;
          string_of_int ok_a;
          Printf.sprintf "%.1f" bits;
          string_of_int ok_b;
          Printf.sprintf "%.0fx" (bits /. Float.max entries 0.1);
        ])
    fill_levels;
  print_table table;
  note "The array answers from at most a few cached extent references while";
  note "the scan walks the bitmap from the start — hundreds to thousands of";
  note "bits once the disk fills up. ('bitmap fallbacks' counts the rare";
  note "probes where the array had no cached extent and RHODOS itself had to";
  note "scan, exactly as the paper prescribes.)"
