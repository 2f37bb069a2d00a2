(* Bechamel microbenchmarks of the hot data structures: wall-clock
   cost per operation (real time, not simulated), complementing the
   simulated-time experiments. One Test.make per structure. *)

open Bechamel
open Toolkit
module Block = Rhodos_block.Block_service
module Disk = Rhodos_disk.Disk
module Fit = Rhodos_file.Fit
module Lm = Rhodos_txn.Lock_manager
module Ffa = Rhodos_baseline.First_fit_allocator
module Sim = Rhodos_sim.Sim
module Rng = Rhodos_util.Rng
module Crc32 = Rhodos_util.Crc32

let mib n = n * 1024 * 1024

(* A block service churned to ~60% fill. Preparation needs a sim
   process (format writes the disk); the benchmarked allocate/free
   path is pure memory once bitmap persistence is off. *)
let prepared_block_service () =
  let sim = Sim.create () in
  let service = ref None in
  let _ =
    Sim.spawn sim (fun () ->
        let disk = Disk.create sim (Disk.geometry_with_capacity (mib 32)) in
        let bs =
          Block.create
            ~config:
              { Block.bitmap_write_through = false; track_cache_tracks = 0 }
            ~disk ()
        in
        Block.format bs;
        let rng = Rng.create 11 in
        let live = ref [] and n = ref 0 in
        (try
           while Block.free_fragments bs > Block.total_fragments bs * 4 / 10 do
             let len = 1 + Rng.int rng 8 in
             let pos = Block.allocate bs ~fragments:len in
             live := (pos, len) :: !live;
             incr n;
             if !n > 3 && Rng.int rng 3 = 0 then begin
               let idx = Rng.int rng !n in
               let pos, len = List.nth !live idx in
               Block.free bs ~pos ~fragments:len;
               live := List.filteri (fun i _ -> i <> idx) !live;
               decr n
             end
           done
         with Block.No_space _ -> ());
        service := Some bs)
  in
  Sim.run sim;
  Option.get !service

let prepared_first_fit () =
  let a = Ffa.create ~fragments:16384 in
  let rng = Rng.create 11 in
  let live = ref [] and n = ref 0 in
  (try
     while Ffa.free_fragments a > 16384 * 4 / 10 do
       let len = 1 + Rng.int rng 8 in
       let pos = Ffa.allocate a ~fragments:len in
       live := (pos, len) :: !live;
       incr n;
       if !n > 3 && Rng.int rng 3 = 0 then begin
         let idx = Rng.int rng !n in
         let pos, len = List.nth !live idx in
         Ffa.free a ~pos ~fragments:len;
         live := List.filteri (fun i _ -> i <> idx) !live;
         decr n
       end
     done
   with Ffa.No_space -> ());
  a

let sample_fit () =
  let fit = Fit.fresh ~now:1.0 Fit.Basic Fit.Page_level in
  fit.Fit.runs <-
    List.init 40 (fun i -> { Fit.disk = 0; frag = i * 100; blocks = 1 + (i mod 7) });
  fit

let tests () =
  let bs = prepared_block_service () in
  let ffa = prepared_first_fit () in
  let fit = sample_fit () in
  let encoded = Fit.encode fit in
  let payload = Bytes.make 2048 'x' in
  let lm =
    Lm.create
      ~config:{ Lm.lt_ms = 1.0e12; max_renewals = 1; search_cost_ms = 0.; cross_level = false }
      ~sim:(Sim.create ())
      ~on_suspect:(fun ~txn:_ -> ())
      ()
  in
  let lock_txn = ref 0 in
  [
    Test.make ~name:"extent-array alloc+free (60% full disk)"
      (Staged.stage (fun () ->
           let pos = Block.allocate bs ~fragments:4 in
           Block.free bs ~pos ~fragments:4));
    Test.make ~name:"first-fit bitmap alloc+free (60% full disk)"
      (Staged.stage (fun () ->
           let pos = Ffa.allocate ffa ~fragments:4 in
           Ffa.free ffa ~pos ~fragments:4));
    Test.make ~name:"lock table acquire+release"
      (Staged.stage (fun () ->
           incr lock_txn;
           let txn = !lock_txn in
           ignore (Lm.try_acquire lm ~txn (Lm.Page_item (1, txn land 63)) Lm.Iwrite);
           Lm.release_all lm ~txn));
    Test.make ~name:"FIT encode (40 runs)"
      (Staged.stage (fun () -> ignore (Fit.encode fit)));
    Test.make ~name:"FIT decode"
      (Staged.stage (fun () -> ignore (Fit.decode encoded)));
    Test.make ~name:"crc32 of a fragment (2 KiB)"
      (Staged.stage (fun () -> ignore (Crc32.bytes payload)));
  ]

let run () =
  Printf.printf
    "\n==============================================================\n";
  Printf.printf "Microbenchmarks (bechamel, wall-clock)\n";
  Printf.printf
    "==============================================================\n\n%!";
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows
  |> List.iter (fun (name, r) ->
         match Analyze.OLS.estimates r with
         | Some [ ns ] -> Printf.printf "%-55s %12.1f ns/op\n" name ns
         | _ -> Printf.printf "%-55s (no estimate)\n" name);
  print_newline ()
