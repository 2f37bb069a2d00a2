open Rhodos_util

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Prio_queue                                                          *)
(* ------------------------------------------------------------------ *)

let test_pq_empty () =
  let q = Prio_queue.create () in
  check bool "empty" true (Prio_queue.is_empty q);
  check int "length" 0 (Prio_queue.length q);
  check (Alcotest.option (Alcotest.pair (Alcotest.float 0.) int)) "pop" None
    (Prio_queue.pop q)

let test_pq_order () =
  let q = Prio_queue.create () in
  List.iter (fun (p, v) -> Prio_queue.add q ~prio:p v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let order = Prio_queue.drain q |> List.map snd in
  check (Alcotest.list Alcotest.string) "sorted" [ "z"; "a"; "b"; "c" ] order

let test_pq_fifo_ties () =
  let q = Prio_queue.create () in
  List.iter (fun v -> Prio_queue.add q ~prio:1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = Prio_queue.drain q |> List.map snd in
  check (Alcotest.list int) "fifo at equal prio" [ 1; 2; 3; 4; 5 ] order

let test_pq_interleaved () =
  let q = Prio_queue.create () in
  Prio_queue.add q ~prio:5. 50;
  Prio_queue.add q ~prio:1. 10;
  (match Prio_queue.pop q with
  | Some (p, v) ->
    check (Alcotest.float 0.) "first prio" 1. p;
    check int "first value" 10 v
  | None -> Alcotest.fail "expected element");
  Prio_queue.add q ~prio:3. 30;
  Prio_queue.add q ~prio:2. 20;
  let order = Prio_queue.drain q |> List.map snd in
  check (Alcotest.list int) "remaining" [ 20; 30; 50 ] order

let pq_sorted_prop =
  QCheck.Test.make ~name:"prio_queue pops in nondecreasing priority order"
    ~count:300
    QCheck.(list (pair (float_range 0. 1000.) small_int))
    (fun items ->
      let q = Prio_queue.create () in
      List.iter (fun (p, v) -> Prio_queue.add q ~prio:p v) items;
      let prios = Prio_queue.drain q |> List.map fst in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      List.length prios = List.length items && nondecreasing prios)

(* Reference model for the queue: (prio, seq, value) triples in
   insertion order. The ready set is every entry at the minimum prio,
   in insertion order; a pop takes its first ([Fifo]) or last ([Lifo])
   entry. [last] is the priority of the last pop, where the queue's
   same-time ring takes adds. *)
type pq_model = {
  mutable items : (float * int * int) list;
  mutable next : int;
  mutable last : float;
}

let model_ready m =
  let min_p = List.fold_left (fun mn (p, _, _) -> min mn p) infinity m.items in
  List.filter (fun (p, _, _) -> p = min_p) m.items

let model_take m ((p, s, v) : float * int * int) =
  m.items <- List.filter (fun (_, s', _) -> s' <> s) m.items;
  m.last <- p;
  Some (p, v)

let model_pop tie m =
  match model_ready m with
  | [] -> None
  | ready -> (
    match tie with
    | Prio_queue.Fifo -> model_take m (List.hd ready)
    | Prio_queue.Lifo -> model_take m (List.nth ready (List.length ready - 1)))

(* Run one op script against the queue and the model; after every op
   the ready sets, ready counts and lengths must agree, and every
   removal must return the model's entry. Op codes, with [a] in 0..4:
   0-1 add at time [a] (ties across the script), 2 add at the last
   popped time (the ring path), 3 add just below it, 4 a burst of
   [a + 1] adds at it, 5 a far-future add, 6-7 pop, 8 pop_nth [a]
   (out of range when the ready set is smaller). A final drain must
   match too. *)
let pq_matches_model tie ops =
  let q = Prio_queue.create ~tie () in
  let m = { items = []; next = 0; last = 0. } in
  let add p =
    Prio_queue.add q ~prio:p m.next;
    m.items <- m.items @ [ (p, m.next, m.next) ];
    m.next <- m.next + 1
  in
  let step (c, a) =
    let removal_ok =
      match c with
      | 0 | 1 -> add (float_of_int a); true
      | 2 -> add m.last; true
      | 3 -> add (m.last -. 1.); true
      | 4 -> for _ = 0 to a do add m.last done; true
      | 5 -> add (1000. +. float_of_int m.next); true
      | 6 | 7 -> Prio_queue.pop q = model_pop tie m
      | _ ->
        let ready = model_ready m in
        let expect =
          if a < List.length ready then model_take m (List.nth ready a) else None
        in
        Prio_queue.pop_nth q a = expect
    in
    let ready = List.map (fun (p, _, v) -> (p, v)) (model_ready m) in
    removal_ok
    && Prio_queue.ready q = ready
    && Prio_queue.ready_count q = List.length ready
    && Prio_queue.length q = List.length m.items
  in
  let rec drain_model acc =
    match model_pop tie m with None -> List.rev acc | Some x -> drain_model (x :: acc)
  in
  List.for_all step ops && Prio_queue.drain q = drain_model []

(* Scripts are capped at 300 ops: the model and the ready-set compare
   are O(n) per op. *)
let pq_ops = QCheck.(list_of_size Gen.(0 -- 300) (pair (int_bound 8) (int_bound 4)))

(* [ready_count] is the event loop's allocation-free fast path (O(1)
   when the minimum is unique); it must always agree with the size of
   the full ready set, including entries parked in the same-time ring. *)
let test_pq_ready_count () =
  let q = Prio_queue.create () in
  check int "empty" 0 (Prio_queue.ready_count q);
  Prio_queue.add q ~prio:2. "b";
  check int "singleton" 1 (Prio_queue.ready_count q);
  Prio_queue.add q ~prio:1. "a1";
  Prio_queue.add q ~prio:1. "a2";
  Prio_queue.add q ~prio:1. "a3";
  Prio_queue.add q ~prio:3. "c";
  check int "tied min of three" 3 (Prio_queue.ready_count q);
  check int "agrees with ready set" (List.length (Prio_queue.ready q))
    (Prio_queue.ready_count q);
  ignore (Prio_queue.pop q);
  check int "after pop" (List.length (Prio_queue.ready q))
    (Prio_queue.ready_count q);
  (* adds at the popped priority join the ready set behind the older
     tied entries *)
  Prio_queue.add q ~prio:1. "a4";
  Prio_queue.add q ~prio:1. "a5";
  check int "ring joins the ready set" 4 (Prio_queue.ready_count q);
  check (Alcotest.list Alcotest.string) "ready in insertion order"
    [ "a2"; "a3"; "a4"; "a5" ]
    (List.map snd (Prio_queue.ready q))

let pq_ready_count_prop =
  QCheck.Test.make
    ~name:"ready_count agrees with the ready set under both backends"
    ~count:300 QCheck.(pair bool pq_ops)
    (fun (lifo, ops) ->
      pq_matches_model (if lifo then Prio_queue.Lifo else Prio_queue.Fifo) ops)

(* Removing the n-th ready entry replaces it with the last heap slot,
   which may belong *above* the removal point — the sift must go both
   ways — or closes a gap in the ring. Model-based, under both tie
   policies, with ops weighted toward [pop_nth]. *)
let pq_pop_nth_model_prop =
  QCheck.Test.make
    ~name:"pop_nth matches a sorted-list model under Fifo and Lifo"
    ~count:300
    QCheck.(pair bool (list_of_size Gen.(0 -- 300) (pair (int_bound 3) (int_bound 4))))
    (fun (lifo, ops) ->
      let ops = List.map (fun (c, a) -> ((if c = 3 then 8 else c * 2), a)) ops in
      pq_matches_model (if lifo then Prio_queue.Lifo else Prio_queue.Fifo) ops)

(* Crafted regression: the replacement slot for a removed tied-minimum
   entry must sift *up* past its parent when the tie policy orders it
   earlier. Shape: a deep heap of tied minima where the last array
   slot was inserted late (Lifo orders it first). *)
let test_pq_pop_nth_sift_up () =
  List.iter
    (fun tie ->
      let q = Prio_queue.create ~tie () in
      (* seven tied entries building a 3-level heap (nothing popped
         yet, so none lands in the ring), then remove deep indices so
         the last slot replaces an interior one *)
      for v = 0 to 6 do
        Prio_queue.add q ~prio:1. v
      done;
      (* remove seq 2, then the 4th remaining in insertion order
         (0,1,3,4,[5],6), i.e. seq 5 *)
      ignore (Prio_queue.pop_nth q 2);
      ignore (Prio_queue.pop_nth q 4);
      let got = Prio_queue.drain q |> List.map snd in
      let expect =
        match tie with
        | Prio_queue.Fifo -> [ 0; 1; 3; 4; 6 ]
        | Prio_queue.Lifo -> [ 6; 4; 3; 1; 0 ]
      in
      check (Alcotest.list int) "drain after pop_nth" expect got)
    [ Prio_queue.Fifo; Prio_queue.Lifo ]

(* The heap and the same-time ring must together pop the model's
   (prio, value) sequence for any interleaving of adds and pops:
   same-time bursts at the last popped time, adds below it, cross-time
   ties and far-future outliers. *)
let pq_model_prop tie name =
  QCheck.Test.make ~name ~count:400 pq_ops (pq_matches_model tie)

let pq_differential_fifo =
  pq_model_prop Prio_queue.Fifo "wheel and heap pop identically (Fifo ties)"

let pq_differential_lifo =
  pq_model_prop Prio_queue.Lifo "wheel and heap pop identically (Lifo ties)"

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check bool "initially clear" false (Bitset.get b 50);
  Bitset.set b 50;
  check bool "set" true (Bitset.get b 50);
  check bool "neighbours untouched" false (Bitset.get b 49 || Bitset.get b 51);
  Bitset.clear b 50;
  check bool "cleared" false (Bitset.get b 50);
  check int "count" 0 (Bitset.count_set b)

let test_bitset_ranges () =
  let b = Bitset.create 64 in
  Bitset.set_range b ~pos:10 ~len:20;
  check int "count after set_range" 20 (Bitset.count_set b);
  check bool "range_all_set" true (Bitset.range_all_set b ~pos:10 ~len:20);
  check bool "wider range not all set" false (Bitset.range_all_set b ~pos:9 ~len:21);
  Bitset.clear_range b ~pos:15 ~len:5;
  check int "count after clear_range" 15 (Bitset.count_set b);
  check bool "hole all clear" true (Bitset.range_all_clear b ~pos:15 ~len:5)

let test_bitset_runs () =
  let b = Bitset.create 32 in
  Bitset.set_range b ~pos:0 ~len:4;
  Bitset.set_range b ~pos:10 ~len:2;
  (* free runs: [4,10) len 6, [12,32) len 20 *)
  check (Alcotest.option int) "find run of 6" (Some 4)
    (Bitset.find_clear_run b ~start:0 ~len:6);
  check (Alcotest.option int) "find run of 7" (Some 12)
    (Bitset.find_clear_run b ~start:0 ~len:7);
  check (Alcotest.option int) "find run of 21" None
    (Bitset.find_clear_run b ~start:0 ~len:21);
  check int "run at 4" 6 (Bitset.clear_run_at b 4);
  check int "run at 0 (set)" 0 (Bitset.clear_run_at b 0);
  let runs = ref [] in
  Bitset.iter_clear_runs b (fun ~pos ~len -> runs := (pos, len) :: !runs);
  check
    (Alcotest.list (Alcotest.pair int int))
    "all runs" [ (4, 6); (12, 20) ] (List.rev !runs)

let test_bitset_serialization () =
  let b = Bitset.create 77 in
  List.iter (Bitset.set b) [ 0; 1; 13; 76 ];
  let restored = Bitset.of_bytes 77 (Bitset.to_bytes b) in
  check bool "roundtrip equal" true (Bitset.equal b restored)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "get out of range" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.get b 8))

let bitset_count_prop =
  QCheck.Test.make ~name:"bitset count_set equals number of distinct set indices"
    ~count:300
    QCheck.(list (int_bound 199))
    (fun indices ->
      let b = Bitset.create 200 in
      List.iter (Bitset.set b) indices;
      let distinct = List.sort_uniq compare indices in
      Bitset.count_set b = List.length distinct
      && Bitset.count_clear b = 200 - List.length distinct)

let bitset_runs_cover_prop =
  QCheck.Test.make ~name:"bitset iter_clear_runs covers exactly the clear bits"
    ~count:300
    QCheck.(list (int_bound 99))
    (fun indices ->
      let b = Bitset.create 100 in
      List.iter (Bitset.set b) indices;
      let covered = Array.make 100 false in
      Bitset.iter_clear_runs b (fun ~pos ~len ->
          for i = pos to pos + len - 1 do
            covered.(i) <- true
          done);
      let ok = ref true in
      for i = 0 to 99 do
        if covered.(i) = Bitset.get b i then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check bool "int in range" true (v >= 0 && v < 10);
    let f = Rng.float r 5.0 in
    check bool "float in range" true (f >= 0. && f < 5.0);
    let z = Rng.zipf r ~n:20 ~theta:1.0 in
    check bool "zipf in range" true (z >= 0 && z < 20);
    let g = Rng.int_range r ~lo:5 ~hi:9 in
    check bool "int_range inclusive" true (g >= 5 && g <= 9)
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child and p1 = Rng.bits64 parent in
  check bool "split produces distinct streams" true (c1 <> p1)

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  check bool "exponential mean ~10" true (mean > 9.0 && mean < 11.0)

let test_rng_zipf_skew () =
  let r = Rng.create 3 in
  let hits = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Rng.zipf r ~n:10 ~theta:2.0 in
    hits.(i) <- hits.(i) + 1
  done;
  check bool "zipf favours low indices" true (hits.(0) > hits.(9))

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "shuffle is a permutation" true (sorted = Array.init 50 Fun.id)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  check int "count" 5 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "sum" 15.0 (Stats.sum s);
  check (Alcotest.float 1e-9) "variance" 2.5 (Stats.variance s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max_value s)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.) "mean of empty" 0. (Stats.mean s);
  check (Alcotest.float 0.) "percentile of empty" 0. (Stats.percentile s 50.)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile s 50.);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.percentile s 99.);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 100.)

let test_stats_clear () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Stats.clear s;
  check int "count back to zero" 0 (Stats.count s);
  check (Alcotest.float 0.) "mean of cleared" 0. (Stats.mean s);
  check (Alcotest.float 0.) "sum of cleared" 0. (Stats.sum s);
  check (Alcotest.float 0.) "percentile of cleared" 0. (Stats.percentile s 50.);
  (* a second measurement cycle counts from scratch *)
  List.iter (Stats.add s) [ 10.; 20. ];
  check int "recounts" 2 (Stats.count s);
  check (Alcotest.float 1e-9) "fresh mean" 15. (Stats.mean s);
  check (Alcotest.float 1e-9) "fresh min" 10. (Stats.min_value s);
  check (Alcotest.float 1e-9) "fresh p50" 10. (Stats.percentile s 50.)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.; 2. ];
  List.iter (Stats.add b) [ 3.; 4. ];
  let m = Stats.merge a b in
  check int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m)

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "hits";
  Stats.Counter.add c "hits" 4;
  Stats.Counter.incr c "misses";
  check int "hits" 5 (Stats.Counter.get c "hits");
  check int "misses" 1 (Stats.Counter.get c "misses");
  check int "absent" 0 (Stats.Counter.get c "nope");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "to_list sorted"
    [ ("hits", 5); ("misses", 1) ]
    (Stats.Counter.to_list c);
  Stats.Counter.reset c;
  check int "reset" 0 (Stats.Counter.get c "hits")

let stats_mean_prop =
  QCheck.Test.make ~name:"stats mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc_known_value () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  check Alcotest.int32 "crc of 123456789" 0xCBF43926l (Crc32.string "123456789")

let test_crc_detects_change () =
  let b = Bytes.of_string "hello stable storage" in
  let c1 = Crc32.bytes b in
  Bytes.set b 3 'X';
  check bool "changed byte changes crc" true (c1 <> Crc32.bytes b)

let test_crc_sub () =
  let b = Bytes.of_string "xxabcyy" in
  check Alcotest.int32 "sub matches standalone" (Crc32.string "abc")
    (Crc32.sub b ~pos:2 ~len:3)

(* The textbook bitwise CRC-32, kept here as the oracle for the
   table-driven one. *)
let reference_crc b ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 1 to 8 do
      crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let crc_reference_prop =
  QCheck.Test.make ~name:"crc32 sub matches a bitwise reference" ~count:300
    QCheck.(triple (bytes_of_size Gen.(0 -- 4096)) (int_bound 15) (int_bound 15))
    (fun (data, pos, tail) ->
      (* [data] sits at an unaligned offset with junk on both sides. *)
      let len = Bytes.length data in
      let b = Bytes.make (pos + len + tail) '\xA5' in
      Bytes.blit data 0 b pos len;
      Crc32.sub b ~pos ~len = reference_crc b ~pos ~len)

let test_crc_sub_bounds () =
  let b = Bytes.create 8 in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Crc32.sub")
        (fun () -> ignore (Crc32.sub b ~pos ~len)))
    [ (-1, 2); (0, -1); (4, 5); (9, 0) ]

(* ------------------------------------------------------------------ *)
(* Text_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_text_table () =
  let t = Text_table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Text_table.add_row t [ "1"; "2" ];
  Text_table.add_rowf t "%d | %s" 10 "x";
  let s = Text_table.render t in
  check bool "has title" true (String.length s > 0 && s.[0] = 'T');
  check bool "mentions cell" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Text_table.add_row: width mismatch") (fun () ->
      Text_table.add_row t [ "only-one" ])

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

type lru_op =
  | Find of int
  | Peek of int
  | Replace of int * int
  | Remove of int
  | Reset
  | Oldest of int list  (* values the victim scan skips *)
  | Sort of int list  (* keys to order *)

let show_lru_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Reset -> "reset"
  | Oldest vs -> "lru ~skip:[" ^ String.concat ";" (List.map string_of_int vs) ^ "]"
  | Sort ks -> "sort [" ^ String.concat ";" (List.map string_of_int ks) ^ "]"

let lru_ops =
  let open QCheck.Gen in
  let key = int_bound 7 and value = int_bound 9 in
  let op =
    frequency
      [
        (4, map (fun k -> Find k) key);
        (2, map (fun k -> Peek k) key);
        (4, map2 (fun k v -> Replace (k, v)) key value);
        (1, map (fun k -> Remove k) key);
        (1, return Reset);
        (3, map (fun vs -> Oldest vs) (list_size (0 -- 4) value));
        (2, map (fun ks -> Sort ks) (list_size (0 -- 5) key));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat ", " (List.map show_lru_op ops))
    (list_size (0 -- 60) op)

(* The reference is the clock-and-scan every cache used to carry: a
   per-entry stamp from a per-table clock, the victim found by a scan
   for the smallest stamp among the entries not skipped. *)
let lru_matches_model ops =
  let t = Lru.create 4 in
  let model = Hashtbl.create 4 and clock = ref 0 in
  let stamp k v =
    incr clock;
    Hashtbl.replace model k (v, !clock)
  in
  let stamp_of k =
    match Hashtbl.find_opt model k with Some (_, s) -> s | None -> max_int
  in
  let step op =
    (match op with
    | Find k ->
      let want = Option.map fst (Hashtbl.find_opt model k) in
      Option.iter (stamp k) want;
      Lru.find t k = want
    | Peek k -> Lru.peek t k = Option.map fst (Hashtbl.find_opt model k)
    | Replace (k, v) ->
      Lru.replace t k v;
      stamp k v;
      true
    | Remove k ->
      Lru.remove t k;
      Hashtbl.remove model k;
      true
    | Reset ->
      Lru.reset t;
      Hashtbl.reset model;
      true
    | Oldest skipped ->
      let want =
        Hashtbl.fold
          (fun k (v, s) acc ->
            if List.mem v skipped then acc
            else
              match acc with
              | Some (_, _, best) when best <= s -> acc
              | _ -> Some (k, v, s))
          model None
      in
      Lru.lru ~skip:(fun v -> List.mem v skipped) t
      = Option.map (fun (k, v, _) -> (k, v)) want
    | Sort ks ->
      let pairs = List.map (fun k -> (k, -k)) ks in
      Lru.sort_oldest_first t pairs
      = List.stable_sort (fun (a, _) (b, _) -> compare (stamp_of a) (stamp_of b)) pairs)
    && Lru.length t = Hashtbl.length model
    && List.for_all (fun k -> Lru.mem t k = Hashtbl.mem model k) (List.init 8 Fun.id)
  in
  List.for_all step ops

let lru_model_prop =
  QCheck.Test.make ~name:"lru matches a clock-and-scan model" ~count:500 lru_ops
    lru_matches_model

let () =
  Alcotest.run "rhodos_util"
    [
      ( "prio_queue",
        [
          Alcotest.test_case "empty" `Quick test_pq_empty;
          Alcotest.test_case "ordering" `Quick test_pq_order;
          Alcotest.test_case "fifo ties" `Quick test_pq_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_pq_interleaved;
          Alcotest.test_case "ready count" `Quick test_pq_ready_count;
          Alcotest.test_case "pop_nth sift-up" `Quick test_pq_pop_nth_sift_up;
          QCheck_alcotest.to_alcotest pq_sorted_prop;
          QCheck_alcotest.to_alcotest pq_ready_count_prop;
          QCheck_alcotest.to_alcotest pq_pop_nth_model_prop;
          QCheck_alcotest.to_alcotest pq_differential_fifo;
          QCheck_alcotest.to_alcotest pq_differential_lifo;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "ranges" `Quick test_bitset_ranges;
          Alcotest.test_case "runs" `Quick test_bitset_runs;
          Alcotest.test_case "serialization" `Quick test_bitset_serialization;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          QCheck_alcotest.to_alcotest bitset_count_prop;
          QCheck_alcotest.to_alcotest bitset_runs_cover_prop;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "clear" `Quick test_stats_clear;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "counter" `Quick test_counter;
          QCheck_alcotest.to_alcotest stats_mean_prop;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known value" `Quick test_crc_known_value;
          Alcotest.test_case "detects change" `Quick test_crc_detects_change;
          Alcotest.test_case "sub" `Quick test_crc_sub;
          Alcotest.test_case "sub bounds" `Quick test_crc_sub_bounds;
          QCheck_alcotest.to_alcotest crc_reference_prop;
        ] );
      ("text_table", [ Alcotest.test_case "render" `Quick test_text_table ]);
      ("lru", [ QCheck_alcotest.to_alcotest lru_model_prop ]);
    ]
