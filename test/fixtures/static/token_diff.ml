(* Differential fixture for the per-file rules both lint entry points
   run. The two true positives below must be caught by both.
   [table] is a module-level Hashtbl but no concurrency root ever
   reaches it, so the race pass (which stands in for the blanket
   global-mutable-state rule in this sweep) stays rightly silent. The
   baits at the bottom are the retired token engine's weak spots: a
   multi-line [let ... in] local binding (not module state) and an
   identifier that merely contains "sort" (must not absolve the fold). *)
(* expect: hashtbl-iter-order no-unseeded-random *)

let table = Hashtbl.create 16

let pick () = Random.int 10

let keys () = Hashtbl.fold (fun k _ acc -> k :: acc) table []

let resort_marker = 0

let local_state () =
  let state =
    ref 0
  in
  incr state;
  !state
