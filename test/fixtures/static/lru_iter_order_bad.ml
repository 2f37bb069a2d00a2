(* An LRU table walks in table order, like a Hashtbl: consing its keys
   with no sort hands hash-bucket order to the caller. *)
(* expect: hashtbl-iter-order *)

let keys t = Lru.fold (fun k _ acc -> k :: acc) t []
