(* Each entry carries the clock value of its last use. Stamps are
   unique, so the smallest stamp among the candidates is one entry
   whatever order the table is folded in. *)
type ('k, 'v) entry = { key : 'k; mutable value : 'v; mutable stamp : int }

type ('k, 'v) t = { tbl : ('k, ('k, 'v) entry) Hashtbl.t; mutable clock : int }

let create n = { tbl = Hashtbl.create n; clock = 0 }
let length t = Hashtbl.length t.tbl
let mem t k = Hashtbl.mem t.tbl k

let touch t e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock

let peek t k =
  match Hashtbl.find t.tbl k with
  | e -> Some e.value
  | exception Not_found -> None

let find t k =
  match Hashtbl.find t.tbl k with
  | e ->
    touch t e;
    Some e.value
  | exception Not_found -> None

let replace t k v =
  match Hashtbl.find t.tbl k with
  | e ->
    e.value <- v;
    touch t e
  | exception Not_found ->
    t.clock <- t.clock + 1;
    Hashtbl.add t.tbl k { key = k; value = v; stamp = t.clock }

let remove t k = Hashtbl.remove t.tbl k

let reset t =
  Hashtbl.reset t.tbl;
  t.clock <- 0

let lru ?(skip = fun _ -> false) t =
  Hashtbl.fold
    (fun _ e acc ->
      if skip e.value then acc
      else
        match acc with
        | Some best when best.stamp <= e.stamp -> acc
        | _ -> Some e)
    t.tbl None
  |> Option.map (fun e -> (e.key, e.value))

let sort_oldest_first t = function
  | ([] | [ _ ]) as l -> l
  | l ->
    let stamp (k, _) =
      match Hashtbl.find t.tbl k with
      | e -> e.stamp
      | exception Not_found -> max_int
    in
    List.stable_sort (fun a b -> Int.compare (stamp a) (stamp b)) l

let iter f t = Hashtbl.iter (fun k e -> f k e.value) t.tbl
let fold f t acc = Hashtbl.fold (fun k e acc -> f k e.value acc) t.tbl acc
