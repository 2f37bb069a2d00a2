module Counter = Rhodos_util.Stats.Counter
module Lru = Rhodos_util.Lru

type system_name = { service : string; id : int }

type kind = File | Device | Directory

type attributed_name = (string * string) list

exception Name_not_found of string
exception Already_bound of string
exception Not_a_directory of string
exception Is_a_directory of string
exception Directory_not_empty of string
exception Unresolvable of string

type payload = Dir of (string, entry) Hashtbl.t | Obj of system_name

and entry = { kind : kind; mutable attrs : (string * string) list; payload : payload }

type t = { root : entry }

let kind_attribute = function File -> "FILE" | Device -> "TTY" | Directory -> "DIR"

let create () =
  { root = { kind = Directory; attrs = [ ("type", "DIR") ]; payload = Dir (Hashtbl.create 8) } }

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then
    invalid_arg (Printf.sprintf "Name_service: path %S must be absolute" path);
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

(* Walk to the entry at [path]. *)
let rec walk entry components path =
  match components with
  | [] -> entry
  | c :: rest -> (
    match entry.payload with
    | Obj _ -> raise (Not_a_directory path)
    | Dir children -> (
      match Hashtbl.find_opt children c with
      | Some child -> walk child rest path
      | None -> raise (Name_not_found path)))

let find t path = walk t.root (split_path path) path

(* Parent directory plus leaf component of [path]. *)
let parent_and_leaf t path =
  match List.rev (split_path path) with
  | [] -> invalid_arg "Name_service: the root has no parent"
  | leaf :: rev_parents ->
    let parent_components = List.rev rev_parents in
    let parent = walk t.root parent_components path in
    (match parent.payload with
    | Dir children -> (children, leaf)
    | Obj _ -> raise (Not_a_directory path))

let exists t path =
  match find t path with _ -> true | exception (Name_not_found _ | Not_a_directory _) -> false

let mkdir t path =
  let children, leaf = parent_and_leaf t path in
  if Hashtbl.mem children leaf then raise (Already_bound path);
  Hashtbl.replace children leaf
    { kind = Directory; attrs = [ ("type", "DIR") ]; payload = Dir (Hashtbl.create 8) }

let mkdir_p t path =
  let components = split_path path in
  let rec loop prefix = function
    | [] -> ()
    | c :: rest ->
      let here = prefix ^ "/" ^ c in
      (match find t here with
      | { payload = Dir _; _ } -> ()
      | { payload = Obj _; _ } -> raise (Not_a_directory here)
      | exception Name_not_found _ -> mkdir t here);
      loop here rest
  in
  loop "" components

let rmdir t path =
  let children, leaf = parent_and_leaf t path in
  match Hashtbl.find_opt children leaf with
  | None -> raise (Name_not_found path)
  | Some { payload = Obj _; _ } -> raise (Not_a_directory path)
  | Some { payload = Dir grandchildren; _ } ->
    if Hashtbl.length grandchildren > 0 then raise (Directory_not_empty path);
    Hashtbl.remove children leaf

let list_dir t path =
  match (find t path).payload with
  | Obj _ -> raise (Not_a_directory path)
  | Dir children ->
    Hashtbl.fold (fun name e acc -> (name, e.kind) :: acc) children []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let bind t ~path ~kind ?(attributes = []) sysname =
  if kind = Directory then invalid_arg "Name_service.bind: use mkdir for directories";
  let children, leaf = parent_and_leaf t path in
  if Hashtbl.mem children leaf then raise (Already_bound path);
  let attrs = ("type", kind_attribute kind) :: attributes in
  Hashtbl.replace children leaf { kind; attrs; payload = Obj sysname }

let unbind t path =
  let children, leaf = parent_and_leaf t path in
  match Hashtbl.find_opt children leaf with
  | None -> raise (Name_not_found path)
  | Some { payload = Dir _; _ } -> raise (Is_a_directory path)
  | Some { payload = Obj _; _ } -> Hashtbl.remove children leaf

let rename t ~old_path ~new_path =
  let src_children, src_leaf = parent_and_leaf t old_path in
  let entry =
    match Hashtbl.find_opt src_children src_leaf with
    | None -> raise (Name_not_found old_path)
    | Some e -> e
  in
  let dst_children, dst_leaf = parent_and_leaf t new_path in
  if Hashtbl.mem dst_children dst_leaf then raise (Already_bound new_path);
  Hashtbl.remove src_children src_leaf;
  Hashtbl.replace dst_children dst_leaf entry

let resolve_path t path =
  match (find t path).payload with
  | Obj sysname -> sysname
  | Dir _ -> raise (Is_a_directory path)

let attributes t path =
  (find t path).attrs |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let set_attribute t ~path ~key ~value =
  let e = find t path in
  e.attrs <- (key, value) :: List.remove_assoc key e.attrs

let matches_attrs entry wanted =
  List.for_all
    (fun (k, v) -> match List.assoc_opt k entry.attrs with Some v' -> v = v' | None -> false)
    wanted

(* Attribute-only resolution: search every bound object for a unique
   match of all the given attributes. *)
let resolve_by_attributes t wanted =
  let found = ref [] in
  let rec scan entry =
    match entry.payload with
    | Obj sysname -> if matches_attrs entry wanted then found := sysname :: !found
    | Dir children -> Hashtbl.iter (fun _ child -> scan child) children
  in
  scan t.root;
  match !found with
  | [ sysname ] -> sysname
  | [] -> raise (Unresolvable "no entry matches the attributed name")
  | _ -> raise (Unresolvable "attributed name is ambiguous")

let find_all t wanted =
  let found = ref [] in
  let rec scan path entry =
    match entry.payload with
    | Obj sysname -> if matches_attrs entry wanted then found := (path, sysname) :: !found
    | Dir children ->
      Hashtbl.iter
        (fun name child ->
          scan ((if path = "/" then "" else path) ^ "/" ^ name) child)
        children
  in
  scan "/" t.root;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !found

let resolve t (aname : attributed_name) =
  match List.assoc_opt "path" aname with
  | Some path ->
    let entry = find t path in
    let other = List.remove_assoc "path" aname in
    if not (matches_attrs entry other) then
      raise (Unresolvable (path ^ ": attribute constraints not satisfied"));
    (match entry.payload with
    | Obj sysname -> sysname
    | Dir _ -> raise (Is_a_directory path))
  | None -> resolve_by_attributes t aname

module Cache = struct
  type ns = t

  type nonrec t = {
    capacity : int;
    slots : (attributed_name, system_name) Lru.t;
    counters : Counter.t;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Name_service.Cache.create";
    { capacity; slots = Lru.create capacity; counters = Counter.create () }

  let evict_if_needed c =
    while Lru.length c.slots > c.capacity do
      match Lru.lru c.slots with Some (k, _) -> Lru.remove c.slots k | None -> ()
    done

  let normalise aname = List.sort compare aname

  let resolve c ns aname =
    let key = normalise aname in
    match Lru.find c.slots key with
    | Some value ->
      Counter.incr c.counters "hits";
      value
    | None ->
      Counter.incr c.counters "misses";
      let value = resolve ns aname in
      Lru.replace c.slots key value;
      evict_if_needed c;
      value

  let invalidate c aname = Lru.remove c.slots (normalise aname)

  let clear c = Lru.reset c.slots

  let stats c = c.counters
end
