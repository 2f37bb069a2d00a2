module Net = Rhodos_net.Net
module Block = Rhodos_block.Block_service
module Counter = Rhodos_util.Stats.Counter
module Lru = Rhodos_util.Lru

type file_id = int

exception No_such_file of int

type stored = { frag : int; fragments : int; size : int }

type request =
  | Create of bytes
  | Read of file_id
  | Delete of file_id

type response = Created of file_id | Data of bytes | Deleted | Error of string

type t = {
  net : Net.t;
  block : Block.t;
  files : (file_id, stored) Hashtbl.t;
  ram : (file_id, bytes) Lru.t;
  ram_capacity : int;
  mutable next_id : int;
  cache_counters : Counter.t;
  port : (request, response) Net.Rpc.port;
}

let frag_bytes = Block.fragment_bytes

let evict_if_needed t =
  while Lru.length t.ram > t.ram_capacity do
    match Lru.lru t.ram with Some (id, _) -> Lru.remove t.ram id | None -> ()
  done

(* The serving process must answer every request: a storage fault
   (disk failure, unrecoverable page, cache miss on a corrupt table)
   becomes a wire [Error] instead of killing the server; only the
   simulator's kill is allowed through. *)
let handle t req =
  try
    match req with
    | Create data ->
    let size = Bytes.length data in
    let fragments = max 1 ((size + frag_bytes - 1) / frag_bytes) in
    (match Block.allocate t.block ~fragments with
    | frag ->
      let padded = Bytes.make (fragments * frag_bytes) '\000' in
      Bytes.blit data 0 padded 0 size;
      Block.put_block t.block ~pos:frag padded;
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.files id { frag; fragments; size };
      Lru.replace t.ram id (Bytes.copy data);
      evict_if_needed t;
      Created id
    | exception Block.No_space _ -> Error "no space")
  | Read id -> (
    match Hashtbl.find_opt t.files id with
    | None -> Error "no such file"
    | Some stored -> (
      (* Replies travel by reference: hand out copies, or a client
         editing what it read would change the immutable file for
         every later reader. *)
      match Lru.find t.ram id with
      | Some data ->
        Counter.incr t.cache_counters "hits";
        Data (Bytes.copy data)
      | None ->
        Counter.incr t.cache_counters "misses";
        (* One disk reference: the file is contiguous. *)
        let raw = Block.get_block t.block ~pos:stored.frag ~fragments:stored.fragments in
        let data = Bytes.sub raw 0 stored.size in
        Lru.replace t.ram id data;
        evict_if_needed t;
        Data (Bytes.copy data)))
  | Delete id -> (
    match Hashtbl.find_opt t.files id with
    | None -> Error "no such file"
    | Some stored ->
      Block.free t.block ~pos:stored.frag ~fragments:stored.fragments;
      Hashtbl.remove t.files id;
      Lru.remove t.ram id;
      Deleted)
  with
  | Rhodos_sim.Sim.Killed as k -> raise k
  | e -> Error (Printexc.to_string e)

let create ~net ~node ~block ~ram_cache_files =
  let rec t =
    lazy
      {
        net;
        block;
        files = Hashtbl.create 32;
        ram = Lru.create 32;
        ram_capacity = ram_cache_files;
        next_id = 1;
        cache_counters = Counter.create ();
        port = Net.Rpc.serve ~name:"bullet" net node (fun req -> handle (Lazy.force t) req);
      }
  in
  Lazy.force t

let rpc t ~from ~size_bytes ~resp_size_bytes req =
  let timeout_ms = 500. +. (4. *. float_of_int (max size_bytes resp_size_bytes) /. 1000.) in
  Net.Rpc.call ~timeout_ms ~max_retries:8 ~size_bytes ~resp_size_bytes t.net ~from
    t.port req

let create_file t ~from data =
  match
    rpc t ~from ~size_bytes:(128 + Bytes.length data) ~resp_size_bytes:128
      (Create (Bytes.copy data))
  with
  | Created id -> id
  | Error e -> failwith ("bullet: " ^ e)
  | Data _ | Deleted -> failwith "bullet: protocol mismatch"

let read_file t ~from id =
  (* The client does not know the size beforehand; Bullet clients
     allocate from the size in the capability — model the reply as
     file-sized. *)
  let expected =
    match Hashtbl.find_opt t.files id with Some s -> s.size | None -> 0
  in
  match rpc t ~from ~size_bytes:128 ~resp_size_bytes:(128 + expected) (Read id) with
  | Data data -> data
  | Error _ -> raise (No_such_file id)
  | Created _ | Deleted -> failwith "bullet: protocol mismatch"

let delete_file t ~from id =
  match rpc t ~from ~size_bytes:128 ~resp_size_bytes:128 (Delete id) with
  | Deleted -> ()
  | Error _ -> raise (No_such_file id)
  | Created _ | Data _ -> failwith "bullet: protocol mismatch"

let server_cache_stats t = t.cache_counters

let stop t = Net.Rpc.stop t.port
