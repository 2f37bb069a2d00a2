module Sim = Rhodos_sim.Sim
module Counter = Rhodos_util.Stats.Counter
module Lru = Rhodos_util.Lru

type policy =
  | Write_through
  | Delayed_write of { flush_interval_ms : float }

(* [flushing] marks a buffer whose bytes are in the hands of a
   blocking writeback (batch entry whose thunk has not run yet, or a
   single writeback in flight). Eviction must skip such buffers: a
   victim evicted mid-flush gets its current bytes persisted by the
   eviction and is then clobbered by the batch's older snapshot when
   the batch resumes — a silent lost update (regression-tested in
   test_cache). *)
type buffer = {
  mutable data : bytes;
  mutable dirty : bool;
  mutable flushing : bool;
}

(* [id] recovers the key type that [Batch_written] hides. *)
type 'k t = {
  id : 'k Type.Id.t;
  name : string;
  sim : Sim.t;
  capacity : int;
  policy : policy;
  writeback : 'k -> bytes -> unit;
  writeback_batch : (('k * bytes * (unit -> unit)) list -> unit) option;
  on_evict : ('k -> unit) option;
  buffers : ('k, buffer) Lru.t Sim.Cell.cell;
  counters : Counter.t;
  mutable flusher : Sim.pid option;
}

type Sim.mon_event +=
  | Batch_written : { cache : 'k t; key : 'k; stale : bool } -> Sim.mon_event

let same a b = Type.Id.provably_equal a.id b.id

(* Read / mutate the pool through its cell so the sanitizer observes
   the accesses; [mut] runs an in-place mutation under an [update] so
   it registers as a write. *)
let bufs t = Sim.Cell.get t.buffers

let mut t f =
  Sim.Cell.update t.buffers (fun h ->
      f h;
      h)

(* Is [b] still the pool's current buffer for [k]? An analysis check
   ([peek]), not an access. *)
let still_pooled t k b =
  match Lru.peek (Sim.Cell.peek t.buffers) k with
  | Some b' -> b' == b
  | None -> false

(* A buffer is marked clean only when its bytes are actually on the
   way out, never for the whole set up front: the batch writer gets a
   [written] thunk per entry and must invoke it just before persisting
   that entry, so a crash mid-batch loses (and counts via [crash])
   exactly the not-yet-written tail. A concurrent write landing during
   the (possibly blocking) writeback either re-dirties the buffer, or
   — if it replaced the bytes before they went out — is kept dirty for
   the next flush by the physical-identity check in the thunk. *)
let write_out t dirty =
  let entries = List.filter (fun (_, b) -> b.dirty) dirty in
  match (entries, t.writeback_batch) with
  | [], _ -> ()
  | entries, Some batch ->
    Counter.incr t.counters "batch_flushes";
    mut t (fun _ -> List.iter (fun (_, b) -> b.flushing <- true) entries);
    let jobs =
      List.map
        (fun (k, b) ->
          let snapshot = b.data in
          ( k,
            snapshot,
            fun () ->
              b.flushing <- false;
              Counter.incr t.counters "writebacks";
              if Sim.observed t.sim then
                Sim.emit t.sim
                  (Batch_written
                     { cache = t; key = k; stale = not (still_pooled t k b) });
              if b.dirty && b.data == snapshot then b.dirty <- false ))
        entries
    in
    Fun.protect
      ~finally:(fun () ->
        mut t (fun _ -> List.iter (fun (_, b) -> b.flushing <- false) entries))
      (fun () -> batch jobs)
  | entries, None ->
    List.iter
      (fun (k, b) ->
        if b.dirty then begin
          mut t (fun _ ->
              b.dirty <- false;
              b.flushing <- true);
          Counter.incr t.counters "writebacks";
          Fun.protect
            ~finally:(fun () -> b.flushing <- false)
            (fun () -> t.writeback k b.data)
        end)
      entries

let rec flusher_loop t () =
  match t.policy with
  | Write_through -> ()
  | Delayed_write { flush_interval_ms } ->
    Sim.sleep t.sim flush_interval_ms;
    flush t;
    flusher_loop t ()

and flush t =
  (* Oldest dirty buffers first, so recency is preserved on re-dirty. *)
  let h = bufs t in
  Lru.fold (fun k b acc -> if b.dirty then (k, b) :: acc else acc) h []
  |> Lru.sort_oldest_first h
  |> write_out t

let create ?(name = "cache") ?writeback_batch ?on_evict ~sim ~capacity ~policy
    ~writeback () =
  if capacity <= 0 then invalid_arg "Buffer_cache.create: capacity";
  let t =
    {
      id = Type.Id.make ();
      name;
      sim;
      capacity;
      policy;
      writeback;
      writeback_batch;
      on_evict;
      buffers =
        Sim.Cell.create ~role:Sim.Sync ~name:("cache:" ^ name ^ ":pool") sim
          (Lru.create capacity);
      counters = Counter.create ();
      flusher = None;
    }
  in
  (match policy with
  | Delayed_write { flush_interval_ms } when flush_interval_ms > 0. ->
    t.flusher <- Some (Sim.spawn ~name:(name ^ "-flusher") sim (flusher_loop t))
  | Delayed_write _ | Write_through -> ());
  t

let capacity t = t.capacity
let length t = Lru.length (Sim.Cell.peek t.buffers)
let stats t = t.counters

let find t k =
  match Lru.find (bufs t) k with
  | Some b ->
    Counter.incr t.counters "hits";
    (* A copy, not the pool's own buffer: handing out the live buffer
       let a caller's in-place edit silently corrupt the cache (and be
       flushed as if it had been written). *)
    Some (Bytes.copy b.data)
  | None ->
    Counter.incr t.counters "misses";
    None

(* [find] without the intermediate copy: a hit's range goes straight
   into the caller's buffer, so the pool's own buffer still never
   leaves the pool. *)
let read_into t k ~off ~len dst ~dst_off =
  match Lru.find (bufs t) k with
  | Some b ->
    Counter.incr t.counters "hits";
    Bytes.blit b.data off dst dst_off len;
    true
  | None ->
    Counter.incr t.counters "misses";
    false

let mem t k = Lru.mem (bufs t) k

(* [false] = nothing evictable (every candidate is mid-flush); the
   pool then temporarily exceeds capacity rather than corrupting a
   flush in progress. *)
let evict_one t =
  match Lru.lru ~skip:(fun b -> b.flushing) (bufs t) with
  | None -> false
  | Some (k, b) ->
    Counter.incr t.counters "evictions";
    (match t.on_evict with Some f -> f k | None -> ());
    if b.dirty then begin
      Counter.incr t.counters "dirty_evictions";
      mut t (fun _ ->
          b.dirty <- false;
          b.flushing <- true);
      Fun.protect
        ~finally:(fun () -> b.flushing <- false)
        (fun () -> t.writeback k b.data)
    end;
    (* Re-dirtied during the blocking writeback: the new bytes must
       survive, so the eviction is abandoned (the next round picks
       another victim, or this one once it is flushed). *)
    if not b.dirty then mut t (fun h -> Lru.remove h k);
    true

let make_room t =
  let evictable = ref true in
  while !evictable && Lru.length (bufs t) >= t.capacity do
    evictable := evict_one t
  done

let upsert t k data ~dirty =
  match Lru.find (bufs t) k with
  | Some b ->
    mut t (fun _ ->
        b.data <- data;
        if dirty then b.dirty <- true)
  | None ->
    make_room t;
    mut t (fun h -> Lru.replace h k { data; dirty; flushing = false })

let insert_clean t k data = upsert t k data ~dirty:false

let write t k data =
  Counter.incr t.counters "writes";
  match t.policy with
  | Write_through ->
    upsert t k data ~dirty:false;
    Counter.incr t.counters "writebacks";
    t.writeback k data
  | Delayed_write _ -> upsert t k data ~dirty:true

let invalidate t k = mut t (fun h -> Lru.remove h k)

let invalidate_all t = mut t (fun h -> Lru.reset h)

let flush_keys t ks =
  List.filter_map
    (fun k ->
      match Lru.peek (bufs t) k with
      | Some b when b.dirty -> Some (k, b)
      | Some _ | None -> None)
    ks
  |> Lru.sort_oldest_first (Sim.Cell.peek t.buffers)
  |> write_out t

let flush_key t k = flush_keys t [ k ]

let dirty_count t =
  Lru.fold
    (fun _ b acc -> if b.dirty then acc + 1 else acc)
    (Sim.Cell.peek t.buffers) 0

let dirty_keys t =
  Lru.fold
    (fun k b acc -> if b.dirty then k :: acc else acc)
    (Sim.Cell.peek t.buffers) []
  |> List.sort compare

let crash t =
  let lost = dirty_count t in
  Counter.add t.counters "lost_dirty" lost;
  mut t (fun h -> Lru.reset h);
  lost

let stop t =
  match t.flusher with
  | Some pid ->
    Sim.kill t.sim pid;
    t.flusher <- None
  | None -> ()
