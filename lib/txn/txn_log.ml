module Sim = Rhodos_sim.Sim
module Block = Rhodos_block.Block_service
module Crc32 = Rhodos_util.Crc32
module Stable = Rhodos_stable.Stable_store

type record =
  | Write of { txn : int; file : int; off : int; data : bytes }
  | Shadow of {
      txn : int;
      file : int;
      block_index : int;
      shadow_disk : int;
      shadow_frag : int;
    }
  | Commit of { txn : int }
  | Done of { txn : int }

exception Log_full

let frag_bytes = Block.fragment_bytes
let record_magic = 0x474F4C52l (* "RLOG" *)
let header_bytes = 13 (* magic(4) payload_len(4) crc(4) kind(1) *)

type t = {
  bs : Block.t;
  region : int;       (* first fragment *)
  fragments : int;
  image : bytes;      (* in-memory copy of the whole region *)
  mutable cursor : int;   (* end of the records in [image] *)
  durable : int Sim.Cell.cell;
      (* [image] below this offset is on disk. Written only under
         [writer]; [flush] reads it without, to skip the writer when
         nothing is staged: the watermark only grows until a
         checkpoint, which resets the cursor with it. *)
  mutable owed : int;     (* room kept for the Dones not staged yet *)
  writer : Sim.Semaphore.sem; (* one put (or checkpoint) in flight *)
}

let capacity t = t.fragments * frag_bytes

let make bs ~region ~fragments image =
  { bs; region; fragments; image; cursor = 0; owed = 0;
    durable = Sim.Cell.create ~role:Sim.Sync ~name:"txn_log:durable" (Block.sim bs) 0;
    writer = Sim.Semaphore.create (Block.sim bs) 1 }

let dest t = if Block.has_stable t.bs then Block.Original_and_stable else Block.Original

let create bs ~fragments =
  if fragments <= 0 then invalid_arg "Txn_log.create";
  let region = Block.allocate bs ~fragments in
  let t = make bs ~region ~fragments (Bytes.make (fragments * frag_bytes) '\000') in
  (* Ensure the on-disk head is clean so scans stop immediately. *)
  Block.put_block ~dest:(dest t) bs ~pos:region (Bytes.make frag_bytes '\000');
  t

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let kind_code = function
  | Write _ -> 1
  | Shadow _ -> 2
  | Commit _ -> 3
  | Done _ -> 4

let payload_bytes = function
  | Write { data; _ } -> 28 + Bytes.length data
  | Shadow _ -> 36
  | Commit _ | Done _ -> 8

(* Payloads are encoded straight into the log image at [p] and decoded
   from it in place: only a [Write]'s data is ever copied out. *)
let encode_payload b p = function
  | Write { txn; file; off; data } ->
    Bytes.set_int64_le b p (Int64.of_int txn);
    Bytes.set_int64_le b (p + 8) (Int64.of_int file);
    Bytes.set_int64_le b (p + 16) (Int64.of_int off);
    Bytes.set_int32_le b (p + 24) (Int32.of_int (Bytes.length data));
    Bytes.blit data 0 b (p + 28) (Bytes.length data)
  | Shadow { txn; file; block_index; shadow_disk; shadow_frag } ->
    Bytes.set_int64_le b p (Int64.of_int txn);
    Bytes.set_int64_le b (p + 8) (Int64.of_int file);
    Bytes.set_int64_le b (p + 16) (Int64.of_int block_index);
    Bytes.set_int32_le b (p + 24) (Int32.of_int shadow_disk);
    Bytes.set_int64_le b (p + 28) (Int64.of_int shadow_frag)
  | Commit { txn } | Done { txn } ->
    Bytes.set_int64_le b p (Int64.of_int txn)

(* [len] is the payload's framed length; a payload too short for its
   kind is an invalid frame. *)
let decode_record ~kind b p ~len =
  let int64 at = Int64.to_int (Bytes.get_int64_le b (p + at)) in
  let txn = int64 0 in
  match kind with
  | 1 when len >= 28 ->
    let n = Int32.to_int (Bytes.get_int32_le b (p + 24)) in
    if n < 0 || 28 + n > len then None
    else Some (Write { txn; file = int64 8; off = int64 16; data = Bytes.sub b (p + 28) n })
  | 2 when len >= 36 ->
    Some
      (Shadow
         {
           txn;
           file = int64 8;
           block_index = int64 16;
           shadow_disk = Int32.to_int (Bytes.get_int32_le b (p + 24));
           shadow_frag = int64 28;
         })
  | 3 -> Some (Commit { txn })
  | 4 -> Some (Done { txn })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let frame_bytes record = header_bytes + payload_bytes record

let done_bytes = frame_bytes (Done { txn = 0 })

(* Keep one spare header's room so the terminator (zero magic) after
   the last record is always inside the region, and room for every
   Done still owed. *)
let fits t bytes = t.cursor + t.owed + bytes + 4 <= capacity t

(* Encode one frame at the cursor, followed by a zero terminator (the
   image past the cursor may hold a torn frame read back by [attach]). *)
let encode t record =
  let len = payload_bytes record in
  let b = t.image and pos = t.cursor in
  encode_payload b (pos + header_bytes) record;
  Bytes.set_int32_le b pos record_magic;
  Bytes.set_int32_le b (pos + 4) (Int32.of_int len);
  Bytes.set_int32_le b (pos + 8) (Crc32.sub b ~pos:(pos + header_bytes) ~len);
  Bytes.set_uint8 b (pos + 12) (kind_code record);
  Bytes.set_int32_le b (pos + header_bytes + len) 0l;
  t.cursor <- pos + header_bytes + len

(* One put of every fragment from the one holding the durable watermark
   to the one holding the terminator. The snapshot and the cursor are
   taken together, before the put yields: records encoded while it is
   in flight are not in it, so the watermark moves only to the cursor
   captured here. Callers hold [writer]. *)
let put t =
  let stop = t.cursor in
  let first = Sim.Cell.get t.durable / frag_bytes and last = (stop + 3) / frag_bytes in
  Block.put_block ~dest:(dest t) t.bs
    ~pos:(t.region + first)
    (Bytes.sub t.image (first * frag_bytes) ((last - first + 1) * frag_bytes));
  Sim.Cell.set t.durable stop

(* Group commit: a put that was in flight when we arrived may have
   snapshotted everything up to [upto] already. *)
let put_upto t upto = if Sim.Cell.get t.durable < upto then put t

let flush t =
  let upto = t.cursor in
  (* Nothing staged: no writer to wait for. *)
  if Sim.Cell.get t.durable < upto then Sim.Semaphore.with_acquire t.writer (fun () -> put_upto t upto)

(* The room for the transaction's Done is kept from here on, so its
   [stage_done] always fits: a Done that could be dropped would leave a
   Commit that a recovery redoes over whatever was written after it. *)
let append t records =
  if not (fits t (List.fold_left (fun n r -> n + frame_bytes r) done_bytes records)) then
    raise Log_full;
  t.owed <- t.owed + done_bytes;
  List.iter (encode t) records;
  flush t

let stage_done t ~txn =
  t.owed <- t.owed - done_bytes;
  encode t (Done { txn })

(* Walk the frames of [image] from [pos], trusting only its first
   [known] bytes. Returns the records read, newest first, the offset
   where the walk stopped, and whether that stop is final: it is not
   when the header there, or the frame the header announces, runs past
   [known]. *)
let rec walk image ~known pos acc =
  let cap = Bytes.length image in
  let stop final = (acc, pos, final) in
  if pos + header_bytes + 4 > cap then stop true
  else if pos + 4 > known then stop false
  else if Bytes.get_int32_le image pos <> record_magic then stop true
  else if pos + header_bytes > known then stop false
  else begin
    let len = Int32.to_int (Bytes.get_int32_le image (pos + 4)) in
    let crc = Bytes.get_int32_le image (pos + 8) in
    let kind = Bytes.get_uint8 image (pos + 12) in
    let p = pos + header_bytes in
    if len < 8 || p + len > cap then stop true
    else if p + len > known then stop false
    else if Crc32.sub image ~pos:p ~len <> crc then stop true
    else
      match decode_record ~kind image p ~len with
      | Some r -> walk image ~known (p + len) (r :: acc)
      | None -> stop true
  end

let scan_image image =
  let records, pos, _ = walk image ~known:(Bytes.length image) 0 [] in
  (List.rev records, pos)

(* A never-written stable page reads as zeros, so the walk's stop is
   final in the chunk that holds the terminator at the latest. *)
let attach bs ~region ~fragments =
  let image, cursor =
    if not (Block.has_stable bs) then begin
      let image = Block.get_block bs ~pos:region ~fragments in
      (image, snd (scan_image image))
    end
    else begin
      let image = Bytes.make (fragments * frag_bytes) '\000' in
      let rec read first pos =
        let n = min Stable.chunk_pages (fragments - first) and at = region + first in
        let chunk =
          match Block.get_block ~source:Block.Stable bs ~pos:at ~fragments:n with
          | b -> b
          | exception Stable.Unrecoverable_page _ -> Block.get_block bs ~pos:at ~fragments:n
        in
        Bytes.blit chunk 0 image (first * frag_bytes) (n * frag_bytes);
        match walk image ~known:((first + n) * frag_bytes) pos [] with
        | _, pos, true -> pos
        | _, pos, false -> read (first + n) pos
      in
      (image, read 0 0)
    end
  in
  let t = make bs ~region ~fragments image in
  t.cursor <- cursor;
  Sim.Cell.set t.durable cursor;
  t

let scan t = fst (scan_image t.image)

let checkpoint t =
  Sim.Semaphore.with_acquire t.writer (fun () ->
      t.cursor <- 0;
      Sim.Cell.set t.durable 0;
      Bytes.fill t.image 0 (Bytes.length t.image) '\000';
      Block.put_block ~dest:(dest t) t.bs ~pos:t.region (Bytes.make frag_bytes '\000'))

let region t = t.region
let fragments t = t.fragments
let used_bytes t = t.cursor
let capacity_bytes t = capacity t
