module Block = Rhodos_block.Block_service
module Crc32 = Rhodos_util.Crc32

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
  | Abort of { txn : int }

exception Log_full

let frag_bytes = Block.fragment_bytes
let record_magic = 0x474F4C52l (* "RLOG" *)
let header_bytes = 13 (* magic(4) payload_len(4) crc(4) kind(1) *)

type t = {
  bs : Block.t;
  region : int;       (* first fragment *)
  fragments : int;
  image : bytes;      (* in-memory copy of the whole region *)
  mutable cursor : int;
}

let capacity t = t.fragments * frag_bytes

let create bs ~fragments =
  if fragments <= 0 then invalid_arg "Txn_log.create";
  let region = Block.allocate bs ~fragments in
  let t = { bs; region; fragments; image = Bytes.make (fragments * frag_bytes) '\000'; cursor = 0 } in
  (* Ensure the on-disk head is clean so scans stop immediately. *)
  let dest = if Block.has_stable bs then Block.Original_and_stable else Block.Original in
  Block.put_block ~dest bs ~pos:region (Bytes.make frag_bytes '\000');
  t

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let kind_code = function
  | Write _ -> 1
  | Shadow _ -> 2
  | Commit _ -> 3
  | Done _ -> 4
  | Abort _ -> 5

let payload_bytes = function
  | Write { data; _ } -> 28 + Bytes.length data
  | Shadow _ -> 36
  | Commit _ | Done _ | Abort _ -> 8

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
  | Commit { txn } | Done { txn } | Abort { txn } ->
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
  | 5 -> Some (Abort { txn })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let persist_range t ~pos ~len =
  let first = pos / frag_bytes and last = (pos + len - 1) / frag_bytes in
  let dest =
    if Block.has_stable t.bs then Block.Original_and_stable else Block.Original
  in
  (* One contiguous put for the whole dirtied range. *)
  let frags = last - first + 1 in
  Block.put_block ~dest t.bs
    ~pos:(t.region + first)
    (Bytes.sub t.image (first * frag_bytes) (frags * frag_bytes))

let append t record =
  let len = payload_bytes record in
  let total = header_bytes + len in
  (* Keep one spare header's room so the terminator (zero magic) after
     the last record is always inside the region. *)
  if t.cursor + total + 4 > capacity t then raise Log_full;
  let b = t.image in
  let pos = t.cursor in
  encode_payload b (pos + header_bytes) record;
  Bytes.set_int32_le b pos record_magic;
  Bytes.set_int32_le b (pos + 4) (Int32.of_int len);
  Bytes.set_int32_le b (pos + 8) (Crc32.sub b ~pos:(pos + header_bytes) ~len);
  Bytes.set_uint8 b (pos + 12) (kind_code record);
  (* Zero terminator after the record (may already be zero). *)
  Bytes.set_int32_le b (pos + total) 0l;
  t.cursor <- pos + total;
  persist_range t ~pos ~len:(total + 4)

let scan_image image =
  let cap = Bytes.length image in
  let rec loop pos acc =
    if pos + header_bytes + 4 > cap then (List.rev acc, pos)
    else if Bytes.get_int32_le image pos <> record_magic then (List.rev acc, pos)
    else begin
      let len = Int32.to_int (Bytes.get_int32_le image (pos + 4)) in
      let crc = Bytes.get_int32_le image (pos + 8) in
      let kind = Bytes.get_uint8 image (pos + 12) in
      let p = pos + header_bytes in
      if len < 8 || p + len > cap || Crc32.sub image ~pos:p ~len <> crc then
        (List.rev acc, pos)
      else
        match decode_record ~kind image p ~len with
        | Some r -> loop (p + len) (r :: acc)
        | None -> (List.rev acc, pos)
    end
  in
  loop 0 []

let attach bs ~region ~fragments =
  let image =
    if Block.has_stable bs then begin
      (* Prefer the stable copy of the log. *)
      match Block.get_block ~source:Block.Stable bs ~pos:region ~fragments with
      | img -> img
      | exception _ -> Block.get_block bs ~pos:region ~fragments
    end
    else Block.get_block bs ~pos:region ~fragments
  in
  let t = { bs; region; fragments; image; cursor = 0 } in
  let _, cursor = scan_image t.image in
  t.cursor <- cursor;
  t

let scan t = fst (scan_image t.image)

let checkpoint t =
  t.cursor <- 0;
  Bytes.fill t.image 0 (Bytes.length t.image) '\000';
  let dest =
    if Block.has_stable t.bs then Block.Original_and_stable else Block.Original
  in
  Block.put_block ~dest t.bs ~pos:t.region (Bytes.make frag_bytes '\000')

let region t = t.region
let fragments t = t.fragments
let used_bytes t = t.cursor
let capacity_bytes t = capacity t
