module Disk = Rhodos_disk.Disk
module Crc32 = Rhodos_util.Crc32

exception Unrecoverable_page of int

let magic = 0x5244464Cl (* "RDFL" *)

type replica = { disk : Disk.t; start_sector : int }

type t = {
  primary : replica;
  mirror : replica;
  page_bytes : int;
  npages : int;
  sector_bytes : int;
  mutable next_seq : int64;
}

let sectors_per_page ~page_bytes ~sector_bytes = 1 + (page_bytes / sector_bytes)

let sectors_needed ~page_bytes ~npages ~sector_bytes =
  npages * sectors_per_page ~page_bytes ~sector_bytes

let create ~primary ~primary_sector ~mirror ~mirror_sector ~page_bytes ~npages =
  let sector_bytes = (Disk.geometry primary).sector_bytes in
  if (Disk.geometry mirror).sector_bytes <> sector_bytes then
    invalid_arg "Stable_store.create: mismatched sector sizes";
  if page_bytes <= 0 || page_bytes mod sector_bytes <> 0 then
    invalid_arg "Stable_store.create: page_bytes must be a multiple of the sector size";
  if npages <= 0 then invalid_arg "Stable_store.create: npages";
  let need = sectors_needed ~page_bytes ~npages ~sector_bytes in
  let check (r : replica) =
    if r.start_sector < 0 || r.start_sector + need > Disk.capacity_sectors r.disk
    then invalid_arg "Stable_store.create: region does not fit the disk"
  in
  let primary = { disk = primary; start_sector = primary_sector } in
  let mirror = { disk = mirror; start_sector = mirror_sector } in
  check primary;
  check mirror;
  { primary; mirror; page_bytes; npages; sector_bytes; next_seq = 1L }

let npages t = t.npages
let page_bytes t = t.page_bytes

let check_page t page =
  if page < 0 || page >= t.npages then invalid_arg "Stable_store: page out of range"

let page_sector t (r : replica) page =
  r.start_sector
  + (page * sectors_per_page ~page_bytes:t.page_bytes ~sector_bytes:t.sector_bytes)

(* On-disk copy layout: [header sector | payload sectors]. Header
   fields, little-endian: magic(4) crc(4) seq(8). *)
let encode_copy t ~seq payload =
  let raw = Bytes.create (t.sector_bytes + t.page_bytes) in
  Bytes.fill raw 0 t.sector_bytes '\000';
  Bytes.set_int32_le raw 0 magic;
  Bytes.set_int32_le raw 4 (Crc32.bytes payload);
  Bytes.set_int64_le raw 8 seq;
  Bytes.blit payload 0 raw t.sector_bytes t.page_bytes;
  raw

(* Validate the copy at [off] in a buffer read off the disk, in place;
   [Some (seq, payload)] if the magic and checksum hold. Only a valid
   payload is copied out. *)
let decode_copy t raw ~off =
  if off + t.sector_bytes + t.page_bytes > Bytes.length raw then None
  else if Bytes.get_int32_le raw off <> magic then None
  else
    let pos = off + t.sector_bytes in
    if Crc32.sub raw ~pos ~len:t.page_bytes <> Bytes.get_int32_le raw (off + 4) then None
    else Some (Bytes.get_int64_le raw (off + 8), Bytes.sub raw pos t.page_bytes)

let read_copy t (r : replica) page =
  let sector = page_sector t r page in
  let count = sectors_per_page ~page_bytes:t.page_bytes ~sector_bytes:t.sector_bytes in
  match Disk.read r.disk ~sector ~count with
  | raw -> decode_copy t raw ~off:0
  | exception (Disk.Media_failure _ | Disk.Disk_failed _) -> None

(* [Disk] copies a write's payload into its image when the write runs,
   so one encoded copy can be handed to both replicas. *)
let write_raw t (r : replica) page raw = Disk.write r.disk ~sector:(page_sector t r page) raw

let write_copy t r page ~seq payload = write_raw t r page (encode_copy t ~seq payload)

let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- Int64.add seq 1L;
  seq

let raise_seq_floor t floor = if floor > t.next_seq then t.next_seq <- floor

let write t ~page payload =
  check_page t page;
  if Bytes.length payload <> t.page_bytes then
    invalid_arg "Stable_store.write: payload size";
  let raw = encode_copy t ~seq:(fresh_seq t) payload in
  write_raw t t.primary page raw;
  write_raw t t.mirror page raw

let write_torn t ~page payload =
  check_page t page;
  if Bytes.length payload <> t.page_bytes then
    invalid_arg "Stable_store.write_torn: payload size";
  let seq = fresh_seq t in
  write_copy t t.primary page ~seq payload

let read t ~page =
  check_page t page;
  match read_copy t t.primary page with
  | Some (_, payload) -> payload
  | None -> (
    match read_copy t t.mirror page with
    | Some (_, payload) -> payload
    | None -> raise (Unrecoverable_page page))

let is_initialized t ~page =
  check_page t page;
  match read_copy t t.primary page with
  | Some _ -> true
  | None -> ( match read_copy t t.mirror page with Some _ -> true | None -> false)

module Sim = Rhodos_sim.Sim

type page_repair = Repaired_primary | Repaired_mirror | Lost

type recovery_report = {
  pages_scanned : int;
  repairs : (int * page_repair) list;
}

(* Recovery reads each replica's region in large contiguous chunks —
   one disk reference per [chunk_pages] pages instead of one per
   page — falling back to per-page reads inside a chunk that hits a
   media fault. *)
let chunk_pages = 64

(* Returns, per page, the decoded copy and whether the page's sectors
   are unreadable at the device level (to tell "never written" from
   "lost"). *)
let read_copies_chunk t (r : replica) ~first_page ~count =
  let spp = sectors_per_page ~page_bytes:t.page_bytes ~sector_bytes:t.sector_bytes in
  let copy_bytes = spp * t.sector_bytes in
  match
    Disk.read r.disk ~sector:(page_sector t r first_page) ~count:(count * spp)
  with
  | raw -> Array.init count (fun i -> (decode_copy t raw ~off:(i * copy_bytes), false))
  | exception (Disk.Media_failure _ | Disk.Disk_failed _) ->
    Array.init count (fun i ->
        match Disk.read r.disk ~sector:(page_sector t r (first_page + i)) ~count:spp with
        | raw -> (decode_copy t raw ~off:0, false)
        | exception (Disk.Media_failure _ | Disk.Disk_failed _) -> (None, true))

(* The two replicas sit on independent disks, so each chunk's mirror
   read runs in a spawned process while the caller reads the primary:
   a chunk costs the slower of the two reads, not their sum. The
   reader hands its result back through an ivar, filled on every path,
   so only the caller writes the scan arrays. *)
let read_chunk_pair t ~first_page ~count =
  let sim = Disk.sim t.mirror.disk in
  let mirror = Sim.Ivar.create sim in
  let fill = Sim.Ivar.fill mirror in
  ignore
    (Sim.spawn ~name:"stable-mirror-scan" sim (fun () ->
         match read_copies_chunk t t.mirror ~first_page ~count with
         | copies -> fill (Ok copies)
         | exception e ->
           fill (Error e);
           raise e));
  let primary = read_copies_chunk t t.primary ~first_page ~count in
  match Sim.Ivar.read mirror with
  | Ok mirror -> (primary, mirror)
  | Error e -> raise e

let check_range name t ~first ~count =
  if first < 0 || count < 0 || first + count > t.npages then
    invalid_arg ("Stable_store." ^ name ^ ": range out of bounds")

(* Each page as [read] has it: the valid primary copy, else the valid
   mirror copy. A page with neither and no device fault on either
   replica was never written and reads as zeros. *)
let read_range t ~first ~count =
  check_range "read_range" t ~first ~count;
  let out = Bytes.make (count * t.page_bytes) '\000' in
  let rec scan i =
    if i < count then begin
      let n = min chunk_pages (count - i) in
      let p, m = read_chunk_pair t ~first_page:(first + i) ~count:n in
      for j = 0 to n - 1 do
        match (p.(j), m.(j)) with
        | (Some (_, payload), _), _ | _, (Some (_, payload), _) ->
          Bytes.blit payload 0 out ((i + j) * t.page_bytes) t.page_bytes
        | (None, false), (None, false) -> ()
        | _ -> raise (Unrecoverable_page (first + i + j))
      done;
      scan (i + n)
    end
  in
  scan 0;
  out

let recover_range t ~first ~count =
  check_range "recover_range" t ~first ~count;
  let repairs = ref [] in
  let max_seq = ref 0L in
  let note = function
    | Some (seq, _) -> if seq > !max_seq then max_seq := seq
    | None -> ()
  in
  let primaries = Array.make count (None, false)
  and mirrors = Array.make count (None, false) in
  let rec scan i =
    if i < count then begin
      let n = min chunk_pages (count - i) in
      let p, m = read_chunk_pair t ~first_page:(first + i) ~count:n in
      Array.blit p 0 primaries i n;
      Array.blit m 0 mirrors i n;
      scan (i + n)
    end
  in
  scan 0;
  (* A repair write can itself fail (the target unit is down): the
     page then stays a one-copy page — still readable — rather than
     aborting the whole scan. *)
  let try_repair replica page ~seq payload outcome =
    match write_copy t replica page ~seq payload with
    | () -> repairs := (page, outcome) :: !repairs
    | exception Disk.Disk_failed _ -> ()
  in
  for i = 0 to count - 1 do
    let page = first + i in
    let p, p_faulty = primaries.(i) and m, m_faulty = mirrors.(i) in
    note p;
    note m;
    match (p, m) with
    | None, None ->
      (* Distinguish "never written" (both all-zero: fine) from
         "lost" (a device-level fault on either side). *)
      if p_faulty || m_faulty then repairs := (page, Lost) :: !repairs
    | Some (seq, payload), None ->
      try_repair t.mirror page ~seq payload Repaired_mirror
    | None, Some (seq, payload) ->
      try_repair t.primary page ~seq payload Repaired_primary
    | Some (ps, pp), Some (ms, _) when ps > ms ->
      try_repair t.mirror page ~seq:ps pp Repaired_mirror
    | Some (ps, _), Some (ms, mp) when ms > ps ->
      try_repair t.primary page ~seq:ms mp Repaired_primary
    | Some _, Some _ -> ()
  done;
  (* Future writes must not reuse sequence numbers present in the
     scanned pages, or "newer copy wins" would break after a
     re-attach. Pages outside the range are the caller's concern: see
     [raise_seq_floor]. *)
  raise_seq_floor t (Int64.add !max_seq 1L);
  { pages_scanned = count; repairs = List.rev !repairs }

let recover t = recover_range t ~first:0 ~count:t.npages

let start_scrubber ~interval_ms t =
  let repairs = ref 0 in
  let sim = Disk.sim t.primary.disk in
  let pid =
    Sim.spawn ~name:"stable-scrubber" sim (fun () ->
        while true do
          Sim.sleep sim interval_ms;
          let report = recover t in
          repairs :=
            !repairs
            + List.length
                (List.filter (fun (_, r) -> r <> Lost) report.repairs)
        done)
  in
  (pid, fun () -> !repairs)
