(* Slicing-by-8: [tables.(k * 256 + n)] is the CRC of byte [n]
   followed by [k] zero bytes, so one step folds eight input bytes
   with eight independent lookups. Table 0 is the classic bytewise
   table. Everything is a native int: no boxed [Int32] in the loop. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.sub";
  let t = tables in
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) and stop = pos + len in
  while !i < stop8 do
    let p = !i and c = !crc in
    crc :=
      Array.unsafe_get t ((7 * 256) + ((c lxor byte p) land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + (((c lsr 8) lxor byte (p + 1)) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + (((c lsr 16) lxor byte (p + 2)) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + ((c lsr 24) lxor byte (p + 3)))
      lxor Array.unsafe_get t ((3 * 256) + byte (p + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte (p + 5))
      lxor Array.unsafe_get t (256 + byte (p + 6))
      lxor Array.unsafe_get t (byte (p + 7));
    i := p + 8
  done;
  while !i < stop do
    let c = !crc in
    crc := Array.unsafe_get t ((c lxor byte !i) land 0xFF) lxor (c lsr 8);
    incr i
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let bytes b = sub b ~pos:0 ~len:(Bytes.length b)

let string s = bytes (Bytes.unsafe_of_string s)
