(** CRC-32 (IEEE 802.3 polynomial), used to checksum stable-storage
    pages so that a torn mirrored write is detectable on recovery.
    Computed slicing-by-8 over native ints. *)

val bytes : bytes -> int32
(** Checksum of a whole buffer. *)

val sub : bytes -> pos:int -> len:int -> int32
(** Checksum of a slice, in place.
    @raise Invalid_argument if the slice is outside the buffer. *)

val string : string -> int32
