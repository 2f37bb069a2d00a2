(** A hash table that remembers the order its entries were last used
    in: the one LRU policy behind the buffer pools (paper section 5),
    the track cache, the FIT cache, the name cache and the Bullet RAM
    cache. It holds no capacity: each owner keeps its own eviction
    rule and picks the victim with {!lru}. Recency is a total order,
    so the victim never depends on hash-bucket order. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create n] is an empty table sized for about [n] entries. *)

val length : ('k, 'v) t -> int

val mem : ('k, 'v) t -> 'k -> bool

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup that leaves recency unchanged. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit becomes the most recently used entry. *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert, or overwrite in place, as the most recently used entry. *)

val remove : ('k, 'v) t -> 'k -> unit

val reset : ('k, 'v) t -> unit
(** Empty the table and shrink it to its initial size. *)

val lru : ?skip:('v -> bool) -> ('k, 'v) t -> ('k * 'v) option
(** The least recently used entry whose value [skip] does not reject,
    or [None] if there is none. Leaves recency unchanged. *)

val sort_oldest_first : ('k, 'v) t -> ('k * 'v) list -> ('k * 'v) list
(** Order pairs by the last use of their key, least recent first; keys
    not in the table go last. A list of 0 or 1 pairs comes back as is,
    without allocating. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** In table order, like [Hashtbl.iter]. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** In table order, like [Hashtbl.fold]. *)
