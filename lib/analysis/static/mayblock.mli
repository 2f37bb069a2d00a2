(** The may-block fixpoint: which functions can suspend the calling
    process, and why.

    Seeded with the simulator's blocking primitives ([Sim.sleep],
    [Mailbox.recv], semaphore/ivar/condition waits), the RPC layer
    ([Net.Rpc.call], [Net.recv*]) and RPC calls through
    [Service_conn] record fields; propagated over the call graph to a
    fixpoint. Each reason keeps the class of blocking:

    - [Lock]: waiting for a lock grant — ordinary 2PL, judged by the
      lock-order pass and never reported as blocking-under-lock;
    - [Time]: waiting on simulated time or another process (sleep,
      mailbox, condition, ivar);
    - [Remote]: a network round trip (RPC, endpoint receive).

    Lock-acquiring functions are opaque: callers inherit their [Lock]
    class only, not the [Time] cost of the lock manager's internals. *)

type cls = Lock | Time | Remote

val cls_to_string : cls -> string

val seeds : (string * cls) list

val seed_class : string -> cls option
(** Class of a canonical name that is itself a primitive (including
    [Service_conn.<field>] pseudo-callees); [None] otherwise. *)

type t

val compute : Callgraph.t -> t

val reasons : t -> string -> (string * cls) list
(** Every (seed, class) reason a function may block. Works for seed
    names themselves as well as graph nodes. *)

val may_block : t -> string -> classes:cls list -> (string * cls) list
(** Reasons restricted to the given classes. *)

val chain : t -> string -> string -> string list
(** [chain t fn seed] — a witness call path from [fn] to [seed]. *)
