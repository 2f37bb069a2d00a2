(** The repo lint's per-file rules, on the compiler frontend's parse
    tree. One walk collects every long identifier a file mentions
    (expressions, patterns, types, module paths and [open]s); most rules
    read only that list.

    - {b no-wall-clock}: no [Unix] module, [Sys.time] or
      [Random.self_init] — everything runs on simulated time and seeded
      randomness or runs stop being replayable;
    - {b host-clock-hygiene}: no host clock ([Unix.gettimeofday],
      [Unix.time], [Unix.times], [Sys.time], [Monotonic_clock]) outside
      [profiler.ml], the single sanctioned host-time reader;
    - {b no-direct-print}: no [print_string], [Printf.printf],
      [prerr_endline], ... outside [logging.ml];
    - {b no-unseeded-random}: no [Random.int], [Random.bits], ... on
      the unseeded global state; draw from a seeded [Random.State];
    - {b hashtbl-iter-order}: a [Hashtbl]/[Lru] [iter]/[fold] whose
      closure conses a list, in a top-level item that never sorts;
    - {b global-mutable-state}: no module-level [ref]/[Hashtbl.create]/
      [Queue.create]/[Buffer.create] binding without parameters;
    - {b raw-shared-cell}: fields wrapped in [Sim.Cell] are never
      touched by a raw [Hashtbl.*], [<-] or [:=];
    - {b hot-path-alloc}: [dispatch], [step] and [run] in [sim.ml] use
      only the allocation-free [Prio_queue] accessors;
    - {b no-catch-all}: no [try ... with _ ->] (reported at the [with]);
    - {b paired-release}: a file that acquires a semaphore, mutex or
      lock also mentions its release;
    - {b bench-emitter}: every [exp_*.ml] calls [Json_out.register].

    A file the frontend rejects yields one [parse-failure] finding at
    the syntax error's line instead. *)

type profile =
  | Library  (** lib/: every rule but bench-emitter *)
  | Bench
      (** bench/: experiments print tables and time themselves, so only
          no-wall-clock, no-catch-all, paired-release and
          bench-emitter *)

val profile_rules : profile -> string list

val static_rules : string list
(** The rules [rhodos_lint static] runs beside its passes:
    raw-shared-cell, no-unseeded-random and hashtbl-iter-order. *)

val run : rules:string list -> Source.file list -> Finding.t list
(** The selected rules over parsed files, plus a [parse-failure] for
    each unparseable one; sorted, suppressions not yet applied. *)
