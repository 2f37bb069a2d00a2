(** Host-time / allocation profiler for the simulator, by layer.

    Armed with a {!Trace.t}, it takes two hooks on the tracer's world:
    the {!Rhodos_sim.Sim.probe}, which brackets every dispatched event,
    and the tracer's span events. Span [Start]/[Finish] events split a
    dispatch into segments, and each segment's host ns and words
    (minor + major - promoted, so buffers allocated straight into the
    major heap count) are charged to the layer of the innermost span
    the dispatching process has open. A layer is a span's [service]
    string. A process with no span of its own open falls back to the
    layer of the span it inherited (the parent of the first span it
    opened), otherwise to ["other"]. Host time and words between
    dispatches are the scheduler's: ["sim-core"]. The profiler's own
    time and allocation are measured around its hooks and kept out of
    every layer.

    Digest-neutrality: the hooks only write profiler-private state,
    never simulated state, so an armed run produces the digest an
    unarmed run with the same span subscribers produces (asserted by
    tests). This is the only module in lib/ that may read a host clock
    — the host-clock-hygiene lint pins all others. *)

val now_ns : unit -> int
(** Monotonic host clock, nanoseconds. Only meaningful as deltas. *)

type t
(** An armed profiler. *)

(** Totals charged to one layer. *)
type layer = { layer : string; host_ns : int; words : float }

(** One periodic sample (every [interval] dispatches). Deltas are
    relative to the previous sample. *)
type sample = {
  s_sim_ms : float;  (** sim time at the sampling dispatch *)
  s_host_ms : float;  (** host ms since [arm] *)
  s_queue_len : int;
  s_events_per_sec : float;  (** host-time event rate over the interval *)
  s_minor_words : float;
  s_major_words : float;
  s_minor_collections : int;
  s_major_collections : int;
}

type report = {
  wall_ns : int;  (** host time from [arm] to [disarm] *)
  hook_ns : int;  (** host time inside the profiler's own hooks *)
  core_share : float;
      (** ["sim-core"] host time over [wall_ns - hook_ns] *)
  dispatches : int;
  events_per_sec : float;  (** dispatches per host second *)
  words : float;
      (** every word allocated from [arm] to [disarm], the profiler's
          own included *)
  own_words : float;  (** the profiler's own allocation *)
  minor_collections : int;
  major_collections : int;
  sim_ms_advanced : float;
  queue_len_mean : float;
  queue_len_max : int;
  burst_mean : float;  (** mean same-sim-time dispatch run length *)
  burst_max : int;
  layers : layer list;
      (** every span layer seen, ["other"] and ["sim-core"], by host
          time descending *)
  samples : sample list;  (** chronological *)
}

val arm : ?interval:int -> Trace.t -> t
(** Install the probe on the tracer's world, subscribe to its span
    events and stamp the baseline (clock + Gc). Call it between
    dispatches or from inside a process; in the latter case the rest of
    that process's dispatch is charged to it. [interval] (default 1024)
    is the sampling period in dispatches. *)

val disarm : t -> report
(** Remove the probe and the subscription, charge the open segment and
    return the accumulated report. *)

val profile : ?interval:int -> Trace.t -> (unit -> 'a) -> 'a * report
(** [profile tracer f] = arm, run [f] (typically a [Sim.run] /
    [Cluster.run] driver), disarm. The hooks are removed even if [f]
    raises. *)

val report_table : report -> string
(** Summary plus the per-layer table. *)

val collapsed : report -> string
(** Collapsed-stack ("folded") text, one [rhodos;<layer> weight_ns]
    line per layer with host time — feedable to standard flamegraph
    tooling. *)

val counter_series : report -> (string * (float * float) list) list
(** The periodic samples as named (sim-ms, value) series — queue_len,
    events_per_sec, minor_words, major_words — shaped for
    [Export.chrome_json ~counters]. *)
