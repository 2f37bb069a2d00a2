(* Event queue: a binary min-heap plus a same-priority ready ring.

   - The heap is 0-indexed over parallel unboxed arrays — a [float
     array] of priorities, an [int array] of tie-break sequence
     numbers, and a value array — so an [add] allocates nothing (only
     capacity growth does) and sift compares read unboxed floats
     straight out of the array.

   - The ring is a FIFO circular buffer of values that all share one
     priority, [ring_prio]. It absorbs adds at the priority of the last
     pop — in [Sim], "now": wakeups, spawns and yields — which then cost
     O(1) instead of a sift through the heap's full depth.

   Routing: an add goes to the ring when the ring is nonempty and the
   priority equals [ring_prio], or when the ring is empty and the
   priority equals the last popped one; everything else goes to the
   heap. A ring entry is always the newest entry in the queue when it
   arrives, and no heap add can tie with [ring_prio] while the ring is
   nonempty, so one invariant holds throughout:

     every heap entry tied with [ring_prio] is older than every ring
     entry.

   The total order (prio, then seq under the tie policy) follows from
   it without storing ring seqs: on a tie [Fifo] pops the heap first,
   then the ring front; [Lifo] pops the ring back first, then the heap;
   and the ready set is the tied heap entries by seq, then the ring in
   order. *)

type tie = Fifo | Lifo

(* The two float cursors live in an all-float record, which OCaml
   stores flat: as [mutable float] fields of [t] (a mixed record) each
   store would box. *)
type cursors = { mutable ring_prio : float; mutable last_popped : float }

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable ring : 'a array; (* capacity is 0 or a power of two *)
  mutable head : int;
  mutable rlen : int;
  cur : cursors;
  fifo : bool;
  mutable next_seq : int;
}

let create ?(tie = Fifo) () =
  { prios = [||]; seqs = [||]; vals = [||]; size = 0; ring = [||]; head = 0;
    rlen = 0; cur = { ring_prio = 0.; last_popped = neg_infinity };
    fifo = tie = Fifo; next_seq = 0 }

let length q = q.size + q.rlen

let is_empty q = q.size = 0 && q.rlen = 0

(* Ordering: [(p1, s1)] sorts before [(p2, s2)] iff [p1 < p2], or
   [p1 = p2] and [s1] precedes [s2] under the tie policy (insertion
   order for [Fifo], reverse for [Lifo] — the perturbed tie-breaking
   used by the determinism sanitizer). The comparison is written out
   inline at each use site rather than shared through a helper:
   without flambda, float arguments to a non-inlined call are boxed at
   every sift level, which is exactly the allocation this flat layout
   exists to avoid. *)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let grow q v =
  let old = Array.length q.prios in
  let cap = if old = 0 then 8 else 2 * old in
  let prios = Array.make cap 0. and seqs = Array.make cap 0 in
  let vals = Array.make cap v in
  Array.blit q.prios 0 prios 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.prios <- prios;
  q.seqs <- seqs;
  q.vals <- vals

(* Hole-based sifts: carry the displaced entry in registers and shift
   the other entries through the hole, instead of swapping three
   arrays at every level. Each sift takes the array index [src] of the
   entry it places, not the entry itself: a [float] argument would be
   boxed at every call. *)

(* Move the entry at [src] into hole [i0] and sift it up. *)
let sift_up_from q i0 src =
  let prios = q.prios and seqs = q.seqs and vals = q.vals in
  let prio = prios.(src) and seq = seqs.(src) and v = vals.(src) in
  let fifo = q.fifo in
  let i = ref i0 in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = prios.(parent) in
    if
      prio < pp
      || (prio = pp
         &&
         let ps = seqs.(parent) in
         if fifo then seq < ps else seq > ps)
    then begin
      prios.(!i) <- pp;
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else stop := true
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  vals.(!i) <- v

let heap_add q prio seq v =
  if q.size >= Array.length q.prios then grow q v;
  let i = q.size in
  q.size <- i + 1;
  q.prios.(i) <- prio;
  q.seqs.(i) <- seq;
  q.vals.(i) <- v;
  sift_up_from q i i

(* Move the entry at [src] into hole [i0] and sift it down. [q.size]
   has already been decremented. *)
let sift_down_from q i0 src =
  let prios = q.prios and seqs = q.seqs and vals = q.vals in
  let prio = prios.(src) and seq = seqs.(src) and v = vals.(src) in
  let fifo = q.fifo in
  let n = q.size in
  let i = ref i0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= n then stop := true
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          &&
          let pr = prios.(r) and pl = prios.(l) in
          pr < pl
          || (pr = pl && if fifo then seqs.(r) < seqs.(l) else seqs.(r) > seqs.(l))
        then r
        else l
      in
      let pc = prios.(c) in
      if
        pc < prio
        || (pc = prio
           &&
           let sc = seqs.(c) in
           if fifo then sc < seq else sc > seq)
      then begin
        prios.(!i) <- pc;
        seqs.(!i) <- seqs.(c);
        vals.(!i) <- vals.(c);
        i := c
      end
      else stop := true
    end
  done;
  prios.(!i) <- prio;
  seqs.(!i) <- seq;
  vals.(!i) <- v

let heap_pop q =
  let v = q.vals.(0) in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then sift_down_from q 0 n;
  v

(* Remove the entry at heap index [i]: move the last entry into the
   hole and restore the heap property in both directions (it may be
   larger than [i]'s children or smaller than [i]'s parent). If the
   sift-down moved it below [i], the entry now at [i] is a promoted
   descendant, already ordered after [i]'s ancestors, so the sift-up
   stops at once. *)
let heap_remove_index q i =
  let v = q.vals.(i) in
  let n = q.size - 1 in
  q.size <- n;
  if i < n then begin
    sift_down_from q i n;
    sift_up_from q i i
  end;
  v

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)

let ring_push q prio v =
  let cap = Array.length q.ring in
  if q.rlen = cap then begin
    let ring = Array.make (if cap = 0 then 8 else 2 * cap) v in
    for k = 0 to q.rlen - 1 do
      ring.(k) <- q.ring.((q.head + k) land (cap - 1))
    done;
    q.ring <- ring;
    q.head <- 0
  end;
  if q.rlen = 0 then q.cur.ring_prio <- prio;
  q.ring.((q.head + q.rlen) land (Array.length q.ring - 1)) <- v;
  q.rlen <- q.rlen + 1

let ring_take_front q =
  let v = q.ring.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.ring - 1);
  q.rlen <- q.rlen - 1;
  v

let ring_take_back q =
  let n = q.rlen - 1 in
  q.rlen <- n;
  q.ring.((q.head + n) land (Array.length q.ring - 1))

(* Remove the [k]-th ring entry from the front, closing the gap. *)
let ring_remove q k =
  let mask = Array.length q.ring - 1 in
  let slot j = (q.head + j) land mask in
  let v = q.ring.(slot k) in
  for j = k to q.rlen - 2 do
    q.ring.(slot j) <- q.ring.(slot (j + 1))
  done;
  q.rlen <- q.rlen - 1;
  v

(* ------------------------------------------------------------------ *)
(* Interface                                                           *)

let add q ~prio v =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  if q.rlen > 0 then
    if prio = q.cur.ring_prio then ring_push q prio v else heap_add q prio seq v
  else if prio = q.cur.last_popped then ring_push q prio v
  else heap_add q prio seq v

(* Hot-loop accessors: undefined on an empty queue (the caller checks
   [is_empty]); no option or tuple, unlike [pop]. *)
let[@inline] unsafe_min_prio q =
  if q.rlen = 0 then q.prios.(0)
  else
    let rp = q.cur.ring_prio in
    if q.size > 0 && q.prios.(0) < rp then q.prios.(0) else rp

let pop_into q =
  if q.rlen = 0 then begin
    if q.size = 0 then invalid_arg "Prio_queue.pop_into: empty queue";
    q.cur.last_popped <- q.prios.(0);
    heap_pop q
  end
  else begin
    let rp = q.cur.ring_prio in
    if q.size > 0 && (q.prios.(0) < rp || (q.prios.(0) = rp && q.fifo)) then begin
      q.cur.last_popped <- q.prios.(0);
      heap_pop q
    end
    else begin
      q.cur.last_popped <- rp;
      if q.fifo then ring_take_front q else ring_take_back q
    end
  end

let pop q =
  if is_empty q then None
  else begin
    let prio = unsafe_min_prio q in
    Some (prio, pop_into q)
  end

let drain q =
  let rec loop acc =
    match pop q with None -> List.rev acc | Some x -> loop (x :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Ready-set access (controlled scheduling)                            *)
(* ------------------------------------------------------------------ *)

(* Number of ring entries in the ready set: the whole ring when its
   priority is the minimum, else none. *)
let ring_ready q m = if q.rlen > 0 && q.cur.ring_prio = m then q.rlen else 0

(* Allocation-free. Fast path: the heap root's priority is minimal and
   every ancestor of a min-priority node is min-priority, so if neither
   root child ties with the root, the root is the heap's only ready
   entry. *)
let ready_count q =
  if is_empty q then 0
  else begin
    let m = unsafe_min_prio q in
    let prios = q.prios in
    let n = q.size in
    let heap_ready =
      if n = 0 || prios.(0) <> m then 0
      else if (1 >= n || prios.(1) <> m) && (2 >= n || prios.(2) <> m) then 1
      else begin
        let count = ref 0 in
        for i = 0 to n - 1 do
          if prios.(i) = m then incr count
        done;
        !count
      end
    in
    heap_ready + ring_ready q m
  end

(* Indices (into the heap arrays) of every heap entry at priority [m],
   sorted by insertion order. O(size) scan: only the analysis explorer
   uses these, never the default event loop. *)
let heap_ready_indices q m =
  let idxs = ref [] in
  for i = q.size - 1 downto 0 do
    if q.prios.(i) = m then idxs := i :: !idxs
  done;
  let arr = Array.of_list !idxs in
  Array.sort (fun a b -> compare q.seqs.(a) q.seqs.(b)) arr;
  arr

let ready q =
  if is_empty q then []
  else begin
    let m = unsafe_min_prio q in
    let heap =
      Array.to_list (Array.map (fun i -> (m, q.vals.(i))) (heap_ready_indices q m))
    in
    let mask = Array.length q.ring - 1 in
    heap
    @ List.init (ring_ready q m) (fun k -> (m, q.ring.((q.head + k) land mask)))
  end

let pop_nth q n =
  if is_empty q || n < 0 then None
  else begin
    let m = unsafe_min_prio q in
    let idxs = heap_ready_indices q m in
    let nh = Array.length idxs in
    if n < nh then begin
      q.cur.last_popped <- m;
      Some (m, heap_remove_index q idxs.(n))
    end
    else if n - nh < ring_ready q m then begin
      q.cur.last_popped <- m;
      Some (m, ring_remove q (n - nh))
    end
    else None
  end
