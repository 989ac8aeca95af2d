(* Two interchangeable event queues behind one scheduler API, over one
   event slab.

   Events live in a struct-of-arrays slab indexed by an int slot: the
   action closure, the profiler kind tag and a generation counter per
   slot, plus — for the wheel only — the (time, seq) key the wheel
   re-files by and the link of the wheel-slot list the event sits in.
   Free slots are threaded through the [kinds] array (a free slot has no
   kind), so the slab needs no separate free stack.  Both queues hold
   immediate slot indices, so no sift and no cascade stores a pointer (no
   write barrier), and scheduling allocates no event record, no option
   and no boxed time.

   The reference queue is a 4-ary min-heap keyed by (time, seq).  The
   sequence number breaks ties in scheduling order so that behaviour
   never depends on heap internals.  The keys live in parallel unboxed
   [times]/[seqs] arrays next to the slot array: comparing cached keys
   avoids chasing the slab on every comparison, and sift-up/down move the
   hole rather than swapping.  Cancellation swaps the slot's action for
   [nop] and lets the queue pop it lazily, which keeps cancel O(1) —
   important for TCP timers, nearly all of which are cancelled rather
   than fired.

   The second queue is a hierarchical timing wheel for runs whose pending
   set explodes (10^5-10^6 concurrent timers): 4 levels of 256 slots at
   1 us resolution, so insert is O(1) and pop is amortized O(1) instead of
   O(log n).  Events whose integer tick has been reached are promoted into
   a small (time, seq) heap that resolves sub-tick time differences and
   same-time ties, which makes the wheel's firing order *identical* to the
   reference heap's — the differential property tests in the suite hold
   the two together, and fig8 stays byte-identical under either queue.

   A handle is the slot index with the slot's generation above it.  The
   generation moves on every time the slot is freed (fired, or popped
   after a cancel), so a handle outliving its event — cancelled after it
   fired, or after the slot was reused — no longer matches and cancelling
   it is a no-op. *)

(* Scheduling-site tags for the event-loop profiler.  A kind is carried by
   every event (one immediate int in the slab) and only ever read when a
   probe is attached, so tagging costs nothing in normal runs.  The flat
   enumeration lives here because the scheduler is the one module every
   scheduling site already depends on. *)
module Kind = struct
  let other = 0
  let net_transmit = 1
  let net_deliver = 2
  let net_poll = 3
  let tcp_timer = 4
  let agent = 5
  let obs = 6
  let fault = 7
  let telemetry = 8
  let count = 9

  let name = function
    | 0 -> "other"
    | 1 -> "net.transmit"
    | 2 -> "net.deliver"
    | 3 -> "net.poll"
    | 4 -> "tcp.timer"
    | 5 -> "agent"
    | 6 -> "obs"
    | 7 -> "fault"
    | 8 -> "telemetry"
    | _ -> "?"
end

(* [(generation lsl gen_shift) lor slot]; generations wrap at 2^30. *)
type handle = int

let gen_shift = 32
let slot_mask = (1 lsl gen_shift) - 1
let gen_mask = (1 lsl 30) - 1

(* The profiler hook: [pr_clock] supplies wall time (injected so this
   module stays free of [Unix]), [pr_hit] is called after each fired
   action with its kind and wall-clock duration. *)
type probe = { pr_clock : unit -> float; pr_hit : kind:int -> dt:float -> unit }

type sched = Heap | Wheel

let initial_capacity = 256

(* The action of a free or cancelled slot, compared by physical identity. *)
let nop () = ()

(* The end of a slot list: the free list, or a wheel slot's. *)
let nil_slot = -1

(* --- The 4-ary (time, seq) heap of slots ---------------------------------- *)

type heap = {
  mutable slots : int array;
  mutable times : float array; (* the key of slots.(i), unboxed *)
  mutable seqs : int array;
  mutable size : int;
}

let heap_create capacity =
  {
    slots = Array.make capacity 0;
    times = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    size = 0;
  }

let heap_grow h =
  let cap = 2 * Array.length h.slots in
  let slots = Array.make cap 0 in
  let times = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  Array.blit h.slots 0 slots 0 h.size;
  Array.blit h.times 0 times 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  h.slots <- slots;
  h.times <- times;
  h.seqs <- seqs

(* Lexicographic (time, seq) against the cached keys at heap position [j]. *)
let[@inline] key_earlier h ~time ~seq j =
  time < h.times.(j) || (time = h.times.(j) && seq < h.seqs.(j))

let[@inline] set_pos h i s ~time ~seq =
  h.slots.(i) <- s;
  h.times.(i) <- time;
  h.seqs.(i) <- seq

(* Sift the entry at position [i0] up, moving the hole towards the root.
   Reads its key from the arrays, so no float crosses a call. *)
let sift_up h i0 =
  let s = h.slots.(i0) and time = h.times.(i0) and seq = h.seqs.(i0) in
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if key_earlier h ~time ~seq parent then begin
      set_pos h !i h.slots.(parent) ~time:h.times.(parent) ~seq:h.seqs.(parent);
      i := parent
    end
    else continue := false
  done;
  set_pos h !i s ~time ~seq

let[@inline] heap_push h s ~time ~seq =
  if h.size = Array.length h.slots then heap_grow h;
  let i = h.size in
  h.size <- i + 1;
  set_pos h i s ~time ~seq;
  sift_up h i

(* Remove the root. *)
let heap_pop h =
  assert (h.size > 0);
  h.size <- h.size - 1;
  let n = h.size in
  if n > 0 then begin
    let s = h.slots.(n) and time = h.times.(n) and seq = h.seqs.(n) in
    (* Sift the hole down from the root, pulling the earliest of up to
       four children up one level each step; the last entry drops into the
       final hole. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= n then continue := false
      else begin
        let stop = min (first + 4) n in
        let best = ref first in
        for c = first + 1 to stop - 1 do
          if key_earlier h ~time:h.times.(c) ~seq:h.seqs.(c) !best then best := c
        done;
        (* The last entry belongs above the earliest child: hole found. *)
        if key_earlier h ~time ~seq !best then continue := false
        else begin
          set_pos h !i h.slots.(!best) ~time:h.times.(!best) ~seq:h.seqs.(!best);
          i := !best
        end
      end
    done;
    set_pos h !i s ~time ~seq
  end

(* --- The hierarchical timing wheel: types --------------------------------- *)

(* Integer ticks at 1 us resolution.  [int_of_float] truncates towards zero
   and times are nonnegative, so the mapping is a monotone floor: distinct
   ticks order exactly like the times they quantize, and events that share
   a tick are ordered by the promotion heap on their exact (time, seq).
   Times past the representable horizon (including infinity) clamp to
   [max_int] and live in the overflow list until the wheel catches up. *)
let tick_rate = 1e6
let tick_horizon = 4.0e12 (* seconds; * 1e6 stays well below max_int *)
let[@inline] tick_of_time time = if time >= tick_horizon then max_int else int_of_float (time *. tick_rate)

let slot_bits = 8
let slots_per_level = 256 (* 1 lsl slot_bits *)
let wheel_levels = 4 (* covers 2^32 us ~ 71.6 min beyond [cur_tick]; rest overflows *)

(* Each wheel slot, and the overflow, is a singly linked list of event
   slots threaded through the slab's [snext] array: filing is a push at
   the head, a cascade walks the list once, and the wheel owns no storage
   that grows with the pending set beyond one int per event.  Order
   within a list is irrelevant — the promotion heap sorts what it
   receives. *)
type wheel = {
  mutable cur_tick : int;
      (* Every event with tick <= cur_tick has been promoted into [cur];
         every slot "before" cur_tick at every level is empty. *)
  cur : heap; (* promotion heap: exact (time, seq) order within reached ticks *)
  heads : int array; (* list head of level l, slot j at [l * slots_per_level + j] *)
  level_count : int array; (* events held per level, to skip empty levels *)
  mutable overflow : int; (* list of ticks beyond all levels' span; reseeded when reached *)
  mutable total : int; (* physical events anywhere in the structure *)
}

(* --- The simulator -------------------------------------------------------- *)

type queue = Q_heap of heap | Q_wheel of wheel

type t = {
  queue : queue;
  (* The event slab, indexed by slot. *)
  mutable acts : (unit -> unit) array; (* [nop] when free or cancelled *)
  mutable gens : int array;
  mutable kinds : int array; (* the [Kind] tag; the next free slot when free *)
  mutable stimes : float array; (* wheel only: the event's time *)
  mutable sseqs : int array; (* wheel only: the event's seq *)
  mutable snext : int array; (* wheel only: the next event in its wheel slot's list *)
  mutable free_head : int; (* the first free slot, [nil_slot] when the slab is full *)
  mutable clock : float;
  mutable next_seq : int;
  mutable aux_seq : int; (* negative, descending: auxiliary (telemetry) events *)
  mutable live : int; (* scheduled and not cancelled *)
  mutable stopping : bool;
  mutable fired : int; (* actions executed since creation *)
  mutable probe : probe option;
  root_rng : Rng.t;
}

(* --- The slab -------------------------------------------------------------- *)

(* Double the slab (a new simulator's is empty) and thread the new slots
   onto the empty free list, lowest index first. *)
let slab_grow t =
  let cap = Array.length t.acts in
  let ncap = max initial_capacity (2 * cap) in
  let grow a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.acts <- grow t.acts nop;
  t.gens <- grow t.gens 0;
  t.kinds <- grow t.kinds 0;
  (match t.queue with
  | Q_heap _ -> ()
  | Q_wheel _ ->
      t.stimes <- grow t.stimes 0.;
      t.sseqs <- grow t.sseqs 0;
      t.snext <- grow t.snext nil_slot);
  for s = ncap - 1 downto cap do
    t.kinds.(s) <- t.free_head;
    t.free_head <- s
  done

let[@inline] slab_alloc t kind action =
  if t.free_head = nil_slot then slab_grow t;
  let s = t.free_head in
  t.free_head <- t.kinds.(s);
  t.kinds.(s) <- kind;
  t.acts.(s) <- action;
  s

(* Return a slot popped off a queue to the free list.  Bumping the
   generation is what turns every outstanding handle to it stale. *)
let[@inline] slab_free t s =
  t.acts.(s) <- nop;
  t.gens.(s) <- (t.gens.(s) + 1) land gen_mask;
  t.kinds.(s) <- t.free_head;
  t.free_head <- s

(* --- The hierarchical timing wheel: operations ----------------------------- *)

let wheel_create () =
  {
    cur_tick = 0;
    cur = heap_create initial_capacity;
    heads = Array.make (wheel_levels * slots_per_level) nil_slot;
    level_count = Array.make wheel_levels 0;
    overflow = nil_slot;
    total = 0;
  }

(* File an event by its tick, relative to [cur_tick].  Level l holds events
   whose tick agrees with cur_tick on all bits above 8*(l+1) — so a slot
   only ever contains ticks from the window the wheel is currently
   sweeping, and cascading a level-l slot re-files its events strictly
   below l (or straight into [cur]).  Does not touch [total]. *)
let place t w s =
  let time = t.stimes.(s) in
  let tick = tick_of_time time in
  if tick <= w.cur_tick then heap_push w.cur s ~time ~seq:t.sseqs.(s)
  else begin
    let diff = tick lxor w.cur_tick in
    if diff lsr (slot_bits * wheel_levels) <> 0 then begin
      t.snext.(s) <- w.overflow;
      w.overflow <- s
    end
    else begin
      let l =
        if diff lsr slot_bits = 0 then 0
        else if diff lsr (2 * slot_bits) = 0 then 1
        else if diff lsr (3 * slot_bits) = 0 then 2
        else 3
      in
      let i = (l * slots_per_level) + ((tick lsr (slot_bits * l)) land (slots_per_level - 1)) in
      t.snext.(s) <- w.heads.(i);
      w.heads.(i) <- s;
      w.level_count.(l) <- w.level_count.(l) + 1
    end
  end

(* Re-file every event of a list detached from the wheel and return how
   many there were; a cancelled one is freed here instead of being carried
   further down.  [place] overwrites [snext], so each link is read before
   its event moves. *)
let refile_list t w head =
  let n = ref 0 and s = ref head in
  while !s <> nil_slot do
    let e = !s in
    s := t.snext.(e);
    incr n;
    if t.acts.(e) == nop then begin
      w.total <- w.total - 1;
      slab_free t e
    end
    else place t w e
  done;
  !n

(* Move [cur_tick] forward to the next occupied slot and empty it into the
   structure below it (a level-0 slot holds exactly one tick, so its
   events all land in [cur]), repeating until the promotion heap is
   nonempty or the wheel has run dry (cascades drop cancelled events, so a
   cascade can empty it). *)
let rec advance t w =
  let found = ref false in
  let l = ref 0 in
  while (not !found) && !l < wheel_levels do
    if w.level_count.(!l) > 0 then begin
      let base = !l * slots_per_level in
      let shift = slot_bits * !l in
      (* Slots at or before cur_tick's index are already empty (the
         invariant above), so scan strictly beyond it. *)
      let j = ref (((w.cur_tick lsr shift) land (slots_per_level - 1)) + 1) in
      while (not !found) && !j < slots_per_level do
        let head = w.heads.(base + !j) in
        if head <> nil_slot then begin
          let above = shift + slot_bits in
          w.cur_tick <- ((w.cur_tick lsr above) lsl above) lor (!j lsl shift);
          w.heads.(base + !j) <- nil_slot;
          (* Re-filing lands strictly below level l, so the count can be
             taken off afterwards. *)
          w.level_count.(!l) <- w.level_count.(!l) - refile_list t w head;
          found := true
        end
        else incr j
      done
    end;
    if not !found then incr l
  done;
  if (not !found) && w.overflow <> nil_slot then begin
    (* Jump the wheel to the overflow's earliest tick and re-file; the
       minimum lands in [cur] immediately, stragglers past the new span
       simply overflow again. *)
    let head = w.overflow in
    w.overflow <- nil_slot;
    let min_tick = ref max_int and s = ref head in
    while !s <> nil_slot do
      let tick = tick_of_time t.stimes.(!s) in
      if tick < !min_tick then min_tick := tick;
      s := t.snext.(!s)
    done;
    w.cur_tick <- !min_tick;
    ignore (refile_list t w head);
    found := true
  end;
  if !found && w.cur.size = 0 && w.total > 0 then advance t w

(* --- The simulator --------------------------------------------------------- *)

let create ?(seed = 1) ?(sched = Heap) () =
  {
    queue =
      (match sched with
      | Heap -> Q_heap (heap_create initial_capacity)
      | Wheel -> Q_wheel (wheel_create ()));
    acts = [||];
    gens = [||];
    kinds = [||];
    stimes = [||];
    sseqs = [||];
    snext = [||];
    free_head = nil_slot;
    clock = 0.;
    next_seq = 0;
    aux_seq = -1;
    live = 0;
    stopping = false;
    fired = 0;
    probe = None;
    root_rng = Rng.create ~seed;
  }

let sched t = match t.queue with Q_heap _ -> Heap | Q_wheel _ -> Wheel

let sched_of_string = function
  | "heap" -> Ok Heap
  | "wheel" -> Ok Wheel
  | s -> Error (Printf.sprintf "unknown scheduler %S (expected \"heap\" or \"wheel\")" s)

let sched_to_string = function Heap -> "heap" | Wheel -> "wheel"

(* The crossover is insensitive within an order of magnitude: below it the
   heap's cache-resident sift beats the wheel's bookkeeping, above it the
   O(log n) comparisons dominate.  Measured in BENCH_scale.json. *)
let recommended_sched ~expected_pending = if expected_pending >= 8192 then Wheel else Heap

let now t = t.clock
let rng t = t.root_rng
let pending t = t.live
let events_processed t = t.fired
let set_probe t probe = t.probe <- probe

(* Take a slot, file it under (time, seq) and return its handle.  Inlined
   into each scheduling entry point so [time] is never boxed. *)
let[@inline] insert t ~time ~seq ~kind action =
  let s = slab_alloc t kind action in
  (match t.queue with
  | Q_heap h -> heap_push h s ~time ~seq
  | Q_wheel w ->
      t.stimes.(s) <- time;
      t.sseqs.(s) <- seq;
      w.total <- w.total + 1;
      place t w s);
  t.live <- t.live + 1;
  (t.gens.(s) lsl gen_shift) lor s

let schedule_at ?(kind = Kind.other) t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now %g" time t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  insert t ~time ~seq ~kind action

let schedule ?(kind = Kind.other) t ~delay action =
  if delay < 0. then invalid_arg "Sim.schedule: negative delay";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  insert t ~time:(t.clock +. delay) ~seq ~kind action

(* Auxiliary events draw from a separate, negative, descending sequence
   counter, so scheduling one never consumes a [next_seq] value — a run
   with read-only auxiliary ticks attached stays bit-identical to the same
   run without them.  At equal time the negative seq sorts before every
   normal event, so a telemetry tick at T observes state with all events
   < T fired and none at T: the same cut a barrier pulse sees in a
   partitioned run ({!Par.drive}), which is what makes K=1 and K>1
   interval series identical. *)
let schedule_aux ?(kind = Kind.telemetry) t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_aux: time %g is before now %g" time t.clock);
  let seq = t.aux_seq in
  t.aux_seq <- seq - 1;
  insert t ~time ~seq ~kind action

(* The slot's action while [h] still names a live event, else [nop]. *)
let[@inline] live_action t h =
  let s = h land slot_mask in
  if s < Array.length t.gens && t.gens.(s) = h lsr gen_shift then t.acts.(s) else nop

let cancel t h =
  if live_action t h != nop then begin
    (* The slot stays queued until popped; only then is it freed. *)
    t.acts.(h land slot_mask) <- nop;
    t.live <- t.live - 1
  end

let cancelled t h = live_action t h == nop

let stop t = t.stopping <- true

(* The slot of the earliest uncancelled event, now at the top of its heap,
   or [nil_slot] on an empty queue.  Cancelled events met on the way are
   popped and freed.  For the wheel this may advance [cur_tick] — safe,
   because late arrivals at or before a reached tick go straight to the
   promotion heap. *)
let peek t =
  let s = ref nil_slot in
  (match t.queue with
  | Q_heap h ->
      while !s = nil_slot && h.size > 0 do
        let top = h.slots.(0) in
        if t.acts.(top) == nop then begin
          heap_pop h;
          slab_free t top
        end
        else s := top
      done
  | Q_wheel w ->
      while !s = nil_slot && w.total > 0 do
        if w.cur.size = 0 then advance t w;
        if w.cur.size = 0 then assert (w.total = 0)
        else begin
          let top = w.cur.slots.(0) in
          if t.acts.(top) == nop then begin
            w.total <- w.total - 1;
            heap_pop w.cur;
            slab_free t top
          end
          else s := top
        end
      done);
  !s

(* The time of the event [peek] just returned. *)
let[@inline] top_time t =
  match t.queue with Q_heap h -> h.times.(0) | Q_wheel w -> w.cur.times.(0)

(* Pop the slot [peek] returned, advance the clock to its time, free the
   slot (its handles go stale before the action runs) and run it. *)
let[@inline] fire t s =
  (match t.queue with
  | Q_heap h ->
      t.clock <- h.times.(0);
      heap_pop h
  | Q_wheel w ->
      t.clock <- w.cur.times.(0);
      w.total <- w.total - 1;
      heap_pop w.cur);
  let action = t.acts.(s) and kind = t.kinds.(s) in
  slab_free t s;
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  match t.probe with
  | None -> action ()
  | Some pr ->
      let t0 = pr.pr_clock () in
      action ();
      pr.pr_hit ~kind ~dt:(pr.pr_clock () -. t0)

let step t =
  let s = peek t in
  if s = nil_slot then false
  else begin
    fire t s;
    true
  end

(* Fire events up to [upto] — strictly before it, or at it too when
   [inclusive] — leaving the clock at [upto] when later events remain. *)
let run_upto t ~inclusive ~upto =
  t.stopping <- false;
  let continue = ref true in
  while !continue && not t.stopping do
    let s = peek t in
    if s = nil_slot then continue := false
    else begin
      let time = top_time t in
      if (if inclusive then time > upto else time >= upto) then begin
        t.clock <- upto;
        continue := false
      end
      else fire t s
    end
  done

let run ?until t =
  run_upto t ~inclusive:true ~upto:(match until with Some h -> h | None -> infinity)

let next_time t = if peek t = nil_slot then infinity else top_time t

(* One conservative-PDES window: fire events strictly before [upto]
   (or at [upto] too when [inclusive]), then leave the clock at [upto]
   when later events remain — exactly [run ~until]'s stopping rule, with
   the exclusive bound that windowed execution needs (an event AT the
   window edge may race a cross-partition arrival AT the same instant, so
   it belongs to the next window, after the mailbox exchange). *)
let run_window ?(inclusive = false) t ~upto = run_upto t ~inclusive ~upto
