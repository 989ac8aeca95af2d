(* The reference kernel: a fixed piece of memory-bound work timed in the
   same process as the simulation, so that host contention (which on a
   shared machine slows memory-bound code far more than pure ALU code) can
   be divided out of the simulator's times.

   The buffer is a Bigarray, so it lives outside the OCaml heap and never
   shows in [Gc.top_heap_words]; the loop touches only unboxed ints, so it
   allocates nothing. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let words = 4 * 1024 * 1024 (* 32 MB of 8-byte words *)
let steps = 250_000

let create () : t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  for i = 0 to words - 1 do
    Bigarray.Array1.unsafe_set a i (i * 0x9E3779B1)
  done;
  a

(* Random read-modify-writes: the next index mixes a xorshift stream with
   the word just read, so the loads cannot be hoisted or predicted. *)
let work (a : t) =
  let mask = words - 1 in
  let x = ref 0x2545F4914F6CDD1D in
  let acc = ref 0 in
  for _ = 1 to steps do
    let s = !x in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    x := s;
    let i = (s lxor !acc) land mask in
    let v = Bigarray.Array1.unsafe_get a i in
    Bigarray.Array1.unsafe_set a i (v + s);
    acc := v lsr 3
  done;
  !acc

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds one pass of [work] takes. *)
let time a =
  let t0 = cpu_s () in
  ignore (Sys.opaque_identity (work a));
  cpu_s () -. t0

(* The two properties the normalisation relies on: the kernel allocates
   nothing (so it cannot disturb the simulator's heap or alloc counts) and
   its buffer is not on the OCaml heap (so [peak_heap_mb] excludes it).
   Returns the kernel with the words one pass allocated and the OCaml-heap
   growth, in words, that creating its buffer caused. *)
let create_checked () =
  let h0 = (Gc.quick_stat ()).Gc.heap_words in
  let a = create () in
  let h1 = (Gc.quick_stat ()).Gc.heap_words in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (work a));
  let w1 = Gc.minor_words () in
  (a, w1 -. w0, h1 - h0)
