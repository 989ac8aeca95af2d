(* Per-call cost of the three MACs on the simulator's capability paths,
   called through the public Crypto functions on header-sized inputs:
   SIFF marking and TVA path-id tags use the string-key SipHash, TVA
   validation the prepared-key pre-capability MAC, and NetFence feedback
   the 56-bit MAC over its short token preimage. *)

let key = "perfbench-key-16"
let calls = 200_000
let reps = 5

(* Median over [reps] timings of ns per call; [f i] must depend on [i] so
   the call cannot be hoisted out of the loop. *)
let ns_per_call f =
  Output.median
    (List.init reps (fun _ ->
         let acc = ref 0L in
         let t0 = Unix.gettimeofday () in
         for i = 1 to calls do
           acc := Int64.logxor !acc (f i)
         done;
         let dt = Unix.gettimeofday () -. t0 in
         ignore (Sys.opaque_identity !acc);
         dt *. 1e9 /. float_of_int calls))

let header = Bytes.of_string "E\000\000(\000\000@\000@\006\000\000\n\000\000\001\011\000\000\002"

let siphash_mac i =
  Bytes.set_int32_le header 12 (Int32.of_int i);
  Crypto.Siphash.mac ~key (Bytes.unsafe_to_string header)

let fast_precap_p =
  let prep = Crypto.Keyed_hash.Fast.prepare key in
  fun i -> Crypto.Keyed_hash.Fast.mac56_precap_p ~prep ~src:(0x0a000000 + i) ~dst:0x0b000002 ~ts:(i land 0xff)

let nf_preimage = Bytes.of_string "nf|167772161|3|042|1"

let fast_mac56 i =
  Bytes.set nf_preimage 17 (Char.chr (48 + (i mod 10)));
  Crypto.Keyed_hash.Fast.mac56 ~key (Bytes.unsafe_to_string nf_preimage)

let metrics () =
  [
    ("crypto.siphash_mac_ns", ns_per_call siphash_mac, "ns");
    ("crypto.fast_precap_p_ns", ns_per_call fast_precap_p, "ns");
    ("crypto.fast_mac56_ns", ns_per_call fast_mac56, "ns");
  ]
