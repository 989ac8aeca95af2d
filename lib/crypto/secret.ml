(* Epoch keys are derived from the master by hashing, which costs two
   SipHash calls and three allocations.  Validation asks for the epoch key
   on every packet, so [t] memoizes the two epochs that can ever be live at
   once (current and previous) in two mutable slots; rotation shifts
   current into previous.  Epochs are non-negative, so -1 marks an empty
   slot. *)
type t = {
  master : string;
  mutable e_cur : int;
  mutable k_cur : string;
  mutable e_prev : int;
  mutable k_prev : string;
}

let rollover_period = 256.
let rotation_period = 128.

let create ~master = { master; e_cur = -1; k_cur = ""; e_prev = -1; k_prev = "" }

let epoch ~now = int_of_float (floor (now /. rotation_period))

let timestamp ~now = int_of_float (floor now) land 0xff

let derive t e =
  (* Epoch secrets are a keyed hash of the epoch under the master key:
     deterministic, and old secrets are recoverable only via the master. *)
  Siphash.mac_string ~key:"TVA secret deriv" (t.master ^ string_of_int e)
  ^ Siphash.mac_string ~key:"ation epoch key." (t.master ^ string_of_int e)

let secret_of_epoch t e =
  if e = t.e_cur then t.k_cur
  else if e = t.e_prev then t.k_prev
  else begin
    let k = derive t e in
    t.e_prev <- t.e_cur;
    t.k_prev <- t.k_cur;
    t.e_cur <- e;
    t.k_cur <- k;
    k
  end

let issuing_secret t ~now = secret_of_epoch t (epoch ~now)

(* Epoch parity equals the high bit of the timestamps minted during it:
   epochs cover [0,128), [128,256), [256,384), ... so timestamps 0..127
   (high bit 0) come from even epochs and 128..255 from odd ones. *)
let epoch_parity e = e land 1

let retired = ""

(* Parity alternates every epoch, so when the current epoch does not match
   the previous one does; only in epoch 0 is there no previous epoch.  The
   result is a key or the shared [retired] sentinel, never an option: this
   runs on every capability check. *)
let validating_secret t ~now ~ts =
  let e_now = epoch ~now in
  let e = if epoch_parity e_now = (ts lsr 7) land 1 then e_now else e_now - 1 in
  if e < 0 then retired else secret_of_epoch t e
