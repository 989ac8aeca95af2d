let default_rotation_period = 128.

(* The marking preimage is [secret_master ^ "<router_id>|<epoch>|"]
   followed by the packet's src and dst, 4 bytes big-endian each.  Only the
   addresses change per packet, so the router keeps the prefix built in a
   buffer with eight spare bytes for each of the two epochs [verify]
   accepts, and a packet overwrites just those eight bytes.  The buffers
   are router state: a router is only ever run by the domain that runs its
   node. *)
type slot = { epoch : int; buf : Bytes.t }

type t = {
  rotation : float;
  secret_master : string;
  router_id : int;
  sim : Sim.t;
  mutable cur : slot;
  mutable prev : slot;
  mutable dropped_dta : int;
}

let no_slot = { epoch = min_int; buf = Bytes.empty }

let create ?(rotation_period = default_rotation_period) ~secret_master ~router_id ~sim () =
  {
    rotation = rotation_period;
    secret_master;
    router_id;
    sim;
    cur = no_slot;
    prev = no_slot;
    dropped_dta = 0;
  }

let rotation_period t = t.rotation
let dropped_dta t = t.dropped_dta

let epoch t ~now = int_of_float (floor (now /. t.rotation))

(* Built on an epoch miss only; the older slot is evicted. *)
let preimage t epoch =
  if t.cur.epoch = epoch then t.cur.buf
  else if t.prev.epoch = epoch then t.prev.buf
  else begin
    let prefix = Printf.sprintf "%s%d|%d|" t.secret_master t.router_id epoch in
    let buf = Bytes.extend (Bytes.of_string prefix) 0 8 in
    t.prev <- t.cur;
    t.cur <- { epoch; buf };
    buf
  end

let bits_for t ~epoch ~src ~dst =
  let buf = preimage t epoch in
  let n = Bytes.length buf in
  Bytes.set_int32_be buf (n - 8) (Int32.of_int (Wire.Addr.to_int src));
  Bytes.set_int32_be buf (n - 4) (Int32.of_int (Wire.Addr.to_int dst));
  Int64.to_int (Crypto.Siphash.mac_bytes ~key:"SIFF marking key" buf)
  land ((1 lsl Wire.Siff_marking.bits_per_router) - 1)

let marking_bits t ~now ~src ~dst = bits_for t ~epoch:(epoch t ~now) ~src ~dst

let verify t ~now ~src ~dst ~bits =
  let e = epoch t ~now in
  bits = bits_for t ~epoch:e ~src ~dst || (e > 0 && bits = bits_for t ~epoch:(e - 1) ~src ~dst)

let handler t node ~in_link:_ (p : Wire.Packet.t) =
  let now = Sim.now t.sim in
  match p.Wire.Packet.siff with
  | None -> Net.forward node p (* legacy *)
  | Some m -> begin
      match m.Wire.Siff_marking.flavor with
      | Wire.Siff_marking.Exp ->
          Wire.Siff_marking.add_marking m ~router:t.router_id
            ~bits:(marking_bits t ~now ~src:p.Wire.Packet.src ~dst:p.Wire.Packet.dst);
          Net.forward node p
      | Wire.Siff_marking.Dta -> begin
          match Wire.Siff_marking.marking_of m ~router:t.router_id with
          | Some bits
            when verify t ~now ~src:p.Wire.Packet.src ~dst:p.Wire.Packet.dst ~bits ->
              Net.forward node p
          | Some _ | None ->
              (* SIFF drops unverifiable data packets outright. *)
              t.dropped_dta <- t.dropped_dta + 1
        end
    end

let classify (p : Wire.Packet.t) =
  match p.Wire.Packet.siff with
  | Some { Wire.Siff_marking.flavor = Wire.Siff_marking.Dta; _ } -> 0 (* high priority *)
  | Some { Wire.Siff_marking.flavor = Wire.Siff_marking.Exp; _ } | None -> 1

let make_qdisc ~bandwidth_bps =
  let packets = Droptail.default_capacity_packets ~bandwidth_bps ~delay:0.06 in
  let bytes = Droptail.default_capacity ~bandwidth_bps ~delay:0.06 in
  let high =
    Droptail.create ~name:"siff-dta" ~capacity_packets:packets ~capacity_bytes:bytes ()
  in
  let low =
    Droptail.create ~name:"siff-low" ~capacity_packets:packets ~capacity_bytes:bytes ()
  in
  Priority.create ~name:"siff-link" ~classify ~classes:[ high; low ] ()
