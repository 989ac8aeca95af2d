type outcome = Completed of { duration : float } | Aborted of { reason : string; at : float }

let max_syn_retransmissions = 8
let max_segment_transmissions = 10
let syn_timeout = 1.0

type client_state = Syn_sent | Established | Finished

type client = {
  sim : Sim.t;
  conn_id : int;
  transfer : int;
  mss : int;
  tx : Wire.Tcp_segment.t -> unit;
  on_complete : outcome -> unit;
  rto : Rto.t;
  nsegs : int;
  tx_count : int array; (* transmissions per data segment *)
  first_sent : float array; (* first transmission time, for RTT sampling *)
  mutable state : client_state;
  mutable started_at : float;
  mutable syn_tries : int;
  mutable snd_una : int; (* first unacked byte *)
  mutable snd_next : int; (* next byte to send *)
  mutable cwnd : float; (* bytes *)
  mutable ssthresh : float;
  mutable dupacks : int;
  mutable timer : Sim.handle option;
}

let seg_of_byte c byte = byte / c.mss
let seg_start c seg = seg * c.mss
let seg_len c seg = min c.mss (c.transfer - seg_start c seg)

let create_client ~sim ~conn_id ~transfer_bytes ?(mss = 1000) ~tx ~on_complete () =
  if transfer_bytes <= 0 then invalid_arg "Conn.create_client: transfer must be positive";
  if mss <= 0 then invalid_arg "Conn.create_client: mss must be positive";
  let nsegs = (transfer_bytes + mss - 1) / mss in
  {
    sim;
    conn_id;
    transfer = transfer_bytes;
    mss;
    tx;
    on_complete;
    rto = Rto.create ();
    nsegs;
    tx_count = Array.make nsegs 0;
    first_sent = Array.make nsegs 0.;
    state = Syn_sent;
    started_at = 0.;
    syn_tries = 0;
    snd_una = 0;
    snd_next = 0;
    (* ns-2's default initial window of two segments. *)
    cwnd = 2. *. float_of_int mss;
    ssthresh = 65536.;
    dupacks = 0;
    timer = None;
  }

let client_conn_id c = c.conn_id
let client_bytes_acked c = c.snd_una
let client_finished c = c.state = Finished

let cancel_timer c =
  match c.timer with
  | None -> ()
  | Some h ->
      Sim.cancel c.sim h;
      c.timer <- None

let finish c outcome =
  if c.state <> Finished then begin
    c.state <- Finished;
    cancel_timer c;
    c.on_complete outcome
  end

let abort c reason = finish c (Aborted { reason; at = Sim.now c.sim })

let send_segment c seg =
  let count = c.tx_count.(seg) in
  if count >= max_segment_transmissions then abort c "segment transmitted too many times"
  else begin
    if count = 0 then c.first_sent.(seg) <- Sim.now c.sim;
    c.tx_count.(seg) <- count + 1;
    c.tx
      {
        Wire.Tcp_segment.conn = c.conn_id;
        flags = Wire.Tcp_segment.Ack;
        seq = seg_start c seg;
        ack = 0;
        payload = seg_len c seg;
      }
  end

let rec arm_timer c =
  cancel_timer c;
  if c.snd_una < c.snd_next && c.state = Established then begin
    let timeout = Rto.current c.rto in
    if timeout > Rto.abort_threshold then abort c "retransmission timeout exceeded 64s"
    else
      c.timer <-
        Some
          (Sim.schedule ~kind:Sim.Kind.tcp_timer c.sim ~delay:timeout (fun () ->
               c.timer <- None;
               on_timeout c))
  end

and on_timeout c =
  (* Go-back-to-one: halve ssthresh relative to flight size, retransmit the
     oldest outstanding segment, and back off the timer. *)
  let flight = float_of_int (c.snd_next - c.snd_una) in
  c.ssthresh <- Float.max (flight /. 2.) (2. *. float_of_int c.mss);
  c.cwnd <- float_of_int c.mss;
  c.dupacks <- 0;
  Rto.backoff c.rto;
  if Rto.current c.rto > Rto.abort_threshold then abort c "retransmission timeout exceeded 64s"
  else begin
    send_segment c (seg_of_byte c c.snd_una);
    arm_timer c
  end

let send_allowed c =
  c.state = Established
  && c.snd_next < c.transfer
  && float_of_int (c.snd_next - c.snd_una) +. float_of_int (seg_len c (seg_of_byte c c.snd_next))
     <= c.cwnd

let pump c =
  let sent = ref false in
  while send_allowed c do
    let seg = seg_of_byte c c.snd_next in
    send_segment c seg;
    if c.state <> Finished then begin
      c.snd_next <- c.snd_next + seg_len c seg;
      sent := true
    end
  done;
  if !sent && c.timer = None then arm_timer c

let send_syn c =
  c.syn_tries <- c.syn_tries + 1;
  c.tx { Wire.Tcp_segment.conn = c.conn_id; flags = Wire.Tcp_segment.Syn; seq = 0; ack = 0; payload = 0 };
  let rec rearm () =
    c.timer <-
      Some
        (Sim.schedule ~kind:Sim.Kind.tcp_timer c.sim ~delay:syn_timeout (fun () ->
             c.timer <- None;
             if c.state = Syn_sent then begin
               if c.syn_tries > max_syn_retransmissions then abort c "connection establishment failed"
               else begin
                 c.syn_tries <- c.syn_tries + 1;
                 c.tx
                   {
                     Wire.Tcp_segment.conn = c.conn_id;
                     flags = Wire.Tcp_segment.Syn;
                     seq = 0;
                     ack = 0;
                     payload = 0;
                   };
                 rearm ()
               end
             end))
  in
  rearm ()

let start c =
  if c.state = Syn_sent && c.syn_tries = 0 then begin
    c.started_at <- Sim.now c.sim;
    send_syn c
  end

let on_new_ack c ack =
  (* RTT sample from the highest newly acked segment, Karn-filtered. *)
  let newly_acked_seg = seg_of_byte c (ack - 1) in
  if c.tx_count.(newly_acked_seg) = 1 then
    Rto.observe c.rto (Sim.now c.sim -. c.first_sent.(newly_acked_seg));
  Rto.reset_backoff c.rto;
  c.snd_una <- ack;
  c.dupacks <- 0;
  (* Congestion window growth: slow start below ssthresh, linear above. *)
  let fmss = float_of_int c.mss in
  if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd +. fmss
  else c.cwnd <- c.cwnd +. (fmss *. fmss /. c.cwnd);
  if c.snd_una >= c.transfer then
    finish c (Completed { duration = Sim.now c.sim -. c.started_at })
  else begin
    arm_timer c;
    pump c
  end

let on_dup_ack c =
  c.dupacks <- c.dupacks + 1;
  if c.dupacks = 3 then begin
    (* Fast retransmit; window halving without Reno's inflation phase. *)
    let flight = float_of_int (c.snd_next - c.snd_una) in
    c.ssthresh <- Float.max (flight /. 2.) (2. *. float_of_int c.mss);
    c.cwnd <- c.ssthresh;
    send_segment c (seg_of_byte c c.snd_una);
    if c.state = Established then arm_timer c
  end

let client_receive c (seg : Wire.Tcp_segment.t) =
  if seg.conn = c.conn_id && c.state <> Finished then begin
    match (c.state, seg.flags) with
    | Syn_sent, Wire.Tcp_segment.Syn_ack ->
        c.state <- Established;
        cancel_timer c;
        pump c
    | Established, Wire.Tcp_segment.Syn_ack ->
        () (* duplicate SYN/ACK from a retransmitted SYN *)
    | Established, Wire.Tcp_segment.Ack ->
        if seg.ack > c.snd_una then on_new_ack c seg.ack
        else if seg.ack = c.snd_una && c.snd_una < c.snd_next then on_dup_ack c
    | _, Wire.Tcp_segment.Rst -> abort c "connection reset"
    | _, (Wire.Tcp_segment.Syn | Wire.Tcp_segment.Fin) -> ()
    | Syn_sent, Wire.Tcp_segment.Ack -> ()
    | Finished, _ -> ()
  end

(* ------------------------------------------------------------------ *)

type server = {
  s_sim : Sim.t;
  s_conn_id : int;
  s_tx : Wire.Tcp_segment.t -> unit;
  s_on_data : (bytes_in_order:int -> unit) option;
  received : (int, int) Hashtbl.t; (* segment start byte -> length *)
  mutable expected : int; (* next in-order byte *)
  mutable got_syn : bool;
}

let create_server ~sim ~conn_id ~tx ?on_data () =
  {
    s_sim = sim;
    s_conn_id = conn_id;
    s_tx = tx;
    s_on_data = on_data;
    received = Hashtbl.create 32;
    expected = 0;
    got_syn = false;
  }

let server_conn_id s = s.s_conn_id
let server_bytes_received s = s.expected

let server_receive s (seg : Wire.Tcp_segment.t) =
  if seg.conn = s.s_conn_id then begin
    match seg.flags with
    | Wire.Tcp_segment.Syn ->
        (* Answer every SYN (duplicates included) so a lost SYN/ACK is
           repaired by the client's SYN retransmission. *)
        s.got_syn <- true;
        s.s_tx
          { Wire.Tcp_segment.conn = s.s_conn_id; flags = Wire.Tcp_segment.Syn_ack; seq = 0; ack = 0; payload = 0 }
    | Wire.Tcp_segment.Ack when seg.payload > 0 && s.got_syn ->
        if seg.seq >= s.expected then Hashtbl.replace s.received seg.seq seg.payload;
        (* Advance over any contiguous run now available. *)
        let rec advance () =
          match Hashtbl.find_opt s.received s.expected with
          | Some len ->
              Hashtbl.remove s.received s.expected;
              s.expected <- s.expected + len;
              advance ()
          | None -> ()
        in
        advance ();
        (match s.s_on_data with Some f -> f ~bytes_in_order:s.expected | None -> ());
        s.s_tx
          {
            Wire.Tcp_segment.conn = s.s_conn_id;
            flags = Wire.Tcp_segment.Ack;
            seq = 0;
            ack = s.expected;
            payload = 0;
          }
    | Wire.Tcp_segment.Ack -> ()
    | Wire.Tcp_segment.Syn_ack | Wire.Tcp_segment.Fin | Wire.Tcp_segment.Rst -> ()
  end
