(* The traced run: a wrapper around a scheme's public factory record that
   attributes a run's time to the layers in lib/ without touching them.

   - [Sim.set_probe] on the factory's simulator opens a span per fired
     event and names it by the event's [Sim.Kind] once it has run.
   - Every leaf discipline of [make_qdisc]'s output is wrapped through
     [Qdisc.make_custom] under its own name; composite levels are rebuilt
     around the wrapped leaves with their name and stats record kept.
     Wrapping only the top level would hide the nested queues from
     [Qdisc.iter_nested], which NetFence uses to find its regular channel,
     and pushback finds its per-link state by the top level's stats record.
     Composite dispatch (tri-class classify, token-bucket refill) is
     therefore charged to the caller's self time.
   - Endpoint send closures and the TCP demux callback are wrapped.
   - TVA routers and hosts get [Obs.Counters] instances (which do not
     change results) for the nonce, minting and demotion counts.

   Spans are timed only inside a fired event, so set-up work is not
   attributed; the loop time runs from the first event's start to the last
   event's end. *)

open Workload

let n_kinds = Sim.Kind.count
let ev_open = n_kinds (* an event whose kind is not known yet *)
let queueing = n_kinds + 1
let tcp_rx = n_kinds + 2
let send = n_kinds + 3

let span_names =
  Array.append
    (Array.init n_kinds (fun k -> "event." ^ Sim.Kind.name k))
    [| "event.open"; "queueing"; "tcp.rx"; "workload.send" |]

type t = {
  spans : Span.t;
  mutable ev_end : float;
  mutable loop_start : float;  (** nan until the cell's first event *)
  mutable loop_end : float;
  mutable loop_total : float;  (** summed over finished cells *)
  event_counts : int array;
  mutable pending_peak : int;
  mutable deliveries : int;
  mutable same_time_deliveries : int;
  mutable last_deliver : float;
  mutable enqueues : int;
  mutable drops : int;
  mutable backlog_peak : int;
  mutable rx_segments : int;
  mutable send_calls : int;
  routers : Obs.Counters.t;
  hosts : Obs.Counters.t;
}

let create () =
  {
    spans = Span.create span_names;
    ev_end = 0.;
    loop_start = nan;
    loop_end = nan;
    loop_total = 0.;
    event_counts = Array.make n_kinds 0;
    pending_peak = 0;
    deliveries = 0;
    same_time_deliveries = 0;
    last_deliver = nan;
    enqueues = 0;
    drops = 0;
    backlog_peak = 0;
    rx_segments = 0;
    send_calls = 0;
    routers = Obs.Counters.create ~name:"routers" ();
    hosts = Obs.Counters.create ~name:"hosts" ();
  }

let clock = Unix.gettimeofday

(* Time [f] as a child of the running event; outside events (set-up) it
   runs untimed. *)
let timed t id f =
  if Span.depth t.spans = 0 then f ()
  else begin
    Span.enter t.spans id (clock ());
    let r = f () in
    Span.leave t.spans (clock ());
    r
  end

let probe t sim =
  {
    Sim.pr_clock =
      (fun () ->
        let now = clock () in
        if Span.depth t.spans = 0 then begin
          if Float.is_nan t.loop_start then t.loop_start <- now;
          let p = Sim.pending sim in
          if p > t.pending_peak then t.pending_peak <- p;
          Span.enter t.spans ev_open now
        end
        else t.ev_end <- now;
        now);
    pr_hit =
      (fun ~kind ~dt:_ ->
        if Span.depth t.spans <> 1 then failwith "Tracer: a span was left open inside an event";
        Span.leave ~id:kind t.spans t.ev_end;
        t.loop_end <- t.ev_end;
        t.event_counts.(kind) <- t.event_counts.(kind) + 1;
        if kind = Sim.Kind.net_deliver then begin
          let now = Sim.now sim in
          if Float.equal now t.last_deliver then
            t.same_time_deliveries <- t.same_time_deliveries + 1;
          t.deliveries <- t.deliveries + 1;
          t.last_deliver <- now
        end);
  }

let rec wrap_qdisc t (q : Qdisc.t) : Qdisc.t =
  match q.Qdisc.kind with
  | Qdisc.Token_bucket tb ->
      { q with Qdisc.kind = Qdisc.Token_bucket { tb with Qdisc.tb_inner = wrap_qdisc t tb.Qdisc.tb_inner } }
  | Qdisc.Tri_class tc ->
      {
        q with
        Qdisc.kind =
          Qdisc.Tri_class
            {
              tc with
              Qdisc.tc_request = wrap_qdisc t tc.Qdisc.tc_request;
              tc_regular = wrap_qdisc t tc.Qdisc.tc_regular;
              tc_legacy = wrap_qdisc t tc.Qdisc.tc_legacy;
            };
      }
  | Qdisc.Priority pr ->
      { q with Qdisc.kind = Qdisc.Priority { pr with Qdisc.p_classes = Array.map (wrap_qdisc t) pr.Qdisc.p_classes } }
  | Qdisc.Custom c ->
      (* Call the callbacks directly and keep the stats record: the
         wrapper's own accounting then replaces the inner level's instead
         of doubling it, and identity lookups by stats still match. *)
      let w =
        wrap_leaf t ~name:q.Qdisc.name ~enqueue:c.Qdisc.c_enqueue ~dequeue:c.Qdisc.c_dequeue
          ~next_ready:c.Qdisc.c_next_ready ~packet_count:c.Qdisc.c_packet_count
          ~byte_count:c.Qdisc.c_byte_count
      in
      { w with Qdisc.stats = q.Qdisc.stats }
  | Qdisc.Fifo _ | Qdisc.Drr _ ->
      wrap_leaf t ~name:q.Qdisc.name ~enqueue:(Qdisc.enqueue q) ~dequeue:(Qdisc.dequeue q)
        ~next_ready:(Qdisc.next_ready q)
        ~packet_count:(fun () -> Qdisc.packet_count q)
        ~byte_count:(fun () -> Qdisc.byte_count q)

and wrap_leaf t ~name ~enqueue ~dequeue ~next_ready ~packet_count ~byte_count =
  Qdisc.make_custom ~name
    ~enqueue:(fun ~now p ->
      let ok = timed t queueing (fun () -> enqueue ~now p) in
      t.enqueues <- t.enqueues + 1;
      if ok then begin
        let n = packet_count () in
        if n > t.backlog_peak then t.backlog_peak <- n
      end
      else t.drops <- t.drops + 1;
      ok)
    ~dequeue:(fun ~now -> timed t queueing (fun () -> dequeue ~now))
    ~next_ready:(fun ~now -> timed t queueing (fun () -> next_ready ~now))
    ~packet_count ~byte_count ()

let wrap_endpoint t (ep : Scheme.endpoint) =
  let sent f =
    t.send_calls <- t.send_calls + 1;
    timed t send f
  in
  {
    ep with
    Scheme.ep_send_segment = (fun ~dst seg -> sent (fun () -> ep.Scheme.ep_send_segment ~dst seg));
    ep_set_demux =
      (fun handler ->
        ep.Scheme.ep_set_demux (fun ~src seg ->
            t.rx_segments <- t.rx_segments + 1;
            timed t tcp_rx (fun () -> handler ~src seg)));
    ep_send_raw = (fun ~dst ~bytes -> sent (fun () -> ep.Scheme.ep_send_raw ~dst ~bytes));
    ep_send_legacy = (fun ~dst ~bytes -> sent (fun () -> ep.Scheme.ep_send_legacy ~dst ~bytes));
    ep_send_request = (fun ~dst ~bytes -> sent (fun () -> ep.Scheme.ep_send_request ~dst ~bytes));
    ep_flood_misbehaving =
      (fun ~dst ~bytes -> sent (fun () -> ep.Scheme.ep_flood_misbehaving ~dst ~bytes));
  }

(* Start a cell: a fresh simulator, so per-simulator state resets. *)
let wrap t (factory : Scheme.factory) : Scheme.factory =
 fun sim ->
  t.loop_start <- nan;
  t.loop_end <- nan;
  t.last_deliver <- nan;
  let s = factory sim in
  Sim.set_probe sim (Some (probe t sim));
  {
    s with
    Scheme.make_qdisc = (fun ~bandwidth_bps -> wrap_qdisc t (s.Scheme.make_qdisc ~bandwidth_bps));
    install_router =
      (fun ?obs node ~link_bps ->
        s.Scheme.install_router ~obs:(Option.value obs ~default:t.routers) node ~link_bps);
    make_endpoint =
      (fun ?obs node ~role ~policy ->
        wrap_endpoint t
          (s.Scheme.make_endpoint ~obs:(Option.value obs ~default:t.hosts) node ~role ~policy));
  }

(* Close a cell that ended at wall time [now]: add its loop time and
   return the time from its first event to [now]. *)
let end_cell t ~now =
  if Span.depth t.spans <> 0 then failwith "Tracer: span left open at the end of a cell";
  if Float.is_nan t.loop_start then failwith "Tracer: no simulator event fired";
  t.loop_total <- t.loop_total +. (t.loop_end -. t.loop_start);
  now -. t.loop_start

let kind_self t k = Span.self t.spans k

(* Loop time covered by no event callback: heap or wheel work. *)
let sched_self t =
  let events = ref 0. in
  for k = 0 to n_kinds - 1 do
    events := !events +. Span.total t.spans k
  done;
  t.loop_total -. !events

let events t = Array.fold_left ( + ) 0 t.event_counts

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The per-layer metrics that come from spans and counts, as
   (name, value, unit). *)
let layer_metrics t =
  let c = Obs.Counters.get t.routers in
  let kind_events k = float_of_int t.event_counts.(k) in
  [
    ("engine.events", float_of_int (events t), "count");
  ]
  @ List.map
      (fun k -> ("engine.events." ^ Sim.Kind.name k, kind_events k, "count"))
      Sim.Kind.[ net_transmit; net_deliver; net_poll; tcp_timer; agent; other ]
  @ [
      ("engine.sched_self_s", sched_self t, "s");
      ("engine.pending_peak", float_of_int t.pending_peak, "count");
      ( "netsim.transmit_self_s",
        kind_self t Sim.Kind.net_transmit +. kind_self t Sim.Kind.net_poll,
        "s" );
      ("netsim.same_time_deliver_frac", frac t.same_time_deliveries t.deliveries, "fraction");
      ("queueing.calls", float_of_int (Span.count t.spans queueing), "count");
      ("queueing.self_s", Span.self t.spans queueing, "s");
      ("queueing.drop_frac", frac t.drops t.enqueues, "fraction");
      ("queueing.backlog_peak_pkts", float_of_int t.backlog_peak, "count");
      ("scheme.deliver_self_s", kind_self t Sim.Kind.net_deliver, "s");
      ( "core.nonce_hit_frac",
        frac (c Obs.Event.Nonce_hit) (c Obs.Event.Regular_in),
        "fraction" );
      ("core.requests_minted", float_of_int (c Obs.Event.Request_minted), "count");
      ("core.demoted", float_of_int (c Obs.Event.Demoted), "count");
      ("tcp.rx_segments", float_of_int t.rx_segments, "count");
      ("tcp.rx_self_s", Span.self t.spans tcp_rx, "s");
      ("tcp.timer_events", kind_events Sim.Kind.tcp_timer, "count");
      ("workload.agent_self_s", kind_self t Sim.Kind.agent, "s");
      ("workload.send_calls", float_of_int t.send_calls, "count");
      ("workload.send_self_s", Span.self t.spans send, "s");
    ]
