type t = {
  sim : Sim.t;
  mutable node_list : node list; (* reverse creation order *)
  mutable link_list : link list;
  mutable next_node_id : int;
  mutable next_link_id : int;
  mutable next_slot : int; (* dense index over addressed nodes *)
  by_addr : node Wire.Addr.Tbl.t;
  mutable trace : (event -> unit) option;
  mutable par : par option; (* conservative-PDES state; None = sequential *)
}

and node = {
  id : int;
  name : string;
  net : t;
  addr : Wire.Addr.t option;
  slot : int; (* dense destination index; -1 when unaddressed *)
  mutable nsim : Sim.t;
      (* the simulator this node's events run on: the net's simulator
         until [install_partitions] re-homes the node to its partition *)
  mutable handler : handler;
  mutable out_links : link list; (* reverse creation order *)
  mutable in_links : link list;
  mutable routes : link option array;
      (* next hop towards each addressed node, indexed by its [slot];
         filled by [compute_routes].  A dense array replaces the seed's
         per-node Hashtbl: route lookup is one shared address resolution
         plus an array load, with no per-node hashing on the forwarding
         path. *)
}

and handler = node -> in_link:link option -> Wire.Packet.t -> unit

and link = {
  lid : int;
  src : node;
  dst : node;
  bandwidth : float;
  delay : float;
  qdisc : Qdisc.t;
  mutable lsim : Sim.t;
      (* where the transmitter runs: the source node's simulator *)
  mutable xmail : (unit -> unit) Mailbox.t option;
      (* Some = this link crosses a partition cut: deliveries are pushed
         here (stamped with their arrival time) instead of being scheduled,
         and the exchange injects them into the destination partition at
         the next window barrier *)
  mutable busy : bool;
  mutable tx_pkt : Wire.Packet.t; (* the packet being serialized; [Pktring.nil] when none *)
  in_flight : Pktring.t;
      (* packets propagating on a same-partition link, in arrival order:
         the link has one constant delay and its transmit completions never
         go back in time, so arrivals fire in the order they were pushed *)
  (* Built once, right after the link (each refers back to it): *)
  mutable in_self : link option; (* [Some] this link: every delivery's [~in_link] *)
  mutable on_tx_done : unit -> unit; (* the [Fault_pass] transmit-done action *)
  mutable on_arrive : unit -> unit; (* delivers the head of [in_flight] *)
  mutable up : bool;
  mutable poll : Sim.handle option;
  mutable limiter : (Wire.Packet.t -> bool) option;
  mutable fault : (Wire.Packet.t -> fault_action) option;
  mutable tx_packets : int;
  mutable tx_bytes : int;
}

and par = {
  p_sims : Sim.t array; (* p_sims.(0) == the net's master simulator *)
  p_parts : int array; (* node id -> partition index *)
  p_lookahead : float; (* min cross-partition link delay *)
  p_xlinks : link array; (* cut links, creation order (exchange order) *)
  p_xdst : int array; (* destination partition per cut link *)
}

and fault_action = Fault_pass | Fault_lose | Fault_dup | Fault_delay of float

and event =
  | Queue_drop of link * Wire.Packet.t
  | Hops_exceeded of node * Wire.Packet.t
  | No_route of node * Wire.Packet.t
  | Transmit of link * Wire.Packet.t
  | Deliver of node * Wire.Packet.t
  | Link_fault of link * Wire.Packet.t

let create sim =
  {
    sim;
    node_list = [];
    link_list = [];
    next_node_id = 0;
    next_link_id = 0;
    next_slot = 0;
    by_addr = Wire.Addr.Tbl.create 64;
    trace = None;
    par = None;
  }

let sim t = t.sim
let now t = Sim.now t.sim
let set_trace t hook = t.trace <- hook

let emit t ev = match t.trace with None -> () | Some hook -> hook ev

let add_node ?addr ~name t handler =
  (match addr with
  | Some a when Wire.Addr.Tbl.mem t.by_addr a ->
      invalid_arg (Fmt.str "Net.add_node: duplicate address %a" Wire.Addr.pp a)
  | _ -> ());
  let slot =
    match addr with
    | Some _ ->
        let s = t.next_slot in
        t.next_slot <- t.next_slot + 1;
        s
    | None -> -1
  in
  let node =
    {
      id = t.next_node_id;
      name;
      net = t;
      addr;
      slot;
      nsim = t.sim;
      handler;
      out_links = [];
      in_links = [];
      routes = [||];
    }
  in
  t.next_node_id <- t.next_node_id + 1;
  t.node_list <- node :: t.node_list;
  (match addr with Some a -> Wire.Addr.Tbl.add t.by_addr a node | None -> ());
  node

let set_handler node h = node.handler <- h
let node_sim node = node.nsim
let node_name node = node.name
let node_addr node = node.addr
let node_id node = node.id

(* When a qdisc reports [next_ready] at (or before) the current instant but
   still refuses to dequeue — a token bucket whose accumulated tokens round
   to just under one packet, say — re-polling at the same virtual time would
   spin the event loop forever.  Back off by this minimum delay (one virtual
   microsecond: far below any packet serialization time, so it never delays
   real service measurably). *)
let min_poll_delay = 1e-6

(* The transmitter: serialize the head packet, then propagate.  [kick]
   starts service if the link is idle and administratively up; when the
   qdisc is unready it arms a single poll timer at [next_ready].

   The per-link fault hook is consulted once per packet, after the packet
   has been dequeued and charged serialization time (a lost or duplicated
   packet still occupied the wire).  When [fault = None] the match reduces
   to the pass branch, which is the exact pre-fault code path — figure
   output with no injector installed is byte-identical.

   The pass branch allocates no closure: the packet waits in [tx_pkt],
   then in [in_flight], and the link's prebuilt [on_tx_done]/[on_arrive]
   actions pick it up.  The rare fault branches and cut links carry the
   packet in a thunk instead.  Trace events are built only when a hook is
   set. *)

(* Hand a propagation-done action to the destination side.  On a
   same-partition link this schedules on the (shared) simulator exactly as
   it always did; on a cut link the action rides the mailbox instead and is
   injected into the destination partition's simulator at the next window
   barrier.  The lookahead contract (arrival >= window end) is what makes
   the late injection legal. *)
let[@inline] propagate link ~extra thunk =
  match link.xmail with
  | None -> ignore (Sim.schedule ~kind:Sim.Kind.net_deliver link.lsim ~delay:(link.delay +. extra) thunk)
  | Some mb -> Mailbox.push mb ~time:(Sim.now link.lsim +. link.delay +. extra) thunk

let deliver link p =
  let dst = link.dst in
  (match dst.net.trace with None -> () | Some hook -> hook (Deliver (dst, p)));
  dst.handler dst ~in_link:link.in_self p

let arrive link = deliver link (Pktring.pop link.in_flight)

let rec kick link =
  if (not link.busy) && link.up then begin
    let net = link.src.net in
    let sim = link.lsim in
    let time = Sim.now sim in
    (match link.poll with
    | Some h ->
        Sim.cancel sim h;
        link.poll <- None
    | None -> ());
    let p = Qdisc.dequeue link.qdisc ~now:time in
    if p != Qdisc.none then begin
        link.busy <- true;
        link.tx_packets <- link.tx_packets + 1;
        link.tx_bytes <- link.tx_bytes + Wire.Packet.size p;
        (match net.trace with None -> () | Some hook -> hook (Transmit (link, p)));
        let tx_time = float_of_int (Wire.Packet.size p) *. 8. /. link.bandwidth in
        match (match link.fault with None -> Fault_pass | Some f -> f p) with
        | Fault_pass ->
            link.tx_pkt <- p;
            ignore (Sim.schedule ~kind:Sim.Kind.net_transmit sim ~delay:tx_time link.on_tx_done)
        | Fault_lose ->
            emit net (Link_fault (link, p));
            ignore
              (Sim.schedule ~kind:Sim.Kind.net_transmit sim ~delay:tx_time (fun () ->
                   link.busy <- false;
                   kick link))
        | Fault_dup ->
            emit net (Link_fault (link, p));
            let p2 = Wire.Packet.copy p in
            ignore
              (Sim.schedule ~kind:Sim.Kind.net_transmit sim ~delay:tx_time (fun () ->
                   link.busy <- false;
                   propagate link ~extra:0. (fun () ->
                       deliver link p;
                       deliver link p2);
                   kick link))
        | Fault_delay extra ->
            emit net (Link_fault (link, p));
            let extra = Float.max 0. extra in
            ignore
              (Sim.schedule ~kind:Sim.Kind.net_transmit sim ~delay:tx_time (fun () ->
                   link.busy <- false;
                   propagate link ~extra (fun () -> deliver link p);
                   kick link))
    end
    else begin
      let at = Qdisc.next_ready link.qdisc ~now:time in
      if at < infinity then begin
        let delay = Float.max 0. (at -. time) in
        (* Never arm a zero-delay self-poll after an empty dequeue: the
           qdisc is momentarily unservable, so wait a token tick. *)
        let delay = if delay <= 0. then min_poll_delay else delay in
        link.poll <-
          Some
            (Sim.schedule ~kind:Sim.Kind.net_poll sim ~delay (fun () ->
                 link.poll <- None;
                 kick link))
      end
    end
  end

(* The pass branch's transmit-done: the wire is free, the packet starts
   propagating. *)
and tx_done link =
  let p = link.tx_pkt in
  link.tx_pkt <- Pktring.nil;
  link.busy <- false;
  (match link.xmail with
  | None ->
      Pktring.push link.in_flight p;
      ignore (Sim.schedule ~kind:Sim.Kind.net_deliver link.lsim ~delay:link.delay link.on_arrive)
  | Some _ -> propagate link ~extra:0. (fun () -> deliver link p));
  kick link

let link_oneway t ~src ~dst ~bandwidth_bps ~delay ~qdisc =
  if bandwidth_bps <= 0. then invalid_arg "Net.link_oneway: bandwidth must be positive";
  if delay < 0. then invalid_arg "Net.link_oneway: delay must be nonnegative";
  let link =
    {
      lid = t.next_link_id;
      src;
      dst;
      bandwidth = bandwidth_bps;
      delay;
      qdisc;
      lsim = src.nsim;
      xmail = None;
      busy = false;
      tx_pkt = Pktring.nil;
      in_flight = Pktring.create ();
      in_self = None;
      on_tx_done = ignore;
      on_arrive = ignore;
      up = true;
      poll = None;
      limiter = None;
      fault = None;
      tx_packets = 0;
      tx_bytes = 0;
    }
  in
  link.in_self <- Some link;
  link.on_tx_done <- (fun () -> tx_done link);
  link.on_arrive <- (fun () -> arrive link);
  t.next_link_id <- t.next_link_id + 1;
  t.link_list <- link :: t.link_list;
  src.out_links <- link :: src.out_links;
  dst.in_links <- link :: dst.in_links;
  link

let duplex t a b ~bandwidth_bps ~delay ~qdisc =
  let ab = link_oneway t ~src:a ~dst:b ~bandwidth_bps ~delay ~qdisc:(qdisc ()) in
  let ba = link_oneway t ~src:b ~dst:a ~bandwidth_bps ~delay ~qdisc:(qdisc ()) in
  (ab, ba)

let enqueue_on link p =
  let admitted = match link.limiter with None -> true | Some f -> f p in
  if admitted && Qdisc.enqueue link.qdisc ~now:(Sim.now link.lsim) p then kick link
  else begin
    if not admitted then begin
      link.qdisc.Qdisc.stats.Qdisc.dropped <- link.qdisc.Qdisc.stats.Qdisc.dropped + 1;
      link.qdisc.Qdisc.stats.Qdisc.bytes_dropped <-
        link.qdisc.Qdisc.stats.Qdisc.bytes_dropped + Wire.Packet.size p
    end;
    match link.src.net.trace with None -> () | Some hook -> hook (Queue_drop (link, p))
  end

let charge_hop node p =
  if p.Wire.Packet.hops <= 0 then begin
    emit node.net (Hops_exceeded (node, p));
    false
  end
  else begin
    p.Wire.Packet.hops <- p.Wire.Packet.hops - 1;
    true
  end

let forward_on node link p =
  assert (link.src == node);
  if charge_hop node p then enqueue_on link p

let route_for node addr =
  match Wire.Addr.Tbl.find node.net.by_addr addr with
  | dst ->
      if dst.slot < Array.length node.routes then
        Array.unsafe_get node.routes dst.slot (* slot >= 0: addressed node *)
      else None
  | exception Not_found -> None

let forward node p =
  if charge_hop node p then begin
    match route_for node p.Wire.Packet.dst with
    | None -> emit node.net (No_route (node, p))
    | Some link -> enqueue_on link p
  end

let originate node p = forward node p

(* Shortest-path routing by BFS from every node over its out-links; ties
   resolve to the earliest-created link, which makes routes deterministic.
   Adjacency arrays (in link-creation order) are built once up front — the
   seed reversed each node's [out_links] list inside every BFS, i.e. O(V·E)
   list reversals per recompute. *)
let compute_routes t =
  let nodes = List.rev t.node_list in
  let n = t.next_node_id in
  let n_slots = t.next_slot in
  let adj = Array.make n [||] in
  List.iter (fun node -> adj.(node.id) <- Array.of_list (List.rev node.out_links)) nodes;
  (* Scratch reused across sources: [seen] is a generation stamp so it needs
     no clearing between BFS runs, [frontier] a preallocated ring (each node
     enters at most once). *)
  let seen = Array.make n (-1) in
  let first_hop : link option array = Array.make n None in
  let frontier = Array.make (max n 1) (-1) in
  let run_bfs source =
    source.routes <- Array.make n_slots None;
    seen.(source.id) <- source.id;
    first_hop.(source.id) <- None;
    frontier.(0) <- source.id;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = frontier.(!head) in
      incr head;
      let links = adj.(u) in
      for k = 0 to Array.length links - 1 do
        let link = links.(k) in
        let v = link.dst.id in
        if seen.(v) <> source.id then begin
          seen.(v) <- source.id;
          first_hop.(v) <- (if u = source.id then Some link else first_hop.(u));
          (match (link.dst.addr, first_hop.(v)) with
          | Some _, Some hop -> source.routes.(link.dst.slot) <- Some hop
          | _, _ -> ());
          frontier.(!tail) <- v;
          incr tail
        end
      done
    done
  in
  List.iter run_bfs nodes

let links_into node = List.rev node.in_links
let links_out_of node = List.rev node.out_links
let link_id link = link.lid
let link_src link = link.src
let link_dst link = link.dst
let link_qdisc link = link.qdisc
let link_bandwidth link = link.bandwidth
let link_delay link = link.delay
let link_tx_packets link = link.tx_packets
let link_tx_bytes link = link.tx_bytes
let link_set_limiter link f = link.limiter <- f
let link_set_fault link f = link.fault <- f
let link_is_up link = link.up

let link_set_up link v =
  if link.up <> v then begin
    link.up <- v;
    if v then kick link
    else
      match link.poll with
      | Some h ->
          Sim.cancel link.lsim h;
          link.poll <- None
      | None -> ()
  end

let nodes t = List.rev t.node_list
let links t = List.rev t.link_list
let find_node_by_addr t addr = Wire.Addr.Tbl.find_opt t.by_addr addr

(* --- conservative-PDES partitioning (DESIGN.md section 14) -------------- *)

let install_partitions t ~parts =
  if t.par <> None then invalid_arg "Net.install_partitions: already partitioned";
  if Array.length parts <> t.next_node_id then
    invalid_arg "Net.install_partitions: need one partition index per node";
  let k = Array.fold_left (fun m p -> max m (p + 1)) 0 parts in
  if k < 2 then invalid_arg "Net.install_partitions: need at least two partitions";
  Array.iteri
    (fun id p ->
      if p < 0 || p >= k then
        invalid_arg (Printf.sprintf "Net.install_partitions: node %d has partition %d" id p))
    parts;
  let seen = Array.make k false in
  Array.iter (fun p -> seen.(p) <- true) parts;
  if not (Array.for_all Fun.id seen) then
    invalid_arg "Net.install_partitions: every partition must own at least one node";
  (* Anything already scheduled would stay pinned to the master simulator
     even when its node moves; force the install to precede agent setup. *)
  if Sim.pending t.sim > 0 then
    invalid_arg "Net.install_partitions: the master simulator already has pending events";
  let sched = Sim.sched t.sim in
  let sims = Array.init k (fun i -> if i = 0 then t.sim else Sim.create ~seed:(i + 1) ~sched ()) in
  List.iter (fun node -> node.nsim <- sims.(parts.(node.id))) t.node_list;
  let xlinks = ref [] and xdst = ref [] and look = ref infinity in
  List.iter
    (fun link ->
      let ps = parts.(link.src.id) and pd = parts.(link.dst.id) in
      link.lsim <- sims.(ps);
      if ps <> pd then begin
        if link.delay <= 0. then
          invalid_arg
            (Printf.sprintf "Net.install_partitions: cut crosses zero-delay link %d" link.lid);
        link.xmail <- Some (Mailbox.create ~dummy:(fun () -> ()) ());
        xlinks := link :: !xlinks;
        xdst := pd :: !xdst;
        if link.delay < !look then look := link.delay
      end)
    (List.rev t.link_list);
  t.par <-
    Some
      {
        p_sims = sims;
        p_parts = Array.copy parts;
        p_lookahead = !look;
        p_xlinks = Array.of_list (List.rev !xlinks);
        p_xdst = Array.of_list (List.rev !xdst);
      }

let partition_count t = match t.par with None -> 1 | Some p -> Array.length p.p_sims
let partition_sims t = match t.par with None -> [| t.sim |] | Some p -> Array.copy p.p_sims
let partition_of node =
  match node.net.par with None -> 0 | Some p -> p.p_parts.(node.id)

let lookahead t = match t.par with None -> infinity | Some p -> p.p_lookahead

(* Drain every cut-link mailbox and inject the buffered deliveries into
   their destination partitions.  Runs on the coordinating domain at a
   window barrier (the Par mutex orders it against the producers).  The
   injection order is the determinism contract: per destination partition,
   entries sort stably by arrival time, ties falling back to cut-link
   creation order then FIFO push order — so a run's merge order depends
   only on the topology and the traffic, never on domain timing. *)
let exchange_mailboxes t =
  match t.par with
  | None -> ()
  | Some p ->
      let k = Array.length p.p_sims in
      let acc = Array.make k [] in
      Array.iteri
        (fun i link ->
          match link.xmail with
          | None -> assert false
          | Some mb ->
              let d = p.p_xdst.(i) in
              Mailbox.drain mb ~f:(fun ~time thunk -> acc.(d) <- (time, thunk) :: acc.(d)))
        p.p_xlinks;
      for d = 0 to k - 1 do
        match acc.(d) with
        | [] -> ()
        | entries ->
            let arr = Array.of_list (List.rev entries) in
            Array.stable_sort (fun (ta, _) (tb, _) -> Float.compare ta tb) arr;
            let sim = p.p_sims.(d) in
            Array.iter
              (fun (time, thunk) ->
                ignore (Sim.schedule_at ~kind:Sim.Kind.net_deliver sim ~time thunk))
              arr
      done

let run_parallel ?pulse ?(until = infinity) t =
  (match pulse with
  | Some (interval, _) ->
      if not (interval > 0.) then invalid_arg "Net.run_parallel: pulse interval must be positive";
      if until = infinity then invalid_arg "Net.run_parallel: a pulse needs a finite until"
  | None -> ());
  match t.par with
  | None -> (
      match pulse with
      | None -> Sim.run ~until t.sim
      | Some (interval, fire) ->
          (* The sequential equivalent of Par.drive's barrier pulses: a
             self-rescheduling auxiliary tick chain.  Aux events draw
             negative sequence numbers, so the run stays bit-identical to
             one without the chain; at equal time they fire before normal
             events, the same cut the partitioned pulse observes.  Times
             are k * interval by multiplication, matching Par.drive, so
             both paths stamp identical series. *)
          let k = ref 1 in
          let rec arm () =
            let tm = float_of_int !k *. interval in
            if tm <= until then
              ignore
                (Sim.schedule_aux t.sim ~time:tm (fun () ->
                     fire tm;
                     incr k;
                     arm ()))
          in
          arm ();
          Sim.run ~until t.sim)
  | Some p ->
      let team = Par.create (Array.length p.p_sims) in
      Fun.protect
        ~finally:(fun () -> Par.shutdown team)
        (fun () ->
          Par.drive ?pulse team ~sims:p.p_sims ~lookahead:p.p_lookahead ~until
            ~exchange:(fun () -> exchange_mailboxes t))
