(* The network layer: link timing (serialization + propagation), routing,
   tracing, forwarding edge cases, and the canned topologies. *)

let mk_net () =
  let sim = Sim.create () in
  let net = Net.create sim in
  (sim, net)

let plain_qdisc () = Droptail.create ~capacity_bytes:1_000_000 ()

let sink () =
  let received = ref [] in
  let handler _node ~in_link:_ p = received := p :: !received in
  (received, handler)

let mk_packet ~src ~dst ?(bytes = 1000) created =
  Wire.Packet.make ~src ~dst ~created (Wire.Packet.Raw bytes)

let a_addr = Wire.Addr.of_int 1
let b_addr = Wire.Addr.of_int 2

let link_delivers_with_correct_latency () =
  let sim, net = mk_net () in
  let received, handler = sink () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net handler in
  (* 1000-byte packet on 1 Mb/s with 10 ms propagation: 8 ms + 10 ms. *)
  ignore (Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.010 ~qdisc:(plain_qdisc ()));
  Net.compute_routes net;
  let arrival = ref 0. in
  Net.set_handler b (fun _ ~in_link:_ _ -> arrival := Sim.now sim);
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "8ms tx + 10ms prop" 0.018 !arrival;
  ignore received

let link_serializes_back_to_back () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  ignore (Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.010 ~qdisc:(plain_qdisc ()));
  Net.compute_routes net;
  let arrivals = ref [] in
  Net.set_handler b (fun _ ~in_link:_ _ -> arrivals := Sim.now sim :: !arrivals);
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  Sim.run sim;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      Alcotest.(check (float 1e-9)) "first" 0.018 t1;
      (* The second serializes behind the first: one more 8 ms tx time. *)
      Alcotest.(check (float 1e-9)) "second" 0.026 t2
  | other -> Alcotest.failf "expected 2 arrivals, got %d" (List.length other)

let multi_hop_routing () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let r = Net.add_node ~name:"r" net (fun node ~in_link:_ p -> Net.forward node p) in
  let got = ref false in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> got := true) in
  ignore (Net.duplex net a r ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  ignore (Net.duplex net r b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  Net.compute_routes net;
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  Sim.run sim;
  Alcotest.(check bool) "delivered over two hops" true !got

let shortest_path_chosen () =
  let sim, net = mk_net () in
  ignore sim;
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun node ~in_link:_ p -> Net.forward node p) in
  let r1 = Net.add_node ~name:"r1" net (fun node ~in_link:_ p -> Net.forward node p) in
  let r2 = Net.add_node ~name:"r2" net (fun node ~in_link:_ p -> Net.forward node p) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  (* Long path a-r1-r2-b and a direct short path a-b. *)
  ignore (Net.duplex net a r1 ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  ignore (Net.duplex net r1 r2 ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  ignore (Net.duplex net r2 b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc);
  let direct, _ = Net.duplex net a b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:plain_qdisc in
  Net.compute_routes net;
  match Net.route_for a b_addr with
  | Some link -> Alcotest.(check int) "direct link" (Net.link_id direct) (Net.link_id link)
  | None -> Alcotest.fail "no route"

let hop_limit_drops_loops () =
  let sim, net = mk_net () in
  (* Two routers bouncing every packet back at each other: the hop budget
     must terminate the loop. *)
  let dropped = ref 0 in
  Net.set_trace net (Some (function Net.Hops_exceeded _ -> incr dropped | _ -> ()));
  let bounce node ~in_link p =
    (* Send back where it came from — the worst routing loop. *)
    match in_link with
    | Some l ->
        let back =
          List.find (fun out -> Net.node_id (Net.link_dst out) = Net.node_id (Net.link_src l))
            (Net.links_out_of node)
        in
        Net.forward_on node back p
    | None -> ()
  in
  let r1 = Net.add_node ~name:"r1" net bounce in
  let r2 = Net.add_node ~name:"r2" net bounce in
  let l12, _ = Net.duplex net r1 r2 ~bandwidth_bps:1e9 ~delay:0.0001 ~qdisc:plain_qdisc in
  Net.compute_routes net;
  let p = mk_packet ~src:(Wire.Addr.of_int 9) ~dst:b_addr 0. in
  Net.forward_on r1 l12 p;
  Sim.run sim;
  Alcotest.(check int) "loop terminated" 1 !dropped;
  Alcotest.(check int) "hops exhausted" 0 p.Wire.Packet.hops

let no_route_traced () =
  let sim, net = mk_net () in
  let traced = ref 0 in
  Net.set_trace net (Some (function Net.No_route _ -> incr traced | _ -> ()));
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  Net.compute_routes net;
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  Sim.run sim;
  Alcotest.(check int) "no-route event" 1 !traced

let queue_drop_traced () =
  let sim, net = mk_net () in
  let drops = ref 0 in
  Net.set_trace net (Some (function Net.Queue_drop _ -> incr drops | _ -> ()));
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  ignore
    (Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e3 ~delay:0.01
       ~qdisc:(Droptail.create ~capacity_bytes:1500 ()));
  Net.compute_routes net;
  for _ = 1 to 5 do
    Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.)
  done;
  Sim.run ~until:1. sim;
  Alcotest.(check bool) (Printf.sprintf "%d drops" !drops) true (!drops >= 3)

let limiter_blocks_packets () =
  let sim, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let got = ref 0 in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> incr got) in
  let link = Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:(plain_qdisc ()) in
  Net.compute_routes net;
  Net.link_set_limiter link (Some (fun _ -> false));
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  Sim.run sim;
  Alcotest.(check int) "blocked" 0 !got;
  Net.link_set_limiter link None;
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr (Sim.now sim));
  Sim.run sim;
  Alcotest.(check int) "released" 1 !got

let duplicate_address_rejected () =
  let _, net = mk_net () in
  ignore (Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()));
  match Net.add_node ~addr:a_addr ~name:"dup" net (fun _ ~in_link:_ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let bad_link_params_rejected () =
  let _, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  (match Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:0. ~delay:0.01 ~qdisc:(plain_qdisc ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bandwidth accepted");
  match Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:(-0.1) ~qdisc:(plain_qdisc ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay accepted"

let find_node_by_addr () =
  let _, net = mk_net () in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  (match Net.find_node_by_addr net a_addr with
  | Some n -> Alcotest.(check bool) "found the node" true (n == a)
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "absent" true (Net.find_node_by_addr net b_addr = None)

(* --- Topology builders ------------------------------------------------- *)

let dumbbell_shape () =
  let sim = Sim.create () in
  let topo =
    Topology.dumbbell ~n_attackers:3 ~with_colluder:true
      ~make_qdisc:(fun ~bandwidth_bps:_ -> plain_qdisc ())
      sim
  in
  Alcotest.(check int) "users" 10 (Array.length topo.Topology.users);
  Alcotest.(check int) "attackers" 3 (Array.length topo.Topology.attackers);
  Alcotest.(check bool) "colluder" true (topo.Topology.colluder <> None);
  (* Every user routes to the destination via the left router's bottleneck. *)
  Array.iter
    (fun u ->
      match Net.route_for u Topology.destination_addr with
      | Some _ -> ()
      | None -> Alcotest.fail "user lacks route")
    topo.Topology.users;
  match Net.route_for topo.Topology.left Topology.destination_addr with
  | Some link ->
      Alcotest.(check int) "left routes via bottleneck" (Net.link_id topo.Topology.bottleneck)
        (Net.link_id link)
  | None -> Alcotest.fail "left router lacks route"

let dumbbell_end_to_end_rtt () =
  (* One packet each way should take ~30 ms one-way at 3 hops x 10 ms plus
     transmission times: the paper's 60 ms RTT. *)
  let sim = Sim.create () in
  let topo =
    Topology.dumbbell ~n_attackers:0 ~make_qdisc:(fun ~bandwidth_bps:_ -> plain_qdisc ()) sim
  in
  List.iter (fun r -> Net.set_handler r (fun node ~in_link:_ p -> Net.forward node p))
    [ topo.Topology.left; topo.Topology.right ];
  let arrival = ref 0. in
  Net.set_handler topo.Topology.destination (fun _ ~in_link:_ _ -> arrival := Sim.now sim);
  Net.originate topo.Topology.users.(0)
    (mk_packet ~src:(Topology.user_addr 0) ~dst:Topology.destination_addr ~bytes:40 0.);
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "one-way %.4fs ≈ 30ms" !arrival)
    true
    (!arrival > 0.030 && !arrival < 0.032)

let chain_shape () =
  let sim = Sim.create () in
  let chain =
    Topology.chain ~hops:4 ~make_qdisc:(fun ~bandwidth_bps:_ -> plain_qdisc ()) sim
  in
  Alcotest.(check int) "routers" 4 (Array.length chain.Topology.chain_routers);
  match Net.route_for chain.Topology.chain_source Topology.chain_destination_addr with
  | Some _ -> ()
  | None -> Alcotest.fail "chain not routed"

(* Regression for the [Net.min_poll_delay] floor: a token-bucket-style
   qdisc that holds a packet and claims readiness *now* yet refuses every
   dequeue (its tokens perpetually round to just under one packet) must
   not spin the event loop at a fixed virtual instant.  With the floor,
   the transmitter re-polls every [min_poll_delay]; without it this test
   would hang at time 0. *)
let unservable_qdisc_does_not_spin () =
  let sim, net = mk_net () in
  let held = ref None in
  let stuck_bucket =
    Qdisc.make_custom ~name:"stuck-token-bucket"
      ~enqueue:(fun ~now:_ p ->
        held := Some p;
        true)
      ~dequeue:(fun ~now:_ -> Qdisc.none)
      ~next_ready:(fun ~now -> if !held = None then infinity else now)
      ~packet_count:(fun () -> if !held = None then 0 else 1)
      ~byte_count:(fun () ->
        match !held with None -> 0 | Some p -> Wire.Packet.size p)
      ()
  in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> ()) in
  ignore (Net.link_oneway net ~src:a ~dst:b ~bandwidth_bps:1e6 ~delay:0.001 ~qdisc:stuck_bucket);
  Net.compute_routes net;
  Net.originate a (mk_packet ~src:a_addr ~dst:b_addr 0.);
  let horizon = 1000. *. Net.min_poll_delay in
  Sim.run ~until:horizon sim;
  Alcotest.(check (float 1e-12)) "clock reached horizon" horizon (Sim.now sim);
  (* One poll per min_poll_delay tick plus bookkeeping — not an unbounded
     spin.  (A zero-delay re-poll would never let the clock advance.) *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded polling (%d events)" (Sim.events_processed sim))
    true
    (Sim.events_processed sim <= 1100)

(* The per-hop cost of the link layer with no trace hook: a -> r -> b, the
   relay forwarding by route lookup.  Each packet crosses two links (two
   transmit-done and two arrival events); the packets are built and the
   queues grown before counting, so what is left is the event loop, the
   qdiscs and the forwarding path.  Measured 2026-10-18: 10.0 words per
   hop, against 51.0 before the links kept their actions prebuilt and the
   scheduler its events in a slab. *)
let forwarded_hop_allocation_budget () =
  let budget = 16. in
  let sim, net = mk_net () in
  let delivered = ref 0 in
  let a = Net.add_node ~addr:a_addr ~name:"a" net (fun _ ~in_link:_ _ -> ()) in
  let r = Net.add_node ~name:"r" net (fun node ~in_link:_ p -> Net.forward node p) in
  let b = Net.add_node ~addr:b_addr ~name:"b" net (fun _ ~in_link:_ _ -> incr delivered) in
  ignore (Net.link_oneway net ~src:a ~dst:r ~bandwidth_bps:1e7 ~delay:0.001 ~qdisc:(plain_qdisc ()));
  ignore (Net.link_oneway net ~src:r ~dst:b ~bandwidth_bps:1e7 ~delay:0.001 ~qdisc:(plain_qdisc ()));
  Net.compute_routes net;
  let n = 2000 in
  let batch () = Array.init n (fun _ -> mk_packet ~src:a_addr ~dst:b_addr ~bytes:100 0.) in
  let send packets =
    Array.iter (Net.originate a) packets;
    Sim.run sim
  in
  send (batch ());
  let packets = batch () in
  Gc.full_major ();
  let words0 = Gc.minor_words () in
  send packets;
  let per_hop = (Gc.minor_words () -. words0) /. float_of_int (2 * n) in
  Alcotest.(check int) "all delivered" (2 * n) !delivered;
  if per_hop > budget then
    Alcotest.failf "a forwarded hop allocates %.2f minor words (budget %g)" per_hop budget

let suite =
  [
    Alcotest.test_case "link latency" `Quick link_delivers_with_correct_latency;
    Alcotest.test_case "unservable qdisc no spin" `Quick unservable_qdisc_does_not_spin;
    Alcotest.test_case "serialization" `Quick link_serializes_back_to_back;
    Alcotest.test_case "multi-hop" `Quick multi_hop_routing;
    Alcotest.test_case "shortest path" `Quick shortest_path_chosen;
    Alcotest.test_case "hop limit" `Quick hop_limit_drops_loops;
    Alcotest.test_case "no route" `Quick no_route_traced;
    Alcotest.test_case "queue drops traced" `Quick queue_drop_traced;
    Alcotest.test_case "limiter" `Quick limiter_blocks_packets;
    Alcotest.test_case "duplicate addr" `Quick duplicate_address_rejected;
    Alcotest.test_case "bad link params" `Quick bad_link_params_rejected;
    Alcotest.test_case "find by addr" `Quick find_node_by_addr;
    Alcotest.test_case "dumbbell shape" `Quick dumbbell_shape;
    Alcotest.test_case "dumbbell rtt" `Quick dumbbell_end_to_end_rtt;
    Alcotest.test_case "chain shape" `Quick chain_shape;
    Alcotest.test_case "forwarded hop allocation" `Quick forwarded_hop_allocation_budget;
  ]
