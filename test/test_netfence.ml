(* NetFence: the secure-feedback datapath (mint/validate) and the AIMD
   policing loop that makes per-sender rates converge to fair shares. *)

let src = Wire.Addr.of_int 0x0a000001
let other = Wire.Addr.of_int 0x0a000002

let make_router ?(router_id = 7) ?(secret_master = "k") () =
  let sim = Sim.create () in
  (sim, Netfence.Router.create ~secret_master ~router_id ~sim ~link_bps:10e6 ())

let action = Alcotest.testable Wire.Nf_feedback.pp_action ( = )

let mac_roundtrip () =
  let _sim, r = make_router () in
  List.iter
    (fun a ->
      let tok = Netfence.Router.mint r ~now:1. ~src a in
      Alcotest.(check (option action))
        "token validates as minted" (Some a)
        (Netfence.Router.validate r ~now:1.2 tok ~src))
    [ Wire.Nf_feedback.Incr; Wire.Nf_feedback.Decr ]

let forgery_rejected () =
  let _sim, r = make_router () in
  let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Decr in
  let check name t expected = Alcotest.(check (option action)) name expected (Netfence.Router.validate r ~now:1.2 t ~src) in
  check "intact token accepted" tok (Some Wire.Nf_feedback.Decr);
  check "tampered MAC rejected"
    { tok with Wire.Nf_feedback.nf_mac = Int64.add tok.Wire.Nf_feedback.nf_mac 1L }
    None;
  (* Flipping Decr to Incr is the attack NetFence's MAC exists to stop:
     the action is part of the preimage, so the old MAC no longer
     verifies. *)
  check "flipped action rejected" { tok with Wire.Nf_feedback.nf_action = Wire.Nf_feedback.Incr } None;
  Alcotest.(check (option action))
    "token bound to sender" None
    (Netfence.Router.validate r ~now:1.2 tok ~src:other);
  let lifetime = float_of_int Netfence.Router.default_params.Netfence.Router.token_lifetime in
  Alcotest.(check (option action))
    "stale token rejected" None
    (Netfence.Router.validate r ~now:(1. +. lifetime +. 2.) tok ~src);
  Alcotest.(check bool) "rejections counted" true (Netfence.Router.rejected r > 0)

let shared_master_validates_across_routers () =
  (* NetFence's pairwise keys, modeled as one shared master: a token
     minted by router 7 must verify at any other router of the run, and
     must not at a router with a different master. *)
  let _s1, minter = make_router ~router_id:7 () in
  let _s2, peer = make_router ~router_id:9 () in
  let _s3, stranger = make_router ~router_id:9 ~secret_master:"other" () in
  let tok = Netfence.Router.mint minter ~now:1. ~src Wire.Nf_feedback.Incr in
  Alcotest.(check (option action))
    "peer accepts" (Some Wire.Nf_feedback.Incr)
    (Netfence.Router.validate peer ~now:1.2 tok ~src);
  Alcotest.(check (option action))
    "stranger rejects" None
    (Netfence.Router.validate stranger ~now:1.2 tok ~src)

let rotate_invalidates () =
  let _sim, r = make_router () in
  let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Incr in
  Netfence.Router.rotate_secret r;
  Alcotest.(check (option action))
    "token dies with the key" None
    (Netfence.Router.validate r ~now:1.2 tok ~src)

(* The canonical 10-byte token preimage: src (4 B BE) | router id (4 B BE)
   | ts (1 B) | action (1 B).  The router packs it straight into SipHash
   words; hashing this string with the general 56-bit MAC is the
   reference it must match. *)
let token_preimage ~src ~router ~ts ~action =
  let b = Bytes.create 10 in
  Bytes.set_int32_be b 0 (Int32.of_int src);
  Bytes.set_int32_be b 4 (Int32.of_int router);
  Bytes.set_uint8 b 8 ts;
  Bytes.set_uint8 b 9 (Wire.Nf_feedback.action_bit action);
  Bytes.to_string b

let packed_mac_matches_string_preimage =
  QCheck.Test.make ~name:"netfence: packed token MAC = Fast.mac56 of the 10-byte preimage"
    ~count:300
    QCheck.(
      quad (int_range 0 0xffffffff) (int_range 0 0xffffffff) (float_range 0. 2000.) bool)
    (fun (router_id, src_i, now, decr) ->
      let action = if decr then Wire.Nf_feedback.Decr else Wire.Nf_feedback.Incr in
      let sim = Sim.create () in
      let r = Netfence.Router.create ~secret_master:"k" ~router_id ~sim ~link_bps:10e6 () in
      let src = Wire.Addr.of_int src_i in
      let tok = Netfence.Router.mint r ~now ~src action in
      let key = Crypto.Secret.issuing_secret (Crypto.Secret.create ~master:"k") ~now in
      let expect =
        Crypto.Keyed_hash.Fast.mac56 ~key
          (token_preimage ~src:src_i ~router:router_id ~ts:(Crypto.Secret.timestamp ~now) ~action)
      in
      Int64.equal tok.Wire.Nf_feedback.nf_mac expect
      && Netfence.Router.validate r ~now:(now +. 0.5) tok ~src = Some action)

let router_id_must_fit () =
  let sim = Sim.create () in
  List.iter
    (fun router_id ->
      match Netfence.Router.create ~secret_master:"k" ~router_id ~sim ~link_bps:10e6 () with
      | _ -> Alcotest.failf "router id %d accepted" router_id
      | exception Invalid_argument _ -> ())
    [ -1; 0x1_0000_0000 ];
  (* A presented token naming such an id, or a timestamp past 8 bits,
     cannot have been minted: rejected, not hashed truncated. *)
  let _sim, r = make_router () in
  let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Incr in
  List.iter
    (fun forged ->
      Alcotest.(check (option action)) "overflowing field rejected" None
        (Netfence.Router.validate r ~now:1.2 forged ~src))
    [
      { tok with Wire.Nf_feedback.nf_router = tok.Wire.Nf_feedback.nf_router + 0x1_0000_0000 };
      { tok with Wire.Nf_feedback.nf_ts = tok.Wire.Nf_feedback.nf_ts + 256 };
    ]

(* Minting and validating a token hash a packed preimage under key words
   loaded once per epoch key; per pair they allocate the token, its boxed
   MAC and the boxed SipHash arguments and results.  Measured 2026-10-18:
   31.0 words per mint + validate pair (33.0 while the validating secret
   came back in a [Some]), against 1389 for the ["nf|%d|%d|%d|%d"] string
   preimage this replaced. *)
let mint_validate_allocation_budget () =
  let budget = 40. in
  let _sim, r = make_router () in
  let one i =
    let src = Wire.Addr.of_int (0x0a000000 + (i land 0xffff)) in
    let tok = Netfence.Router.mint r ~now:1. ~src Wire.Nf_feedback.Decr in
    if Netfence.Router.validate r ~now:1.2 tok ~src = None then Alcotest.fail "own token rejected"
  in
  for i = 1 to 100 do
    one i
  done;
  let iters = 20_000 in
  Gc.full_major ();
  let words0 = Gc.minor_words () in
  for i = 1 to iters do
    one i
  done;
  let per_call = (Gc.minor_words () -. words0) /. float_of_int iters in
  if per_call > budget then
    Alcotest.failf "netfence mint + validate allocates %.2f minor words (budget %g)" per_call
      budget

(* The access router keeps one policing entry per sender.  When the
   sender's feedback moves to another bottleneck the entry moves with it:
   still one entry, and the same policer, so the rate Decr'd under the
   first bottleneck keeps growing from there under the second. *)
let bottleneck_migration_keeps_one_limiter () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let sink _node ~in_link:_ _p = () in
  let dst = Wire.Addr.of_int 0xc0a80001 in
  let a = Net.add_node ~addr:src ~name:"a" net sink in
  let access = Net.add_node ~name:"access" net sink in
  let b = Net.add_node ~addr:dst ~name:"b" net sink in
  let connect x y =
    ignore
      (Net.duplex net x y ~bandwidth_bps:10e6 ~delay:0.001 ~qdisc:(fun () ->
           Netfence.Router.make_qdisc ~bandwidth_bps:10e6))
  in
  connect a access;
  connect access b;
  Net.compute_routes net;
  let link_bps = 10e6 in
  let r = Netfence.Router.create ~secret_master:"k" ~router_id:1 ~sim ~link_bps () in
  Net.set_handler access (Netfence.Router.handler r);
  let bottleneck id = Netfence.Router.create ~secret_master:"k" ~router_id:id ~sim ~link_bps () in
  let b7 = bottleneck 7 and b9 = bottleneck 9 in
  let send_at time token =
    ignore
      (Sim.schedule_at sim ~time (fun () ->
           let nf =
             match token with
             | None -> Wire.Nf_feedback.empty ()
             | Some (minter, act) ->
                 Wire.Nf_feedback.with_token (Netfence.Router.mint minter ~now:time ~src act)
           in
           Net.originate a (Wire.Packet.make ~nf ~src ~dst ~created:time (Wire.Packet.Raw 100))))
  in
  let rate_after time =
    Sim.run ~until:time sim;
    Alcotest.(check int) "one entry per sender" 1 (Netfence.Router.sender_count r);
    match Netfence.Router.sender_rates r with
    | [ (s, rate) ] when Wire.Addr.equal s src -> rate
    | _ -> Alcotest.fail "expected exactly the one sender"
  in
  let p = Netfence.Router.default_params in
  let initial = p.Netfence.Router.initial_fraction *. link_bps in
  send_at 0. None;
  send_at 0.1 (Some (b7, Wire.Nf_feedback.Decr));
  Alcotest.(check (float 1e-6)) "starts at the initial rate" initial (rate_after 0.2);
  (* Feedback now names router 9; the interval's Decr from 7 still wins. *)
  send_at 0.3 (Some (b9, Wire.Nf_feedback.Incr));
  let halved = initial *. p.Netfence.Router.decr_factor in
  Alcotest.(check (float 1e-6)) "Decr applied" halved (rate_after 0.4);
  send_at 0.6 (Some (b9, Wire.Nf_feedback.Incr));
  Alcotest.(check (float 1e-6)) "Incr grows the same limiter"
    (halved +. (p.Netfence.Router.incr_fraction *. link_bps))
    (rate_after 0.7)

(* Two senders flooding through a shared bottleneck, the second joining
   late from the small initial rate: AIMD must pull their policed rates
   within 10% of each other (Chiu-Jain), i.e. fairness is enforced at the
   access router regardless of how fast either host transmits. *)
let aimd_converges_to_equal_rates () =
  let sim = Sim.create ~seed:3 () in
  let topo =
    Topology.dumbbell ~n_users:0 ~n_attackers:2
      ~make_qdisc:(fun ~bandwidth_bps -> Netfence.Router.make_qdisc ~bandwidth_bps)
      sim
  in
  let router node =
    let r =
      Netfence.Router.create ~secret_master:"k" ~router_id:(Net.node_id node) ~sim
        ~link_bps:10e6 ()
    in
    Net.set_handler node (Netfence.Router.handler r);
    r
  in
  let left = router topo.Topology.left in
  let _right = router topo.Topology.right in
  let _dst_host = Netfence.Host.create ~auto_reply:true ~node:topo.Topology.destination () in
  let start_flood host ~at =
    let h = Netfence.Host.create ~node:host () in
    let rec send () =
      (* 1000 B / 1 ms = 8 Mb/s offered per sender, far above fair share. *)
      Netfence.Host.send_raw h ~dst:Topology.destination_addr ~bytes:1000;
      ignore (Sim.schedule sim ~delay:0.001 send)
    in
    ignore (Sim.schedule_at sim ~time:at send)
  in
  start_flood topo.Topology.attackers.(0) ~at:0.;
  start_flood topo.Topology.attackers.(1) ~at:10.;
  Sim.run ~until:60. sim;
  match Netfence.Router.sender_rates left with
  | [ (_, r1); (_, r2) ] ->
      let hi = Float.max r1 r2 and lo = Float.min r1 r2 in
      Alcotest.(check bool)
        (Printf.sprintf "rates within 10%% (%.0f vs %.0f bps)" r1 r2)
        true
        ((hi -. lo) /. hi <= 0.10);
      Alcotest.(check bool)
        (Printf.sprintf "combined rate tracks the bottleneck (%.0f bps)" (r1 +. r2))
        true
        (r1 +. r2 <= 1.3 *. 10e6 && r1 +. r2 >= 2e6);
      Alcotest.(check bool) "overload was policed" true (Netfence.Router.policed left > 0)
  | rates -> Alcotest.failf "expected 2 policed senders, got %d" (List.length rates)

let suite =
  [
    Alcotest.test_case "feedback MAC roundtrip" `Quick mac_roundtrip;
    Alcotest.test_case "forgery rejected" `Quick forgery_rejected;
    Alcotest.test_case "shared master cross-validates" `Quick shared_master_validates_across_routers;
    Alcotest.test_case "rotation invalidates" `Quick rotate_invalidates;
    QCheck_alcotest.to_alcotest packed_mac_matches_string_preimage;
    Alcotest.test_case "router id must fit" `Quick router_id_must_fit;
    Alcotest.test_case "mint+validate allocation" `Quick mint_validate_allocation_budget;
    Alcotest.test_case "bottleneck migration" `Quick bottleneck_migration_keeps_one_limiter;
    Alcotest.test_case "aimd converges" `Quick aimd_converges_to_equal_rates;
  ]
