(* The benchmark's workloads: each is a fixed list of simulation cells (one
   [Experiment.run] or [Scale.run] each) built from the workload seed.
   Simulated users run a closed loop (a user starts its next transfer when
   the last one ends); attackers run an open loop at a fixed 1 Mb/s each. *)

open Workload

type outcome = {
  fraction_completed : float;
  avg_transfer_time : float;
  events : int;
  sim_end : float;
  attempted : int;
  completed : int;
  aborted : int;
}

type cell = {
  label : string;
  users : int;
  transfers : int;  (** per user *)
  max_time : float;
  run : (Scheme.factory -> Scheme.factory) -> outcome;
      (** runs the cell with its scheme factory passed through the given
          wrapper ([Fun.id] for a plain run) *)
}

type workload = { name : string; cells : int -> cell list }

let default_seed = 1
let attack_bps = 1e6

let scheme name =
  match List.assoc_opt name Scenario.schemes with
  | Some f -> f
  | None -> invalid_arg ("perfbench: unknown scheme " ^ name)

let of_metrics m ~events ~sim_end =
  {
    fraction_completed = Metrics.fraction_completed m;
    avg_transfer_time = Metrics.avg_transfer_time m;
    events;
    sim_end;
    attempted = Metrics.attempted m;
    completed = Metrics.completed m;
    aborted = Metrics.aborted m;
  }

let dumbbell_cell ~seed ~scheme_name ~factory ~attack ~attack_name ~attackers ~transfers ~max_time =
  let base = Experiment.default in
  {
    label = Printf.sprintf "%s/%s@%d" scheme_name attack_name attackers;
    users = base.Experiment.n_users;
    transfers;
    max_time;
    run =
      (fun wrap ->
        let r =
          Experiment.run
            {
              base with
              Experiment.scheme = wrap factory;
              n_attackers = attackers;
              attack;
              transfers_per_user = transfers;
              max_time;
              seed;
            }
        in
        of_metrics r.Experiment.metrics ~events:r.Experiment.events ~sim_end:r.Experiment.sim_end);
  }

(* The Fig. 8 grid users regenerate most: the bottleneck queue is full of
   legacy flood packets, so agents, link transmit and the qdisc dominate
   and no packet takes a capability path. *)
let legacy_grid seed =
  List.concat_map
    (fun (name, factory) ->
      List.map
        (fun attackers ->
          dumbbell_cell ~seed ~scheme_name:name ~factory
            ~attack:(Experiment.Legacy_flood { rate_bps = attack_bps })
            ~attack_name:"legacy" ~attackers ~transfers:50 ~max_time:30.)
        [ 1; 10; 40; 100 ])
    Scenario.paper_schemes

(* Every packet takes a capability path.  Request floods write state (TVA
   mints pre-capabilities behind its request-channel token bucket, SIFF
   marks explorers); authorized floods read it (TVA validates nonces
   against the flow cache, NetFence checks a feedback MAC and polices
   every packet).  Users ask for more transfers than fit in the run, so
   every cell floods for the whole [max_time] and its work does not hinge
   on when the last transfer happens to finish. *)
let capability_flood_attackers = 10

let capability_flood seed =
  List.concat_map
    (fun name ->
      List.map
        (fun (attack_name, attack) ->
          dumbbell_cell ~seed ~scheme_name:name ~factory:(scheme name) ~attack ~attack_name
            ~attackers:capability_flood_attackers ~transfers:1000 ~max_time:20.)
        [
          ("request", Experiment.Request_flood { rate_bps = attack_bps });
          ("authorized", Experiment.Authorized_flood { rate_bps = attack_bps });
        ])
    [ "tva"; "siff"; "netfence" ]

(* 100k swarm senders with one timer each: the only workload with ~10^5
   pending events (the timing wheel is auto-selected) and a set-up phase
   that is not negligible. *)
let scale_fanin seed =
  let cfg =
    {
      Scale.default with
      Scale.sc_senders = 100_000;
      sc_aggregates = 16;
      sc_swarm_mode = Swarm.Independent;
      sc_transfers_per_user = 50;
      sc_max_time = 30.;
      sc_seed = seed;
    }
  in
  [
    {
      label = "tva/fanin-3x4@100000";
      users = cfg.Scale.sc_n_users;
      transfers = cfg.Scale.sc_transfers_per_user;
      max_time = cfg.Scale.sc_max_time;
      run =
        (fun wrap ->
          let r = Scale.run { cfg with Scale.sc_scheme = wrap cfg.Scale.sc_scheme } in
          of_metrics r.Scale.sr_metrics ~events:r.Scale.sr_events ~sim_end:r.Scale.sr_sim_end);
    };
  ]

let workloads =
  [
    { name = "legacy-grid"; cells = legacy_grid };
    { name = "capability-flood"; cells = capability_flood };
    { name = "scale-fanin"; cells = scale_fanin };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Conservation: every attempted transfer completed, aborted, or was still
   in flight at the cutoff — at most one per closed-loop user, and none
   when the run stopped early because every user finished. *)
let conserved c o =
  let unfinished = o.attempted - o.completed - o.aborted in
  unfinished >= 0
  && unfinished <= c.users
  && o.attempted <= c.users * c.transfers
  && (o.sim_end >= c.max_time || (unfinished = 0 && o.attempted = c.users * c.transfers))
  && o.events > 0

(* Bit for bit, except that any NaN (the average of no completed
   transfers) equals any other. *)
let same_float a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same a b =
  same_float a.fraction_completed b.fraction_completed
  && same_float a.avg_transfer_time b.avg_transfer_time
  && same_float a.sim_end b.sim_end
  && a.events = b.events && a.attempted = b.attempted && a.completed = b.completed
  && a.aborted = b.aborted

let pp_outcome o =
  Printf.sprintf "{ fraction_completed = %h; avg_transfer_time = %h; events = %d; sim_end = %h; attempted = %d; completed = %d; aborted = %d }"
    o.fraction_completed o.avg_transfer_time o.events o.sim_end o.attempted o.completed o.aborted
