(** SIFF router behaviour, as the TVA paper models it for comparison
    (Sec. 2 and 5):

    - every router stamps explorer (EXP) packets with a short marking —
      {!Wire.Siff_marking.bits_per_router} bits derived from a rotating
      secret and the packet's addresses;
    - EXP packets and legacy traffic share the {e low} priority class
      (SIFF's central weakness: request floods and data floods hit the
      same queue);
    - data (DTA) packets whose marking verifies go to the high-priority
      class; DTA packets that fail verification are dropped;
    - routers keep no per-flow state, so there is no byte limit, no
      per-destination balancing, and revocation only happens when the
      router secret rotates (every [rotation_period] seconds; Fig. 11 uses
      3 s).  A marking is accepted for the current or previous secret
      epoch. *)

type t

val create :
  ?rotation_period:float ->
  secret_master:string ->
  router_id:int ->
  sim:Sim.t ->
  unit ->
  t

val default_rotation_period : float
(** 128 s, matching TVA's secret rotation for the non-Fig.-11 scenarios. *)

val marking_bits : t -> now:float -> src:Wire.Addr.t -> dst:Wire.Addr.t -> int
(** The marking this router would stamp right now (exposed for tests and
    the brute-force ablation). *)

val verify : t -> now:float -> src:Wire.Addr.t -> dst:Wire.Addr.t -> bits:int -> bool
(** Whether [bits] is this router's marking for the pair under the current
    or the previous secret epoch — the check a DTA packet must pass. *)

val handler : t -> Net.handler
(** Stamps EXP packets, verifies DTA packets (dropping failures), forwards
    the rest. *)

val make_qdisc : bandwidth_bps:float -> Qdisc.t
(** The two-class priority scheduler: verified DTA above EXP + legacy. *)

val dropped_dta : t -> int
val rotation_period : t -> float
