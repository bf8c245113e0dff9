(** The simulated network: per-link FIFO, with configurable base delay
    and jitter. Delays on different links are independent, so a COMMIT
    can overtake a PREPARE from a different sender (§5.3).

    Reliable by default; {!faults} opts into seed-deterministic message
    loss and duplication and into gray (slow) sites, and {!mark_down}
    makes a destination unreachable (deliveries to it are counted
    drops). With {!no_faults} and no down sites, runs are
    byte-identical to the fault-free network at the same seed. *)

open Hermes_kernel

type faults = {
  drop : float;  (** per-message drop probability *)
  dup : float;  (** per-message duplication probability *)
  gray_sites : int list;
      (** gray-failed sites: alive and reachable, but every message to or
          from their agent runs [gray_factor] times slower — slow enough
          to strand in-doubt participants, never slow enough to trip
          crash detection. Does not make the network {!lossy}. *)
  gray_factor : int;  (** delay multiplier on gray-site links *)
}

val no_faults : faults
(** Both probabilities zero, no gray sites: the reliable network. *)

type config = { base_delay : int; jitter : int; faults : faults }

val default_config : config
(** [{ base_delay = 500; jitter = 200; faults = no_faults }] *)

type t

type fabric = {
  here : int;  (** this network instance's shard *)
  locate : Wire.address -> int;  (** owning shard of an address *)
  forward : shard:int -> arrival:Time.t -> Wire.t -> unit;
      (** hand the message to the destination shard's inbox; that shard
          later calls {!deliver_remote} on its own network instance *)
}
(** Sharded execution (one network instance per site, each on its own
    domain): a send whose destination lives on another shard draws its
    delay and per-link FIFO clamp locally — that state is keyed by
    sender, so it stays shard-exclusive — then crosses via [forward]
    instead of being scheduled on the local engine. *)

val create :
  engine:Hermes_sim.Engine.t ->
  rng:Rng.t ->
  ?obs:Hermes_obs.Obs.t ->
  ?fabric:fabric ->
  config:config ->
  unit ->
  t
(** With [?obs]: per-message delays feed a [net.delay] histogram; a
    message due to arrive before an earlier-sent one to the same
    destination (the §5.3 cross-link race) bumps [net.overtakes] and
    emits an {!Hermes_obs.Tracer.Overtaking} event per overtaken
    message; drops and duplicates emit
    {!Hermes_obs.Tracer.Message_dropped} /
    {!Hermes_obs.Tracer.Message_duplicated}. Only then does the network
    keep a record of each in-flight message ({!in_flight}); without
    [?obs] it keeps none, since nothing else reads them.

    The per-link FIFO state holds a link only while its clamp can still
    move an arrival: once the link's last arrival is in the engine's
    past it can not, and the entry is swept out the next time the table
    has doubled ({!links}). Either way delivery order and times are the
    same. *)

val deliver_remote : t -> arrival:Time.t -> Wire.t -> unit
(** Destination-side intake for a message forwarded over the {!fabric}:
    with [?obs], registers it in flight (overtake accounting is against
    this shard's inbound traffic only); then schedules its delivery at
    [arrival] on this instance's engine. Call only from the owning shard,
    with [arrival] not in this engine's past — guaranteed by the
    conservative window bound. *)

val register : t -> Wire.address -> (Wire.t -> unit) -> unit
val unregister : t -> Wire.address -> unit

val send : t -> src:Wire.address -> dst:Wire.address -> gid:int -> Wire.payload -> unit
(** Raises if the destination has no registered handler at delivery time
    and the {!set_responder} responder does not answer for it — unless it
    is {!is_down}, in which case the delivery is a counted drop. *)

val set_responder : t -> (Wire.t -> bool) -> unit
(** Deliver messages to addresses with no registered handler to the
    responder: it returns [true] once it has handled the message, [false]
    for an address it does not answer for (the delivery then raises as
    without it). Consulted only after the down check, so a message to a
    down address is a counted drop either way. Replaces any earlier
    responder. *)

val mark_down : t -> Wire.address -> unit
(** Make [addr] unreachable: messages delivered to it (including ones
    already in flight) are counted drops. Marks the network {!lossy}. *)

val mark_up : t -> Wire.address -> unit

val set_down_rule : t -> (Wire.address -> bool) -> unit
(** Make every address the rule accepts down as well, as if marked: for
    a set of addresses too large to mark one by one and cheap to
    describe (a crashed site's coordinators and acceptors, by gid). The
    rule replaces any earlier one and is consulted at every delivery
    while no mark applies, so it must be cheap; it does not mark the
    network {!lossy}. *)

val is_down : t -> Wire.address -> bool
(** Marked with {!mark_down}, or accepted by the {!set_down_rule} rule. *)

val set_gray_rule : t -> (Wire.address -> bool) -> unit
(** Gray-fail every coordinator or acceptor address the rule accepts:
    its links slow down by [faults.gray_factor] but deliver everything,
    so the network stays non-{!lossy} and crash detection never fires.
    For addresses whose hosting site the address does not name — e.g. a
    coordinator hosted at a gray site. Agent addresses are gray iff
    listed in [faults.gray_sites]. The rule replaces any earlier one and
    is consulted on every send of a configuration with a gray factor, so
    it must be cheap. *)

val assume_lossy : t -> unit
(** Declare that deliveries may fail even though the static fault config
    says otherwise (e.g. sites will be marked down later in the run). *)

val lossy : t -> bool
(** True once messages can fail to be delivered: the fault config drops,
    a site has been {!mark_down}, or {!assume_lossy} was called. Protocol
    layers consult this before arming loss-recovery timers, so reliable
    runs stay byte-identical. *)

val sent : t -> int
val delivered : t -> int

val dropped : t -> int
(** Messages lost to the drop coin or to delivery to a down
    destination. *)

val duplicated : t -> int

val links : t -> int
(** Links whose FIFO state this instance holds: those whose last
    arrival is not yet past, plus those gone stale since the last sweep.
    It grows with the links that carry traffic at the same time, not
    with every link the run has used. *)

val handlers : t -> int
(** Addresses with a registered handler. *)

val in_flight : t -> int
(** In-flight records held for overtake accounting: messages this
    instance has scheduled for delivery (sent locally or forwarded to it)
    whose delivery has not yet fired. Always 0 without [?obs]. *)
