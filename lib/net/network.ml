(* The simulated network.

   The paper assumes messages are not corrupted, lost or reordered; by
   default we keep per-(src, dst) FIFO order and reliability, but delays
   between *different* links are independent — so a COMMIT from one
   coordinator can overtake a PREPARE from another at the same agent, the
   race §5.3's prepare-certification extension exists to survive.

   Opt-in fault injection relaxes the reliability assumption: messages
   can be dropped or duplicated (per-message coin flips) or slowed on a
   gray site's links; a destination can be marked down so deliveries to
   it are counted drops instead of reaching a handler. All faults are
   driven by the network's own seeded RNG — and every fault coin is
   guarded by its probability being positive, so a fault-free
   configuration draws exactly the pre-fault sequence and runs are
   byte-identical to a build without this file's fault paths. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Obs = Hermes_obs.Obs
module Tracer = Hermes_obs.Tracer
module Registry = Hermes_obs.Registry
module Histogram = Hermes_obs.Histogram

let src = Logs.Src.create "hermes.net" ~doc:"Simulated network traffic"

module Log = (val Logs.src_log src : Logs.LOG)

(* Whether [Log.debug] would print: checked before building the
   message's closure, which the per-message paths would otherwise
   allocate on every send. *)
let debug () = Logs.Src.level src = Some Logs.Debug

type faults = {
  drop : float;  (* per-message drop probability *)
  dup : float;  (* per-message duplication probability *)
  gray_sites : int list;
      (* gray-failed sites: every message to or from their agent runs
         [gray_factor] times slower, but nothing is ever lost — the
         failure detector never fires, only timeouts can save you *)
  gray_factor : int;  (* delay multiplier on gray-site links *)
}

let no_faults = { drop = 0.; dup = 0.; gray_sites = []; gray_factor = 1 }

type config = {
  base_delay : int;  (* ticks every message takes *)
  jitter : int;  (* additional uniform [0, jitter] ticks *)
  faults : faults;
}

let default_config = { base_delay = 500; jitter = 200; faults = no_faults }

type fabric = {
  here : int;  (* this network instance's shard *)
  locate : Wire.address -> int;  (* owning shard of an address *)
  forward : shard:int -> arrival:Time.t -> Wire.t -> unit;
      (* hand a message to a remote shard's inbox; the owning shard calls
         [deliver_remote] on its own network when it drains *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  fabric : fabric option;
  (* Tables keyed by {!Wire.address_key} (and the link table by
     {!Wire.link_key}): they are consulted on every send and every
     delivery. None of them is iterated in an order that matters. *)
  handlers : (Wire.t -> unit) Int_tbl.t;
  last_delivery : Time.t ref Int_tbl.t;
      (* per link: the arrival of its last message, while that is not yet
         past (see [prune_links]); a cell, so a send updates it in place *)
  mutable prune_at : int;  (* sweep [last_delivery] when it holds this many *)
  in_flight : (Time.t * int) list Int_tbl.t option;
      (* with [obs] only, per destination: every in-flight (arrival, gid),
         purged on delivery, for overtaking detection (the §5.3 race is
         cross-link, so per-link FIFO does not prevent it) *)
  down : unit Int_tbl.t;
  mutable down_rule : Wire.address -> bool;
      (* addresses down without a mark of their own (see [set_down_rule]) *)
  mutable gray_rule : Wire.address -> bool;
      (* gray addresses whose host site the address does not name (see
         [set_gray_rule]); agent addresses are matched statically against
         [faults.gray_sites] *)
  mutable responder : Wire.t -> bool;
      (* deliveries to an address with no handler (see [set_responder]) *)
  obs : Obs.t option;
  delay_hist : Histogram.t option;
  overtakes : Registry.Counter.t option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable lossy : bool;
      (* sticky: true once messages can fail to be delivered, so protocol
         layers know to arm loss-recovery timers (which would perturb
         determinism on a reliable run) *)
}


(* The size at which the link table is first swept, and below which it
   never is. *)
let links_floor = 64

let create ~engine ~rng ?obs ?fabric ~config () = {
  engine;
  rng;
  config;
  fabric;
  handlers = Int_tbl.create 32;
  last_delivery = Int_tbl.create links_floor;
  prune_at = links_floor;
  in_flight = Option.map (fun _ -> Int_tbl.create 32) obs;
  down = Int_tbl.create 4;
  down_rule = (fun _ -> false);
  gray_rule = (fun _ -> false);
  responder = (fun _ -> false);
  obs;
  delay_hist = Option.map (fun o -> Registry.histogram (Obs.metrics o) "net.delay") obs;
  overtakes = Option.map (fun o -> Registry.counter (Obs.metrics o) "net.overtakes") obs;
  sent = 0;
  delivered = 0;
  dropped = 0;
  duplicated = 0;
  lossy = config.faults.drop > 0.;
}

let register t addr handler = Int_tbl.replace t.handlers (Wire.address_key addr) handler
let unregister t addr = Int_tbl.remove t.handlers (Wire.address_key addr)

let assume_lossy t = t.lossy <- true
let lossy t = t.lossy

let mark_down t addr =
  t.lossy <- true;
  Int_tbl.replace t.down (Wire.address_key addr) ()

let mark_up t addr = Int_tbl.remove t.down (Wire.address_key addr)
let set_down_rule t rule = t.down_rule <- rule

let down_at t addr ~key = (Int_tbl.length t.down > 0 && Int_tbl.mem t.down key) || t.down_rule addr
let is_down t addr = down_at t addr ~key:(Wire.address_key addr)

(* Gray failure: [addr]'s links slow down by [gray_factor] but nothing is
   lost, so — unlike [mark_down] — the network stays non-lossy and no
   loss-recovery timers arm. *)
let set_gray_rule t rule = t.gray_rule <- rule

let is_gray t addr =
  match addr with
  | Wire.Agent s -> List.mem (Site.to_int s) t.config.faults.gray_sites
  | Wire.Coordinator _ | Wire.Acceptor _ -> t.gray_rule addr

let set_responder t responder = t.responder <- responder

let count_drop t ~at ~dst ~gid ~reason =
  t.dropped <- t.dropped + 1;
  Obs.emit t.obs ~at (fun () ->
      Tracer.Message_dropped { dst = Fmt.str "%a" Wire.pp_address dst; gid; reason })

(* Remove one in-flight record (the delivered copy); identical tuples are
   interchangeable, so removing the first match is enough. *)
let purge_in_flight in_flight dkey ~arrival ~gid =
  match Int_tbl.find_opt in_flight dkey with
  | None -> ()
  | Some l ->
      let rec drop_one = function
        | [] -> []
        | (a, g) :: rest when Time.equal a arrival && Int.equal g gid -> rest
        | e :: rest -> e :: drop_one rest
      in
      (match drop_one l with
      | [] -> Int_tbl.remove in_flight dkey
      | l' -> Int_tbl.replace in_flight dkey l')

(* Account overtaking against every in-flight message to the same
   destination, then record this one in flight. *)
let account_overtakes t in_flight ~now ~dst ~dkey ~gid ~arrival =
  let inbound = Option.value (Int_tbl.find_opt in_flight dkey) ~default:[] in
  List.iter
    (fun (behind_arrival, behind_gid) ->
      if Time.(behind_arrival > arrival) then begin
        (match t.overtakes with Some c -> Registry.Counter.incr c | None -> ());
        Obs.emit t.obs ~at:now (fun () ->
            Tracer.Overtaking { dst = Fmt.str "%a" Wire.pp_address dst; gid; behind_gid })
      end)
    inbound;
  Int_tbl.replace in_flight dkey ((arrival, gid) :: inbound)

(* Destination-side intake: account overtaking (with [obs] only: nothing
   else reads the in-flight records) and schedule the delivery (which
   re-checks the down set — a message in flight when its destination goes
   down is lost). Runs on the destination's engine: directly from
   [transmit] when the destination is local, via [deliver_remote] when it
   arrived over the fabric. [dkey] is the destination's address key. *)
let intake t msg ~dkey ~arrival =
  let { Wire.dst; gid; _ } = msg in
  let now = Engine.now t.engine in
  (match t.in_flight with
  | Some in_flight -> account_overtakes t in_flight ~now ~dst ~dkey ~gid ~arrival
  | None -> ());
  if debug () then Log.debug (fun m -> m "[%a] %a (delivery %a)" Time.pp now Wire.pp msg Time.pp arrival);
  Engine.schedule_unit t.engine ~delay:(Time.diff arrival now) (fun () ->
      (match t.in_flight with
      | Some in_flight -> purge_in_flight in_flight dkey ~arrival ~gid
      | None -> ());
      if down_at t dst ~key:dkey then count_drop t ~at:arrival ~dst ~gid ~reason:"down"
      else begin
        t.delivered <- t.delivered + 1;
        match Int_tbl.find_opt t.handlers dkey with
        | Some handler -> handler msg
        | None ->
            if not (t.responder msg) then
              Fmt.failwith "Network.send: no handler for %a (message %a)" Wire.pp_address dst
                Wire.pp msg
      end)

let deliver_remote t ~arrival msg = intake t msg ~dkey:(Wire.address_key msg.Wire.dst) ~arrival

(* A link's clamp only ever moves an arrival that is not after the
   link's last one, and every arrival is at or after [now]: an entry with
   [last < now] can never clamp again. Sweeping those out each time the
   table doubles keeps it at about the links with traffic in flight, not
   every (coordinator, site) link of the run, at amortized constant cost
   per send. *)
let prune_links t ~now =
  Int_tbl.filter_map_inplace
    (fun _ last -> if Time.(!last < now) then None else Some last)
    t.last_delivery;
  t.prune_at <- max links_floor (2 * Int_tbl.length t.last_delivery)

(* Put one copy of [msg] on the wire: draw its delay, clamp to per-link
   FIFO, then either hand it to the local intake or forward it to the
   destination's shard. Sender-side state (the delay RNG and the FIFO
   clamp) is keyed on this instance, so it stays shard-exclusive under
   the fabric. *)
let transmit t msg ~now =
  let { Wire.src; dst; _ } = msg in
  let faults = t.config.faults in
  let delay =
    t.config.base_delay + if t.config.jitter > 0 then Rng.int t.rng ~bound:(t.config.jitter + 1) else 0
  in
  (* Gray links: a deterministic multiplier, no extra RNG draw — a
     gray-free configuration transmits byte-identically. *)
  let delay =
    if faults.gray_factor > 1 && (is_gray t src || is_gray t dst) then delay * faults.gray_factor
    else delay
  in
  (* Per-link FIFO: never deliver before the link's previous message.
     One lookup: a known link's cell is updated in place. *)
  let earliest = Time.add now delay in
  let dkey = Wire.address_key dst in
  let link = Wire.link_key ~src:(Wire.address_key src) ~dst:dkey in
  let arrival =
    match Int_tbl.find t.last_delivery link with
    | last ->
        let arrival = if Time.(!last >= earliest) then Time.add !last 1 else earliest in
        last := arrival;
        arrival
    | exception Not_found ->
        Int_tbl.add t.last_delivery link (ref earliest);
        if Int_tbl.length t.last_delivery >= t.prune_at then prune_links t ~now;
        earliest
  in
  (match t.delay_hist with Some h -> Histogram.record h (Time.diff arrival now) | None -> ());
  match t.fabric with
  | Some f when f.locate dst <> f.here ->
      if debug () then
        Log.debug (fun m ->
            m "[%a] %a (forward to shard %d, delivery %a)" Time.pp now Wire.pp msg (f.locate dst)
              Time.pp arrival);
      f.forward ~shard:(f.locate dst) ~arrival msg
  | _ -> intake t msg ~dkey ~arrival

let send t ~src ~dst ~gid payload =
  let msg = { Wire.src; dst; gid; payload } in
  t.sent <- t.sent + 1;
  let now = Engine.now t.engine in
  let faults = t.config.faults in
  if faults.drop > 0. && Rng.bool t.rng ~p:faults.drop then
    count_drop t ~at:now ~dst ~gid ~reason:"drop"
  else begin
    transmit t msg ~now;
    if faults.dup > 0. && Rng.bool t.rng ~p:faults.dup then begin
      t.duplicated <- t.duplicated + 1;
      Obs.emit t.obs ~at:now (fun () ->
          Tracer.Message_duplicated { dst = Fmt.str "%a" Wire.pp_address dst; gid });
      (* The copy rides the same per-link FIFO, so it arrives after the
         original (fresh delay draw, clamped past it). *)
      transmit t msg ~now
    end
  end

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let duplicated t = t.duplicated
let links t = Int_tbl.length t.last_delivery
let handlers t = Int_tbl.length t.handlers

let in_flight t =
  Option.fold ~none:0 ~some:(fun f -> Int_tbl.fold (fun _ l n -> n + List.length l) f 0) t.in_flight
