(* The assembled Distributed Transaction Manager: per-site LDBS (database
   + LTM + failure injector + 2PC Agent) and a coordinator factory. This
   is the "totally decentralized" architecture of Fig. 1 — the only shared
   pieces here are simulation infrastructure (engine, network, trace), not
   protocol state. Which engine runs a site's events is an execution
   choice: the sites are spread over k execution shards.

   The coordinating site of a global transaction is its first
   participant; serial numbers are stamped by that site's (possibly
   drifting) clock plus a per-site sequence counter, exactly the
   clock-and-site-id scheme of §5.2. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Mailbox = Hermes_sim.Mailbox
module Parallel = Hermes_sim.Parallel
module Alive_table = Hermes_protocol.Alive_table
module Database = Hermes_store.Database
module Ltm = Hermes_ltm.Ltm
module Failure = Hermes_ltm.Failure
module Trace = Hermes_ltm.Trace
module Network = Hermes_net.Network
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry
module Shard_map = Hermes_placement.Shard_map
module Agent_sm = Hermes_protocol.Agent_sm
module Agent_log = Hermes_protocol.Agent_log
module Coordinator_log = Hermes_protocol.Coordinator_log

type site_spec = {
  ltm_config : Hermes_ltm.Ltm_config.t;
  clock : Clock.t;
  failure : Failure.config;
}

let default_site_spec =
  { ltm_config = Hermes_ltm.Ltm_config.default; clock = Clock.perfect; failure = Failure.disabled }

(* An execution shard: one engine, one network instance, one trace and
   one observability context, hosting sites [x, x + k, x + 2k, ...] of a
   k-shard assembly. One shard is the sequential engine; one per site is
   the windowed engine, whose shards may each run on their own domain.
   Shards share no mutable state: cross-shard messages go through
   [inbox], and each shard's gids and placement bookkeeping are its own. *)
type exec_shard = {
  engine : Engine.t;
  net : Network.t;
  trace : Trace.t;
  obs : Obs.t option;
  inbox : Wire.t Mailbox.t;  (* cross-shard arrivals, drained between windows *)
  mutable gid_ctr : int;  (* shard x allocates gids x+1, x+1+k, x+1+2k, ... *)
  mutable coord_sites : int array;
      (* [coord_sites.(c)], for c < gid_ctr: the coordinating site of the
         shard's c-th gid, x + 1 + k * c — where its coordinator lives *)
  shard_gids : int list Int_tbl.t;
      (* in-flight gid coordinated here -> placement shards it touches
         (when [submit] was told); lets [reconfigure] hand over only the
         moved shard's state *)
  foreign : Site.t Int_tbl.t;
      (* gid coordinated here -> gainer sites holding adopted (foreign)
         alive-table entries for it; released when the gid's decision lands *)
}

type site_ctx = {
  site : Site.t;
  exec : exec_shard;  (* the shard this site's components run on *)
  db : Database.t;
  ltm : Ltm.t;
  agent : Agent.t;
  clog : Coordinator_log.t;  (* the site's stable coordinator log *)
  acceptors : Acceptor.t option;
      (* host for the decision-register acceptors placed at this site;
         present only under a replicated commit protocol *)
  batcher : Group_commit.t option;  (* the site's shared group-commit batcher *)
  clock : Clock.t;
  injector : Failure.t;
  mutable sn_seq : int;
  mutable down : bool;  (* crashed, reboot pending *)
  mutable down_below : int;
      (* while down: how many gids the site's shard had handed out at the
         crash. The coordinators and acceptors hosted here for those gids
         are down with the site; later ones stay reachable. 0 when up. *)
  mutable hosted : Coordinator.t list;
      (* with [crash_coordinators]: the coordinators this site hosts,
         newest first, less those seen finished at a crash *)
  mutable submitted : int;
}

type t = {
  certifier : Config.t;
  obs : Obs.t option;  (* the caller's; with k > 1 each shard records into its own *)
  crash_coordinators : bool;
      (* [crash_site] also crashes the site's coordinators (and the
         agents run the termination protocol); off by default so earlier
         fault scenarios replay byte-identically *)
  execs : exec_shard array;
  sites : site_ctx array;
  placement : Shard_map.t ref;
      (* the installed shard map; agents sample its epoch per input and
         coordinators stamp it on BEGIN/EXEC, so a [reconfigure] turns
         every in-flight stale-epoch message into a WRONG-EPOCH refusal *)
}

(* Assemble one site's LDBS on its execution shard. *)
let make_ctx ~exec ~failure_rng ~certifier ~crash_coordinators ~epoch i spec =
  let site = Site.of_int i in
  let { engine; net; trace; obs; _ } = exec in
  let db = Database.create ~site in
  let ltm = Ltm.create ~engine ~db ~config:spec.ltm_config ~trace ?obs () in
  let agent =
    Agent.create ~site ~engine ~ltm ~net ~trace ?obs ~termination:crash_coordinators ~epoch
      ~config:certifier ()
  in
  Agent.attach agent;
  let injector = Failure.attach ~engine ~rng:failure_rng ~config:spec.failure ltm in
  let clog = Coordinator_log.create () in
  let acceptors =
    if Config.n_acceptors certifier > 0 then
      Some (Acceptor.create ~site ~engine ~net ?obs ~config:certifier ())
    else None
  in
  (* Group commit: one batcher per site, shared by every coordinator
     the site hosts; each flush pays a single force on the site's
     coordinator log. *)
  let batcher =
    if Config.group_commit certifier then
      Some
        (Group_commit.create ~engine ~window:certifier.Config.group_commit_window
           ~max_batch:certifier.Config.max_batch
           ~on_force:(fun () -> Coordinator_log.force_tick clog))
    else None
  in
  {
    site;
    exec;
    db;
    ltm;
    agent;
    clog;
    acceptors;
    batcher;
    clock = spec.clock;
    injector;
    sn_seq = 0;
    down = false;
    down_below = 0;
    hosted = [];
    submitted = 0;
  }

(* Address-to-shard routing. Agents live at their site's shard; a
   coordinator's shard is recoverable from its gid because [submit]
   strides gid allocation: shard [x] allocates [x + 1, x + 1 + k, ...].
   Only several shards route, and they refuse replicated protocols, so
   no acceptor address ever reaches here. *)
let locate ~n_exec = function
  | Wire.Agent s -> Site.to_int s mod n_exec
  | Wire.Coordinator gid -> (gid - 1) mod n_exec
  | Wire.Acceptor _ ->
      invalid_arg "Dtm.locate: acceptors run on one execution shard only"

(* The coordinating site of round [gid] if shard [here] of [n_exec]
   allocated it, else -1. Only the allocating shard knows the round: it
   alone delivers to the round's coordinator address. *)
let coord_site ~n_exec ~here x gid =
  if gid >= 1 && (gid - 1) mod n_exec = here && (gid - 1) / n_exec < x.gid_ctr then
    x.coord_sites.((gid - 1) / n_exec)
  else -1

(* The down rule of a shard's network: a coordinator or acceptor address
   is down iff its host site is down and the address was hosted there at
   the crash, i.e. its gid is below the site's watermark. Each shard hands
   out its gids in increasing order, so the shard's gid count at the crash
   separates the two. A coordinator lives at its gid's coordinating site,
   on the shard that allocated the gid; acceptor [idx] of [gid] at site
   [(gid + idx) mod n] — replicated protocols run on one shard, so there
   the count is global. Agent addresses are marked on the network
   instead. *)
let hosted_down ~sites ~crash_coordinators ~n_exec ~here x = function
  | Wire.Coordinator gid ->
      crash_coordinators
      &&
      let s = coord_site ~n_exec ~here x gid in
      s >= 0 && (gid - 1) / n_exec < sites.(s).down_below
  | Wire.Acceptor { gid; idx } -> gid - 1 < sites.((gid + idx) mod Array.length sites).down_below
  | Wire.Agent _ -> false

(* The gray rule of a shard's network: a coordinator hosted at a gray site
   inherits the site's slow links, on the shard that allocated its gid
   (its address names no site, so the rule finds it). Agents are matched
   by the network itself; acceptors are never gray. *)
let hosted_gray ~gray_sites ~n_exec ~here x = function
  | Wire.Coordinator gid -> List.mem (coord_site ~n_exec ~here x gid) gray_sites
  | Wire.Acceptor _ | Wire.Agent _ -> false

(* The responder of a shard's network: a round's coordinator leaves the
   network when its machine finishes ([submit]), and the coordinating
   site's log answers for it. An address that was never registered gets
   no answer, and its delivery fails. *)
let retired_responder ~sites ~n_exec ~here x (msg : Wire.t) =
  match msg.Wire.dst with
  | Wire.Coordinator gid ->
      let s = coord_site ~n_exec ~here x gid in
      s >= 0
      && Coordinator.answer_retired ~engine:x.engine ~net:x.net ~log:sites.(s).clog ~gid msg
  | Wire.Agent _ | Wire.Acceptor _ -> false

let create ~engines ~rng ~net_config ~certifier ?obs ?(crash_coordinators = false) ?n_shards
    ~site_specs () =
  let n = Array.length site_specs and k = Array.length engines in
  if k < 1 || k > n then invalid_arg "Dtm.create: one to n_sites engines required";
  if k > 1 && Config.n_acceptors certifier > 0 then
    invalid_arg "Dtm.create: replicated commit protocols run on one execution shard only";
  if Config.n_acceptors certifier > Wire.max_acceptors then
    invalid_arg "Dtm.create: more acceptors than the network can address";
  (* Every stream is split here, in this order: a shard's [net] stream
     just before its first site's [failure] stream, suffixed with the
     shard only when there are several. One shard splits net, failure-0,
     failure-1, ...; per-site shards split net-0, failure-0, net-1, ... *)
  let streams =
    Array.init n (fun i ->
        let net =
          if i >= k then None
          else Some (Rng.split rng ~label:(if k = 1 then "net" else Fmt.str "net-%d" i))
        in
        (net, Rng.split rng ~label:(Fmt.str "failure-%d" i)))
  in
  let inboxes = Array.init k (fun _ -> Mailbox.create ()) in
  let execs =
    Array.init k (fun x ->
        let engine = engines.(x) in
        let obs = if k = 1 then obs else Option.map (fun _ -> Obs.create ()) obs in
        let fabric =
          if k = 1 then None
          else
            let sent = ref 0 in
            Some
              {
                Network.here = x;
                locate = locate ~n_exec:k;
                forward =
                  (fun ~shard ~arrival msg ->
                    Mailbox.push inboxes.(shard) ~at:(Time.to_int arrival) ~src_shard:x
                      ~src_seq:!sent msg;
                    incr sent);
              }
        in
        {
          engine;
          net =
            Network.create ~engine ~rng:(Option.get (fst streams.(x))) ?obs ?fabric
              ~config:net_config ();
          trace = Trace.create ();
          obs;
          inbox = inboxes.(x);
          gid_ctr = 0;
          coord_sites = Array.make 64 0;
          shard_gids = Int_tbl.create 64;
          foreign = Int_tbl.create 16;
        })
  in
  let placement = ref (Shard_map.static ?n_shards ~n_sites:n ()) in
  let epoch () = Shard_map.epoch !placement in
  let sites =
    Array.mapi
      (fun i spec ->
        make_ctx ~exec:execs.(i mod k) ~failure_rng:(snd streams.(i)) ~certifier
          ~crash_coordinators ~epoch i spec)
      site_specs
  in
  let gray_sites = net_config.Network.faults.Network.gray_sites in
  Array.iteri
    (fun here x ->
      Network.set_down_rule x.net (hosted_down ~sites ~crash_coordinators ~n_exec:k ~here x);
      Network.set_gray_rule x.net (hosted_gray ~gray_sites ~n_exec:k ~here x);
      Network.set_responder x.net (retired_responder ~sites ~n_exec:k ~here x))
    execs;
  {
    certifier;
    obs;
    crash_coordinators;
    execs;
    sites;
    placement;
  }

let n_sites t = Array.length t.sites
let site_ids t = Array.to_list (Array.map (fun c -> c.site) t.sites)
let ctx t site = t.sites.(Site.to_int site)
let ltm t site = (ctx t site).ltm
let database t site = (ctx t site).db
let agent t site = (ctx t site).agent
let coordinator_log t site = (ctx t site).clog
let injector t site = (ctx t site).injector
let networks t = Array.to_list (Array.map (fun x -> x.net) t.execs)
let submitted t = Array.fold_left (fun acc c -> acc + c.submitted) 0 t.sites
let placement t = !(t.placement)

(* The shards as {!Parallel} runs them: a shard's inbox drains into its
   own network instance, which schedules each delivery on its engine. *)
let exec_shards t =
  Array.map
    (fun x ->
      {
        Parallel.engine = x.engine;
        drain =
          (fun () ->
            List.iter
              (fun (e : _ Mailbox.entry) ->
                Network.deliver_remote x.net ~arrival:(Time.of_int e.Mailbox.at) e.Mailbox.payload)
              (Mailbox.drain x.inbox));
      })
    t.execs

(* Serial number generation at a site: drifting clock reading + site id +
   per-site sequence (uniqueness even within one tick). *)
let sn_gen t site () =
  let c = ctx t site in
  c.sn_seq <- c.sn_seq + 1;
  Sn.make ~ts:(Clock.read c.clock ~real:(Engine.now c.exec.engine)) ~site:c.site ~seq:c.sn_seq

(* The stale-clock adversary: even-gid coordinators draw their serial
   numbers [sn_drift] ticks in the past, slotting the commit below serial
   numbers other sites may already have released. With [sn_drift = 0]
   this is [sn_gen] itself — no wrapper, no perturbation. *)
let adversarial_sn_gen t site ~gid =
  let drift = t.certifier.Config.adversary.Config.sn_drift in
  if drift > 0 && gid mod 2 = 0 then fun () ->
    let sn = sn_gen t site () in
    Sn.make ~ts:(Time.of_int (max 0 (Time.to_int sn.Sn.ts - drift))) ~site:sn.Sn.site ~seq:sn.Sn.seq
  else sn_gen t site

let submit ?gate ?shards t program ~on_done =
  let coord_site =
    match Program.sites program with s :: _ -> s | [] -> assert false (* Program.make forbids [] *)
  in
  let c = ctx t coord_site in
  let x = c.exec in
  (* Strided: shard x allocates x+1, x+1+k, x+1+2k, ... so [locate] can
     route Coordinator addresses without shared state; with one shard
     this is a global counter. *)
  let k = Array.length t.execs in
  let gid = (Site.to_int coord_site mod k) + 1 + (k * x.gid_ctr) in
  if x.gid_ctr = Array.length x.coord_sites then begin
    let grown = Array.make (2 * x.gid_ctr) 0 in
    Array.blit x.coord_sites 0 grown 0 x.gid_ctr;
    x.coord_sites <- grown
  end;
  x.coord_sites.(x.gid_ctr) <- Site.to_int coord_site;
  x.gid_ctr <- x.gid_ctr + 1;
  c.submitted <- c.submitted + 1;
  (* Replicated commit: bring up the round's decision register before
     the leader starts — the network fails fast on a send to an
     unregistered address, so every acceptor must exist before the
     leader's first PX-ACCEPT can race it. *)
  let n_acc = Config.n_acceptors t.certifier in
  for idx = 0 to n_acc - 1 do
    let host = t.sites.((gid + idx) mod Array.length t.sites) in
    match host.acceptors with
    | Some a -> Acceptor.host a ~gid ~idx
    | None -> assert false (* every site has a host when the protocol is replicated *)
  done;
  (* Placement bookkeeping, on the coordinating shard. *)
  (match shards with Some ss -> Int_tbl.replace x.shard_gids gid ss | None -> ());
  let on_done outcome =
    (* The machine finished: it has no armed timer, and any later message
       for the round gets the answer the shard's responder reads from the
       coordinator log ([retired_responder]). *)
    Network.unregister x.net (Wire.Coordinator gid);
    Coordinator_log.retire c.clog ~gid;
    Int_tbl.remove x.shard_gids gid;
    (match Int_tbl.find_all x.foreign gid with
    | [] -> ()
    | gainers ->
        (* the decision landed: the gainer's adopted entries for this
           gid stop gating certification *)
        List.iter (fun s -> Agent.drop_foreign (ctx t s).agent ~gid) gainers;
        while Int_tbl.mem x.foreign gid do
          Int_tbl.remove x.foreign gid
        done);
    on_done outcome
  in
  let coord =
    Coordinator.start ?gate ?obs:x.obs ~log:c.clog ?batcher:c.batcher ~gid ~site:coord_site
      ~engine:x.engine ~net:x.net ~trace:x.trace ~config:t.certifier
      ~epoch:(Shard_map.epoch !(t.placement))
      ~sn_gen:(adversarial_sn_gen t coord_site ~gid)
      ~program ~on_done ()
  in
  if t.crash_coordinators then c.hosted <- coord :: c.hosted;
  gid

(* Placement changes swap the map every shard's agents read, so they
   run on one execution shard only. *)
let one_shard t fn =
  if Array.length t.execs > 1 then
    invalid_arg (fn ^ ": online reconfiguration runs on one execution shard only")

(* Hand [shard]'s prepared certification state (serial number + current
   alive interval per in-flight gid) from [from] to [to_], which adopts
   it as [foreign] entries until each gid's decision lands. Every gid
   recorded as touching [shard] goes over; a gid [submit] was not told
   about is included conservatively — over-transfer only costs
   precision, while a missed entry would let the gainer certify blind. *)
let hand_over t ~shard ~from ~to_ =
  let home gid = t.execs.((gid - 1) mod Array.length t.execs) in
  let touches gid =
    match Int_tbl.find_opt (home gid).shard_gids gid with
    | Some shards -> List.mem shard shards
    | None -> true
  in
  let loser = (ctx t from).agent in
  let gids =
    Alive_table.entries (Agent.alive_table loser)
    |> List.filter_map (fun (e : Alive_table.entry) ->
           if touches e.Alive_table.gid then Some e.Alive_table.gid else None)
    |> List.sort compare
  in
  let entries = Agent.export_handover loser ~gids in
  Agent.adopt_handover (ctx t to_).agent entries;
  List.iter
    (fun (h : Agent_sm.handover_entry) ->
      let foreign = (home h.h_gid).foreign in
      if not (List.mem to_ (Int_tbl.find_all foreign h.h_gid)) then
        Int_tbl.add foreign h.h_gid to_)
    entries

(* Online reconfiguration: move [shard] to [to_] in a new placement
   epoch. Before the new map is installed the losing site hands the moved
   shard's prepared state to the gainer ([hand_over]) — the adopted
   entries gate interval-intersection and min-SN certification at the
   gainer exactly like native prepared work, so a commit certified under
   the new epoch still observes transactions prepared under the old one
   (invariant I6(b)). In-flight rounds stamped with the old epoch get
   WRONG-EPOCH refusals and abort; the workload driver re-resolves
   through the new map on resubmission. A move onto the current owner or
   onto a site that is not serving changes nothing. *)
let reconfigure t ~shard ~to_ =
  one_shard t "Dtm.reconfigure";
  let map = !(t.placement) in
  let from = Shard_map.owner map ~shard in
  if (not (Site.equal from to_)) && Shard_map.mem_site map to_ then begin
    hand_over t ~shard ~from ~to_;
    (* install only after the handover: the first message the gainer
       serves under the new epoch already sees the adopted intervals *)
    t.placement := Shard_map.move map ~shard ~to_
  end

(* Site churn: a site joins (or rejoins) the serving set, owning nothing
   until a [reconfigure] moves shards onto it. Installing the new epoch is
   enough — there is no state to hand over. *)
let join t ~site =
  one_shard t "Dtm.join";
  t.placement := Shard_map.add_site !(t.placement) ~site

(* A site leaves the serving set: its shards redistribute round-robin
   over the survivors ({!Shard_map.remove_site}), and — exactly like a
   [reconfigure] — each gainer adopts the leaver's prepared certification
   state for the shards it inherits before the new epoch serves traffic.
   In-flight rounds stamped with the old epoch get WRONG-EPOCH refusals
   and re-resolve through the new map. *)
let leave t ~site =
  one_shard t "Dtm.leave";
  let map = !(t.placement) in
  let next = Shard_map.remove_site map ~site in
  List.iter
    (fun shard -> hand_over t ~shard ~from:site ~to_:(Shard_map.owner next ~shard))
    (Shard_map.shards_of map ~site);
  t.placement := next

(* A site crash: the collective unilateral abort of every live transaction
   at the site plus loss of all volatile agent state, followed by recovery
   from the Agent log.

   With [reboot_delay = 0] (the default, the paper's idealization) the
   reboot is atomic, so no message ever finds the site's handler missing.
   A positive [reboot_delay] keeps the site genuinely down for that many
   ticks: the network counts deliveries to it as drops, and recovery runs
   when it comes back up — the coordinators' retransmissions then carry
   the decisions across the outage.

   With [crash_coordinators] the crash also takes down every coordinator
   the site hosts: their volatile 2PC state is lost and their addresses
   go dark for the outage; at reboot each one rebuilds from the site's
   {!Coordinator_log} — re-driving a logged decision, presuming abort
   otherwise. The snapshot of hosted coordinators is taken at crash time
   so rounds submitted during the outage are untouched by the reboot.

   The work is proportional to the rounds still live, not to the run so
   far. A finished coordinator has no armed timer and nothing to
   recover, so it is neither crashed nor recovered, and it leaves
   [hosted] here. Going dark is one watermark per site, read by the
   network's down rule ([hosted_down]), not a mark per address; and the
   acceptors resynchronize lazily ({!Acceptor.crash}). *)
let crash_site ?(reboot_delay = 0) t site =
  let c = ctx t site in
  if not c.down then begin
    let coords =
      if t.crash_coordinators then begin
        c.hosted <- List.filter (fun co -> not (Coordinator.finished co)) c.hosted;
        c.hosted
      end
      else []
    in
    if reboot_delay <= 0 then begin
      List.iter Coordinator.crash coords;
      Agent.crash c.agent;
      (* hosted acceptors lose their volatile state too and replay from
         their force-written log — before the coordinators recover, so a
         rebooting leader's register inquiry finds them consistent *)
      (match c.acceptors with
      | Some a ->
          Acceptor.crash a;
          Acceptor.recover a
      | None -> ());
      Agent.recover c.agent;
      List.iter Coordinator.recover coords
    end
    else begin
      (* Down-ness is destination-side state, so it lives on the crashed
         site's own network instance — exactly where every delivery to
         this site's agent and hosted coordinators is scheduled. *)
      c.down <- true;
      c.down_below <- c.exec.gid_ctr;
      List.iter Coordinator.crash coords;
      Agent.crash c.agent;
      Network.mark_down c.exec.net (Wire.Agent site);
      (match c.acceptors with Some a -> Acceptor.crash a | None -> ());
      Engine.schedule_unit c.exec.engine ~delay:reboot_delay (fun () ->
          Network.mark_up c.exec.net (Wire.Agent site);
          c.down <- false;
          c.down_below <- 0;
          (match c.acceptors with Some a -> Acceptor.recover a | None -> ());
          Agent.recover c.agent;
          List.iter Coordinator.recover coords)
    end
  end

(* Load a row directly into a site's database (initial state, written by
   the hypothetical initializing transaction T_0). *)
let load t site ~table ~key ~value =
  ignore (Database.write (database t site) ~table ~key (Hermes_store.Row.initial value))

let history t = Trace.merged (Array.to_list (Array.map (fun x -> x.trace) t.execs))

(* With several shards, fold their observability contexts into the
   caller's: registries absorb exactly; trace events merge by time, a
   stable sort keeping each shard's emission order. One shard records
   straight into the caller's context. *)
let merge_obs t =
  match t.obs with
  | Some o when Array.length t.execs > 1 ->
      let shard_obs = List.filter_map (fun (x : exec_shard) -> x.obs) (Array.to_list t.execs) in
      List.iter (fun so -> Registry.absorb (Obs.metrics o) (Obs.metrics so)) shard_obs;
      List.concat_map (fun so -> Hermes_obs.Tracer.events (Obs.trace so)) shard_obs
      |> List.stable_sort (fun (a, _) (b, _) -> Time.compare a b)
      |> List.iter (fun (at, ev) -> Hermes_obs.Tracer.emit (Obs.trace o) ~at ev)
  | _ -> ()

(* Aggregate statistics across sites, for the harness. *)
type totals = {
  ltm_committed : int;
  ltm_aborted : int;
  unilateral_aborts : int;
  lock_timeouts : int;
  deadlock_victims : int;
  prepared : int;
  refused_extension : int;
  refused_interval : int;
  refused_dead : int;
  refused_epoch : int;
  refused_drift : int;
  resubmissions : int;
  commit_retries : int;
  dlu_denials : int;
  agent_log_forces : int;
  coord_log_forces : int;
  gc_flushes : int;
  gc_staged : int;
}

let totals t =
  Array.fold_left
    (fun acc c ->
      let ls = Ltm.stats c.ltm in
      let ags = Agent.stats c.agent in
      {
        ltm_committed = acc.ltm_committed + ls.Ltm.committed;
        ltm_aborted = acc.ltm_aborted + ls.Ltm.aborted;
        unilateral_aborts = acc.unilateral_aborts + ls.Ltm.unilateral_aborts;
        lock_timeouts = acc.lock_timeouts + ls.Ltm.lock_timeouts;
        deadlock_victims = acc.deadlock_victims + ls.Ltm.deadlock_victims;
        prepared = acc.prepared + ags.Agent.prepared;
        refused_extension = acc.refused_extension + ags.Agent.refused_extension;
        refused_interval = acc.refused_interval + ags.Agent.refused_interval;
        refused_dead = acc.refused_dead + ags.Agent.refused_dead;
        refused_epoch = acc.refused_epoch + ags.Agent.refused_epoch;
        refused_drift = acc.refused_drift + ags.Agent.refused_drift;
        resubmissions = acc.resubmissions + ags.Agent.resubmissions;
        commit_retries = acc.commit_retries + ags.Agent.commit_retries;
        dlu_denials = acc.dlu_denials + Hermes_ltm.Bound.denials (Ltm.bound_registry c.ltm);
        agent_log_forces = acc.agent_log_forces + Agent_log.force_writes (Agent.agent_log c.agent);
        coord_log_forces = acc.coord_log_forces + Coordinator_log.force_writes c.clog;
        gc_flushes =
          (acc.gc_flushes
          + match c.batcher with Some b -> Group_commit.flushes b | None -> 0);
        gc_staged =
          (acc.gc_staged
          + match c.batcher with Some b -> Group_commit.staged_total b | None -> 0);
      })
    {
      ltm_committed = 0;
      ltm_aborted = 0;
      unilateral_aborts = 0;
      lock_timeouts = 0;
      deadlock_victims = 0;
      prepared = 0;
      refused_extension = 0;
      refused_interval = 0;
      refused_dead = 0;
      refused_epoch = 0;
      refused_drift = 0;
      resubmissions = 0;
      commit_retries = 0;
      dlu_denials = 0;
      agent_log_forces = 0;
      coord_log_forces = 0;
      gc_flushes = 0;
      gc_staged = 0;
    }
    t.sites

(* End-of-run export: fold the per-site LTM/agent/DLU counters and the
   network totals into a metrics registry, one (name, site) series each.
   Counters are get-or-create, so repeated exports into a shared registry
   (e.g. one registry across a seed sweep) accumulate. *)
let export_metrics t reg =
  let c ~site name v = if v <> 0 then Registry.Counter.add (Registry.counter reg ~site name) v in
  Array.iter
    (fun ctx ->
      let site = ctx.site in
      let ls = Ltm.stats ctx.ltm in
      c ~site "ltm.committed" ls.Ltm.committed;
      c ~site "ltm.aborted" ls.Ltm.aborted;
      c ~site "ltm.unilateral_aborts" ls.Ltm.unilateral_aborts;
      c ~site "ltm.lock_timeouts" ls.Ltm.lock_timeouts;
      c ~site "ltm.deadlock_victims" ls.Ltm.deadlock_victims;
      let ags = Agent.stats ctx.agent in
      c ~site "agent.prepared" ags.Agent.prepared;
      c ~site "agent.refused_extension" ags.Agent.refused_extension;
      c ~site "agent.refused_interval" ags.Agent.refused_interval;
      c ~site "agent.refused_dead" ags.Agent.refused_dead;
      (* zero-skipped, so runs on the static map stay byte-identical *)
      c ~site "agent.refused_epoch" ags.Agent.refused_epoch;
      (* zero-skipped likewise: nonzero only with a [max_sn_drift] bound *)
      c ~site "agent.refused_drift" ags.Agent.refused_drift;
      c ~site "agent.resubmissions" ags.Agent.resubmissions;
      c ~site "agent.commit_retries" ags.Agent.commit_retries;
      c ~site "agent.local_commits" ags.Agent.local_commits;
      c ~site "agent.rollbacks" ags.Agent.rollbacks;
      c ~site "agent.crashes" ags.Agent.crashes;
      c ~site "agent.recovered" ags.Agent.recovered;
      (* only meaningful — and only exported — when coordinator crashes
         are on, so PR 3-era metric dumps stay byte-identical *)
      if t.crash_coordinators then
        c ~site "coord.log_force_writes" (Coordinator_log.force_writes ctx.clog);
      (* group-commit force accounting — only exported when batching is
         on, so earlier metric dumps stay byte-identical *)
      if Config.group_commit t.certifier then begin
        c ~site "agent.log_force_writes" (Agent_log.force_writes (Agent.agent_log ctx.agent));
        if not t.crash_coordinators then
          c ~site "coord.log_force_writes" (Coordinator_log.force_writes ctx.clog);
        match ctx.batcher with
        | Some b ->
            c ~site "gc.flushes" (Group_commit.flushes b);
            c ~site "gc.staged" (Group_commit.staged_total b)
        | None -> ()
      end;
      c ~site "dlu.denials" (Hermes_ltm.Bound.denials (Ltm.bound_registry ctx.ltm)))
    t.sites;
  let add name v = if v <> 0 then Registry.Counter.add (Registry.counter reg name) v in
  let sum f = List.fold_left (fun acc net -> acc + f net) 0 (networks t) in
  add "net.sent" (sum Network.sent);
  add "net.delivered" (sum Network.delivered);
  add "net.dropped" (sum Network.dropped);
  add "net.duplicated" (sum Network.duplicated)
