(* The effectful shell of the decision register's acceptors: one
   [Acceptor.t] per site hosts every {!Hermes_protocol.Paxos_coordinator_sm}
   instance placed at that site (instance [idx] of transaction [gid]
   lives at site [(gid + idx) mod n_sites] — strided like gids, starting
   at the site *after* the leader's so backup-TM's single acceptor never
   shares the leader's failure domain).

   The machines are timerless, so this adapter owns no engine timers at
   all: it interprets [Send], [Force_log] and [Emit] only.  The stable
   acceptor log is embedded here (promised ballot, accepted value,
   decision — exactly the three force-written facts Paxos needs);
   {!crash} wipes the volatile machines and {!recover} replays them from
   it, mirroring [Coordinator_log] recovery. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Network = Hermes_net.Network
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry
module Sm = Hermes_protocol.Paxos_coordinator_sm
module Types = Hermes_protocol.Types

let src = Logs.Src.create "hermes.acceptor" ~doc:"Paxos Commit acceptor events"

module Log = (val Logs.src_log src : Logs.LOG)

(* The force-written facts of one acceptor instance. *)
type entry = {
  mutable promised : int;
  mutable accepted : (int * bool) option;
  mutable decided : bool option;
}

type inst = { a_gid : int; a_idx : int; mutable machine : Sm.state }

type t = {
  site : Site.t;
  engine : Engine.t;
  net : Network.t;
  obs : Obs.t option;
  config : Sm.config;
  insts : (int * int, inst) Hashtbl.t;
  log : (int * int, entry) Hashtbl.t;  (* stable: survives crash/recover *)
  mutable force_writes : int;
}

let create ~site ~engine ~net ?obs ~config () =
  {
    site;
    engine;
    net;
    obs;
    config = Sm.config config;
    insts = Hashtbl.create 64;
    log = Hashtbl.create 64;
    force_writes = 0;
  }

let counter t name =
  match t.obs with
  | Some o -> Registry.Counter.incr (Registry.counter (Obs.metrics o) ~site:t.site name)
  | None -> ()

let log_entry t inst =
  let key = (inst.a_gid, inst.a_idx) in
  match Hashtbl.find_opt t.log key with
  | Some e -> e
  | None ->
      let e = { promised = 0; accepted = None; decided = None } in
      Hashtbl.replace t.log key e;
      e

let log_force t inst (r : Sm.record) =
  let e = log_entry t inst in
  (match r with
  | Sm.R_promised { ballot } -> e.promised <- max e.promised ballot
  | Sm.R_accepted { ballot; committed } ->
      e.promised <- max e.promised ballot;
      e.accepted <- Some (ballot, committed)
  | Sm.R_decided { committed } -> e.decided <- Some committed);
  t.force_writes <- t.force_writes + 1;
  counter t "acceptor.log_force_writes"

let emit_event t inst (ev : Sm.event) =
  match ev with
  | Recovery_ballot { ballot } ->
      counter t "acceptor.recovery_ballots";
      Log.info (fun m ->
          m "[%a] T%d.%d: leading recovery ballot %d" Time.pp (Engine.now t.engine) inst.a_gid
            inst.a_idx ballot)
  | Chosen { ballot; committed } ->
      counter t "acceptor.chosen";
      Log.info (fun m ->
          m "[%a] T%d.%d: ballot %d chose %s" Time.pp (Engine.now t.engine) inst.a_gid inst.a_idx
            ballot
            (if committed then "commit" else "rollback"))
  | Nacked { ballot; promised } ->
      counter t "acceptor.nacks";
      Log.debug (fun m ->
          m "[%a] T%d.%d: ballot %d nacked (promised %d elsewhere)" Time.pp (Engine.now t.engine)
            inst.a_gid inst.a_idx ballot promised)

let feed t inst input =
  let effects = Sm.step t.config inst.machine input in
  List.iter
    (fun (eff : Sm.effect) ->
      match eff with
      | Types.Send { dst; gid; payload } ->
          Network.send t.net ~src:(Wire.Acceptor { gid = inst.a_gid; idx = inst.a_idx }) ~dst ~gid
            payload
      | Types.Force_log r -> log_force t inst r
      | Types.Emit ev -> emit_event t inst ev
      | Types.Arm_timer _ | Types.Cancel_timer _ | Types.Ltm_call _ -> .
      | Types.Stage_log _ | Types.Force_batch _ | Types.Record _ | Types.Invoke_gate
      | Types.Decide _ ->
          assert false (* not in the acceptor vocabulary *))
    effects

(* Host instance [idx] of [gid]'s register at this site and register its
   network address. Idempotent: a retransmitted hosting request (never
   happens today) would keep the existing instance. *)
let host t ~gid ~idx =
  let key = (gid, idx) in
  if not (Hashtbl.mem t.insts key) then begin
    let inst = { a_gid = gid; a_idx = idx; machine = Sm.init ~gid ~idx } in
    Hashtbl.replace t.insts key inst;
    Network.register t.net
      (Wire.Acceptor { gid; idx })
      (fun msg -> feed t inst (Sm.Deliver { src = msg.Wire.src; payload = msg.Wire.payload }))
  end

(* The site crashed: every hosted instance loses its volatile state
   (askers, leadership). The stable log survives; the handlers stay
   registered — [Dtm] marks the addresses down for the outage. *)
let crash t =
  Hashtbl.iter (fun _ inst -> inst.machine <- Sm.init ~gid:inst.a_gid ~idx:inst.a_idx) t.insts

(* Reboot: replay every instance from its force-written log entry. *)
let recover t =
  Hashtbl.iter
    (fun key inst ->
      match Hashtbl.find_opt t.log key with
      | None -> ()
      | Some e ->
          feed t inst
            (Sm.Recover { promised = e.promised; accepted = e.accepted; decided = e.decided }))
    t.insts

let addresses t =
  Hashtbl.fold (fun (gid, idx) _ acc -> Wire.Acceptor { gid; idx } :: acc) t.insts []

let force_writes t = t.force_writes
let n_hosted t = Hashtbl.length t.insts
