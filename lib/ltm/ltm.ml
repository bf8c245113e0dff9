(* The Local Transaction Manager: the transactional face of one LDBS.

   The LTM realizes the paper's assumptions about local systems:

   - DDF: commands decompose deterministically against the current state
     ({!Decompose});
   - RR:  aborts restore before images ({!Hermes_store.Undo});
   - RTT: execution is a pure function of state and command (no hidden
     time dependence);
   - SRS: strict two-phase locking — every lock is held until the
     transaction terminates — yields rigorous histories (checked
     independently by {!Hermes_history.Rigorous} in the test suite);
   - UAN: any involuntary abort invokes the registered notification
     callback;
   - TW:  commit of a live transaction always succeeds (the failure
     injector separately bounds aborts per subtransaction).

   Everything is asynchronous against the discrete-event engine: [exec]
   acquires locks (possibly waiting), spends simulated latency, applies
   the elementary operations, and calls back. Unilateral aborts can strike
   at any point; every continuation re-checks the transaction state.

   The LTM knows nothing about the DTM: global subtransaction incarnations
   are ordinary transactions to it, distinguished only by the owner tag
   they carry for tracing. *)

open Hermes_kernel
open Hermes_store
module Op = Hermes_history.Op
module Engine = Hermes_sim.Engine
module Obs = Hermes_obs.Obs
module Tracer = Hermes_obs.Tracer
module Local_txn = Hermes_protocol.Local_txn

let src = Logs.Src.create "hermes.ltm" ~doc:"Local transaction manager events"

module Log = (val Logs.src_log src : Logs.LOG)

(* Ticks a lock request may wait before its owner aborts. *)
let lock_timeout = 50_000

type abort_reason = Lock_timeout | Deadlock_victim | Dlu_denied | Unilateral | Owner_abort

let pp_abort_reason ppf r =
  Fmt.string ppf
    (match r with
    | Lock_timeout -> "lock timeout"
    | Deadlock_victim -> "deadlock victim"
    | Dlu_denied -> "DLU denied"
    | Unilateral -> "unilateral abort"
    | Owner_abort -> "owner abort")

type exec_result = Done of Command.result | Failed of abort_reason

type commit_result = Committed | Commit_refused of abort_reason

type txn = {
  id : int;
  owner : Txn.Incarnation.t;
  undo : Undo.t;
  status : (unit -> unit) Local_txn.t;
      (* active/committed/aborted, command in flight, held open by the
         agent (simulated prepared state), last completed operation, and
         the unilateral abort notification *)
  mutable abort_reason : abort_reason;  (* read once [status] says aborted *)
  mutable footprint : Item.Set.t;  (* items accessed so far *)
  mutable pending : (exec_result -> unit) option;  (* in-flight exec's callback *)
  mutable wait_timer : Engine.timer option;
  mutable n_commands : int;
}

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable unilateral_aborts : int;
  mutable lock_timeouts : int;
  mutable deadlock_victims : int;
  mutable commands : int;
}

type t = {
  engine : Engine.t;
  db : Database.t;
  config : Ltm_config.t;
  trace : Trace.t;
  locks : Lock.t;
  bound : Bound.t;
  txns : txn Int_tbl.t;  (* the active transactions: dropped on commit or abort *)
  mutable next_id : int;
  stats : stats;
  mutable on_held_open : (txn -> unit) option;  (* failure-injector hook *)
  obs : Obs.t option;
}

let create ~engine ~db ~config ~trace ?obs () =
  {
    engine;
    db;
    config;
    trace;
    locks = Lock.create ();
    bound = Bound.create ();
    txns = Int_tbl.create 64;
    next_id = 0;
    stats =
      {
        begun = 0;
        committed = 0;
        aborted = 0;
        unilateral_aborts = 0;
        lock_timeouts = 0;
        deadlock_victims = 0;
        commands = 0;
      };
    on_held_open = None;
    obs;
  }

let site t = Database.site t.db
let stats t = t.stats
let bound_registry t = t.bound
let database t = t.db

let owner txn = txn.owner
let last_op_done txn = txn.status.Local_txn.last_op_done
let status txn = txn.status
let is_active txn = Local_txn.is_active txn.status
let is_alive txn = Local_txn.is_alive txn.status
let is_held_open txn = txn.status.Local_txn.held_open

let mark_held_open t txn v =
  Local_txn.hold_open txn.status v;
  if v then match t.on_held_open with Some hook -> hook txn | None -> ()

let set_held_open_hook t hook = t.on_held_open <- Some hook
let set_uan txn cb = Local_txn.watch txn.status cb

let begin_txn t ~owner =
  let txn =
    {
      id = t.next_id;
      owner;
      undo = Undo.create ();
      status = Local_txn.start ~inc:owner.Txn.Incarnation.inc ~now:(Engine.now t.engine);
      abort_reason = Owner_abort;
      footprint = Item.Set.empty;
      pending = None;
      wait_timer = None;
      n_commands = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stats.begun <- t.stats.begun + 1;
  Int_tbl.replace t.txns txn.id txn;
  txn

let footprint txn = Item.Set.elements txn.footprint

let live_txns t =
  Int_tbl.fold (fun _ txn acc -> txn :: acc) t.txns [] |> List.sort (fun a b -> Int.compare a.id b.id)

let tracked t = Int_tbl.length t.txns

(* Grant callbacks from the lock table run inside release/cancel; each is
   an engine-deferring closure, so calling them synchronously is safe. *)
let run_grants cbs = List.iter (fun cb -> cb ()) cbs

let cancel_wait_timer txn =
  match txn.wait_timer with
  | Some timer ->
      Engine.cancel timer;
      txn.wait_timer <- None
  | None -> ()

(* The single abort path. Order matters: cancel waits, roll back the
   store, trace the abort, then release locks (strictness: the undo is in
   place before anyone else can touch the data). *)
let abort_internal t txn reason ~notify =
  if Local_txn.abort txn.status then begin
    Log.debug (fun m ->
        m "[%a %a] abort %a: %a" Time.pp (Engine.now t.engine) Site.pp (site t) Txn.Incarnation.pp txn.owner
          pp_abort_reason reason);
    txn.abort_reason <- reason;
    Int_tbl.remove t.txns txn.id;
    t.stats.aborted <- t.stats.aborted + 1;
    (match reason with
    | Unilateral -> t.stats.unilateral_aborts <- t.stats.unilateral_aborts + 1
    | Lock_timeout -> t.stats.lock_timeouts <- t.stats.lock_timeouts + 1
    | Deadlock_victim -> t.stats.deadlock_victims <- t.stats.deadlock_victims + 1
    | Dlu_denied | Owner_abort -> ());
    (match reason with
    | Unilateral | Lock_timeout | Deadlock_victim ->
        Obs.emit t.obs ~at:(Engine.now t.engine) (fun () ->
            Tracer.Txn_aborted
              { site = site t; owner = Fmt.str "%a" Txn.Incarnation.pp txn.owner;
                reason = Fmt.str "%a" pp_abort_reason reason })
    | Dlu_denied | Owner_abort -> ());
    cancel_wait_timer txn;
    run_grants (Lock.cancel_waits t.locks ~owner:txn.id);
    Undo.rollback txn.undo t.db;
    Trace.record t.trace ~at:(Engine.now t.engine) (Op.Local_abort txn.owner);
    run_grants (Lock.release_all t.locks ~owner:txn.id);
    (match txn.pending with
    | Some cb ->
        txn.pending <- None;
        Engine.schedule_unit t.engine ~delay:0 (fun () -> cb (Failed reason))
    | None -> ());
    if notify then
      match txn.status.Local_txn.uan with
      | Some cb -> Engine.schedule_unit t.engine ~delay:0 cb
      | None -> ()
  end

let abort t txn = abort_internal t txn Owner_abort ~notify:false

(* The failure injector's entry point: a spontaneous, LDBS-internal abort
   (log overflow, system bug, ... — paper §1). Notifies via UAN. *)
let unilateral_abort t txn =
  if is_active txn then begin
    abort_internal t txn Unilateral ~notify:true;
    true
  end
  else false

let commit t txn ~on_done =
  match Local_txn.commit txn.status with
  | Local_txn.Refused ->
      let reason = txn.abort_reason in
      Engine.schedule_unit t.engine ~delay:0 (fun () -> on_done (Commit_refused reason))
  | Local_txn.Already_committed -> Engine.schedule_unit t.engine ~delay:0 (fun () -> on_done Committed)
  | Local_txn.Applied ->
      Log.debug (fun m ->
          m "[%a %a] commit %a" Time.pp (Engine.now t.engine) Site.pp (site t) Txn.Incarnation.pp txn.owner);
      Int_tbl.remove t.txns txn.id;
      t.stats.committed <- t.stats.committed + 1;
      Undo.discard txn.undo;
      Trace.record t.trace ~at:(Engine.now t.engine) (Op.Local_commit txn.owner);
      run_grants (Lock.release_all t.locks ~owner:txn.id);
      Engine.schedule_unit t.engine ~delay:0 (fun () -> on_done Committed)

(* ------------------------------------------------------------------ *)
(* Command execution                                                   *)
(* ------------------------------------------------------------------ *)

(* Apply the elementary operations of [cmd] with all planned locks held:
   read rows (tracing reads-from), update/insert/delete with undo
   logging. Returns the command result. *)
let apply t txn cmd ~planned =
  let table = Command.table cmd in
  let now = Engine.now t.engine in
  let touch key = txn.footprint <- Item.Set.add (Database.item t.db ~table ~key) txn.footprint in
  let trace_read key row =
    touch key;
    Trace.record t.trace ~at:now
      (Op.read ~value:(Row.value row) ~inc:txn.owner ~item:(Database.item t.db ~table ~key)
         ~from:(Row.writer row) ())
  in
  let trace_write ?value key =
    touch key;
    Trace.record t.trace ~at:now (Op.write ?value ~inc:txn.owner ~item:(Database.item t.db ~table ~key) ())
  in
  let write key value =
    let before = Database.write t.db ~table ~key (Row.make ~value ~writer:txn.owner) in
    Undo.record txn.undo ~table ~key ~before;
    trace_write ~value key
  in
  match cmd with
  | Command.Select { keys; _ } ->
      let rows =
        List.filter_map
          (fun k ->
            match Database.read t.db ~table ~key:k with
            | Some row ->
                trace_read k row;
                Some (k, Row.value row)
            | None -> None)
          (List.sort_uniq Int.compare keys)
      in
      Command.Rows rows
  | Command.Select_range _ ->
      let rows =
        List.filter_map
          (fun k ->
            match Database.read t.db ~table ~key:k with
            | Some row ->
                trace_read k row;
                Some (k, Row.value row)
            | None -> None)
          planned
      in
      Command.Rows rows
  | Command.Update_range { delta; _ } ->
      let n =
        List.fold_left
          (fun n k ->
            match Database.read t.db ~table ~key:k with
            | Some row ->
                trace_read k row;
                write k (Row.value row + delta);
                n + 1
            | None -> n)
          0 planned
      in
      Command.Count n
  | Command.Update { key; delta; _ } -> (
      match Database.read t.db ~table ~key with
      | Some row ->
          trace_read key row;
          write key (Row.value row + delta);
          Command.Count 1
      | None -> Command.Count 0)
  | Command.Assign { key; value; _ } ->
      if Database.mem t.db ~table ~key then begin
        write key value;
        Command.Count 1
      end
      else Command.Count 0
  | Command.Insert { key; value; _ } ->
      write key value;
      Command.Count 1
  | Command.Delete { key; _ } -> (
      match Database.delete t.db ~table ~key with
      | Some _ as before ->
          Undo.record txn.undo ~table ~key ~before;
          trace_write key;
          Command.Count 1
      | None -> Command.Count 0)

(* DLU (checked inside [exec], both before lock acquisition and again at
   apply time — the item may have become bound while the command waited):
   a *local* transaction may not update bound data, and one that tries is
   aborted. *)
let exec t txn cmd ~on_done =
  if not (Local_txn.exec txn.status) then
    let reason = txn.abort_reason in
    Engine.schedule_unit t.engine ~delay:0 (fun () -> on_done (Failed reason))
  else begin
    txn.pending <- Some on_done;
    txn.n_commands <- txn.n_commands + 1;
    t.stats.commands <- t.stats.commands + 1;
    let table = Command.table cmd in
    let targets = Decompose.plan t.db cmd in
    let planned = List.map fst targets in
    let is_local = Txn.is_local txn.owner.Txn.Incarnation.txn in
    let dlu_gate k =
      if
        is_local
        && List.exists
             (fun (key, mode) -> mode = Lock.Exclusive && Bound.is_bound t.bound ~table ~key)
             targets
      then begin
        Bound.note_denial t.bound;
        abort_internal t txn Dlu_denied ~notify:false
      end
      else k ()
    in
    let finish_ok () =
      (* Spend command + per-op latency, then apply. *)
      let n_ops = max 1 (List.length (Decompose.elementary_planned t.db cmd ~planned)) in
      let dur = t.config.Ltm_config.cmd_latency + (t.config.Ltm_config.op_latency * n_ops) in
      Engine.schedule_unit t.engine ~delay:dur (fun () ->
          if is_active txn then
            (* The item may have become bound while the command waited. *)
            dlu_gate (fun () ->
                let result = apply t txn cmd ~planned in
                Local_txn.exec_done txn.status ~now:(Engine.now t.engine);
                txn.pending <- None;
                on_done (Done result)))
    in
    let rec acquire = function
      | [] -> finish_ok ()
      | (key, mode) :: rest -> (
          let lkey = (table, key) in
          let wait_started = Engine.now t.engine in
          let continue () =
            if is_active txn then begin
              cancel_wait_timer txn;
              Obs.emit t.obs ~at:(Engine.now t.engine) (fun () ->
                  Tracer.Lock_wait
                    { site = site t; owner = Fmt.str "%a" Txn.Incarnation.pp txn.owner; table; key;
                      waited = Time.diff (Engine.now t.engine) wait_started });
              acquire rest
            end
          in
          let on_grant () = Engine.schedule_unit t.engine ~delay:0 continue in
          match Lock.acquire t.locks lkey ~owner:txn.id ~mode ~on_grant with
          | Lock.Granted -> acquire rest
          | Lock.Waiting ->
              (* Deadlock handling per policy; the lock-wait timeout is
                 always armed as a backstop (FIFO queue-order waits are
                 invisible to every strategy below). *)
              let arm_timeout () =
                txn.wait_timer <-
                  Some
                    (Engine.schedule t.engine ~delay:lock_timeout (fun () ->
                         if is_active txn then abort_internal t txn Lock_timeout ~notify:false))
              in
              let conflicting_holders () =
                List.filter_map (fun id -> Int_tbl.find_opt t.txns id)
                  (Lock.blockers t.locks lkey ~owner:txn.id ~mode)
              in
              (match t.config.Ltm_config.deadlock with
              | Ltm_config.Timeout_only -> arm_timeout ()
              | Ltm_config.Detection_and_timeout ->
                  if Deadlock.would_deadlock t.locks ~waiter:txn.id ~key:lkey ~mode then begin
                    Obs.emit t.obs ~at:(Engine.now t.engine) (fun () ->
                        Tracer.Deadlock_resolved
                          { site = site t; victim = Fmt.str "%a" Txn.Incarnation.pp txn.owner;
                            policy = "detection" });
                    abort_internal t txn Deadlock_victim ~notify:false
                  end
                  else arm_timeout ()
              | Ltm_config.Wait_die ->
                  (* Non-preemptive: a requester younger (bigger id,
                     begun later) than any conflicting holder dies. *)
                  if List.exists (fun holder -> holder.id < txn.id) (conflicting_holders ()) then begin
                    Obs.emit t.obs ~at:(Engine.now t.engine) (fun () ->
                        Tracer.Deadlock_resolved
                          { site = site t; victim = Fmt.str "%a" Txn.Incarnation.pp txn.owner;
                            policy = "wait-die" });
                    abort_internal t txn Deadlock_victim ~notify:false
                  end
                  else arm_timeout ()
              | Ltm_config.Wound_wait ->
                  (* Preemptive: an older requester wounds every younger
                     conflicting holder — an involuntary abort, so it
                     goes through the unilateral path (UAN fires; a
                     wounded prepared subtransaction just resubmits). *)
                  List.iter
                    (fun holder ->
                      if holder.id > txn.id then begin
                        Obs.emit t.obs ~at:(Engine.now t.engine) (fun () ->
                            Tracer.Deadlock_resolved
                              { site = site t; victim = Fmt.str "%a" Txn.Incarnation.pp holder.owner;
                                policy = "wound-wait" });
                        ignore (unilateral_abort t holder)
                      end)
                    (conflicting_holders ());
                  arm_timeout ()))
    in
    dlu_gate (fun () -> acquire targets)
  end
