(* The Commit Graph Method (CGM) baseline — Breitbart, Silberschatz &
   Thompson, "Reliable Transaction Management in a Multidatabase System"
   (SIGMOD 1990), built to the description in the paper's §6 comparison:

   - a *centralized* scheduler (this module instance) in contrast to the
     decentralized 2PCA Certifiers;
   - a global S2PL lock manager operated by the DTM at coarse granularity
     (site or table — the paper notes item granularity is impractical
     without server support), acquired before execution and held to the
     end of the global transaction: this is what protects against global
     view distortion instead of prepare certification;
   - the commit graph: at global-commit time the transaction's
     (transaction, site) edges are tentatively added; if they would close
     a loop, the commit is delayed until the graph clears — this replaces
     commit certification;
   - per-subtransaction servers that simulate the prepared state and
     resubmit after unilateral aborts, without certification: the
     underlying DTM runs with [Config.naive] agents.

   Global locks are acquired in sorted key order, so the global lock
   layer itself cannot deadlock; a timeout is still applied because a
   global lock can be held for a long time by a transaction stuck behind
   the commit-graph gate. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Lock = Hermes_ltm.Lock
module Network = Hermes_net.Network
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm

(* Ticks a global lock request may wait. *)
let global_lock_timeout = 400_000

type granularity = Site_level | Table_level

type stats = {
  mutable gate_delays : int;  (* commits held back by a commit-graph loop *)
  mutable glock_timeouts : int;  (* global-lock acquisition timeouts *)
  mutable gate_wait_ticks : int;  (* total ticks spent waiting at the gate *)
}

type pending_gate = { gid : int; sites : Site.t list; proceed : unit -> unit; enqueued_at : Time.t }

type t = {
  engine : Engine.t;
  dtm : Dtm.t;
  granularity : granularity;
  glm : Lock.t;  (* the global lock manager; owners are CGM-local ids *)
  cg : Commit_graph.t;
  mutable queue : pending_gate list;  (* commits waiting for the graph to clear *)
  mutable next_owner : int;
  stats : stats;
}

let create ~engine ~rng ~net_config ~granularity ?obs ~site_specs () =
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng ~net_config ~certifier:Config.naive ?obs ~site_specs ()
  in
  {
    engine;
    dtm;
    granularity;
    glm = Lock.create ();
    cg = Commit_graph.create ();
    queue = [];
    next_owner = 0;
    stats = { gate_delays = 0; glock_timeouts = 0; gate_wait_ticks = 0 };
  }

let dtm t = t.dtm
let stats t = t.stats

(* The global lock set of a program: at site granularity one lock per
   participating site; at table granularity one per (site, table). Mode is
   exclusive as soon as the transaction writes anything in the granule. *)
let global_locks t program =
  let writes_in = Hashtbl.create 8 in
  let granules = Hashtbl.create 8 in
  List.iter
    (fun (site, cmd) ->
      let key =
        match t.granularity with
        | Site_level -> (Fmt.str "site-%d" (Site.to_int site), 0)
        | Table_level -> (Fmt.str "site-%d/%s" (Site.to_int site) (Command.table cmd), 0)
      in
      Hashtbl.replace granules key ();
      if not (Command.is_read_only cmd) then Hashtbl.replace writes_in key ())
    (Program.steps program);
  Hashtbl.fold
    (fun key () acc ->
      let mode = if Hashtbl.mem writes_in key then Lock.Exclusive else Lock.Shared in
      (key, mode) :: acc)
    granules []
  |> List.sort compare

(* Retry all queued gates (cheap: the queue holds only in-doubt commits). *)
let drain_queue t =
  let pending = t.queue in
  t.queue <- [];
  List.iter
    (fun p ->
      if Commit_graph.would_loop t.cg ~gid:p.gid ~sites:p.sites then t.queue <- p :: t.queue
      else begin
        Commit_graph.enter t.cg ~gid:p.gid ~sites:p.sites;
        t.stats.gate_wait_ticks <-
          t.stats.gate_wait_ticks + Time.diff (Engine.now t.engine) p.enqueued_at;
        p.proceed ()
      end)
    pending

let gate t : Coordinator.gate =
 fun ~gid ~sites ~proceed ->
  if Commit_graph.would_loop t.cg ~gid ~sites then begin
    t.stats.gate_delays <- t.stats.gate_delays + 1;
    t.queue <- { gid; sites; proceed; enqueued_at = Engine.now t.engine } :: t.queue
  end
  else begin
    Commit_graph.enter t.cg ~gid ~sites;
    proceed ()
  end

let submit t program ~on_done =
  let owner = t.next_owner in
  t.next_owner <- t.next_owner + 1;
  let locks = global_locks t program in
  let released = ref false in
  let release () =
    if not !released then begin
      released := true;
      List.iter (fun cb -> cb ()) (Lock.release_all t.glm ~owner)
    end
  in
  let timed_out = ref false in
  let rec acquire = function
    | [] ->
        let gid_ref = ref (-1) in
        let gid =
          Dtm.submit t.dtm program ~gate:(gate t) ~on_done:(fun outcome ->
              (* The transaction is done everywhere: leave the commit
                 graph, release the global locks, wake waiters. *)
              Commit_graph.leave t.cg ~gid:!gid_ref;
              release ();
              drain_queue t;
              on_done outcome)
        in
        gid_ref := gid
    | (key, mode) :: rest -> (
        let timer = ref None in
        let continue () =
          (match !timer with Some tm -> Engine.cancel tm | None -> ());
          if not !timed_out then acquire rest
        in
        match Lock.acquire t.glm key ~owner ~mode ~on_grant:(fun () -> Engine.schedule_unit t.engine ~delay:0 continue) with
        | Lock.Granted -> acquire rest
        | Lock.Waiting ->
            timer :=
              Some
                (Engine.schedule t.engine ~delay:global_lock_timeout (fun () ->
                     timed_out := true;
                     t.stats.glock_timeouts <- t.stats.glock_timeouts + 1;
                     List.iter (fun cb -> cb ()) (Lock.cancel_waits t.glm ~owner);
                     release ();
                     on_done (Coordinator.Aborted (Coordinator.Gate_refused "global-lock-timeout")))))
  in
  acquire locks
