(* Deterministic protocol-level replays of the paper's histories.

   Unlike the literal history encodings in the test suite, these scenarios
   drive the *actual protocol stack* — coordinators, agents, LTMs, the
   network — into the paper's anomalies: a saboteur unilaterally aborts a
   chosen prepared subtransaction inside the right window (after the
   global commit record, before the local commit), competitors are
   submitted while the victim's locks are briefly free, and local
   transactions probe the views. Run with [Config.naive] the anomalies
   appear; with the corresponding certification step enabled they don't.

   The network is configured jitter-free, so every scenario is exactly
   reproducible. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Ltm = Hermes_ltm.Ltm
module Failure = Hermes_ltm.Failure
module Network = Hermes_net.Network
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm
module History = Hermes_history.History
module Report = Hermes_history.Report

let site_a = Site.of_int 0
let site_b = Site.of_int 1

type world = { engine : Engine.t; dtm : Dtm.t; obs : Hermes_obs.Obs.t option }

let make_world ?obs ~certifier ~seed () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng
      ~net_config:{ Network.default_config with base_delay = 500; jitter = 0 }
      ~certifier ?obs
      ~site_specs:(Array.make 2 Dtm.default_site_spec)
      ()
  in
  { engine; dtm; obs }

(* The saboteur: unilaterally abort the subtransaction of global [gid] at
   [site], once per element of [graces], each strike [grace] ticks after
   (re)observing an active, held-open incarnation. A first grace of ~700
   with the 500-tick network lands after the coordinator's commit record
   but before the COMMIT message reaches the site — the paper's A^a-after-C
   ordering; a grace of 0 strikes a fresh resubmission before it can
   finish. *)
let sabotage w ~site ~gid ~graces =
  let ltm = Dtm.ltm w.dtm site in
  let remaining = ref graces in
  let armed_at = ref None in
  let deadline = 2_000_000 in
  let find_victim () =
    List.find_opt
      (fun txn ->
        let owner = Ltm.owner txn in
        Txn.equal owner.Txn.Incarnation.txn (Txn.global gid) && Ltm.is_active txn && Ltm.is_held_open txn)
      (Ltm.live_txns ltm)
  in
  let rec poll () =
    match !remaining with
    | [] -> ()
    | grace :: rest ->
        if Time.to_int (Engine.now w.engine) < deadline then begin
          (match find_victim () with
          | None -> armed_at := None
          | Some txn -> (
              match !armed_at with
              | None -> armed_at := Some (Engine.now w.engine)
              | Some t0 ->
                  if Time.diff (Engine.now w.engine) t0 >= grace then begin
                    if Ltm.unilateral_abort ltm txn then remaining := rest;
                    armed_at := None
                  end));
          Engine.schedule_unit w.engine ~delay:50 poll
        end
  in
  Engine.schedule_unit w.engine ~delay:50 poll

(* Run a local transaction's commands at [site], starting at absolute
   simulated time [at]; reports whether it committed. *)
let run_local w ~site ~n ~at commands ~on_done =
  let ltm = Dtm.ltm w.dtm site in
  Engine.schedule_unit w.engine
    ~delay:(max 0 (at - Time.to_int (Engine.now w.engine)))
    (fun () ->
      let owner = Txn.Incarnation.make ~txn:(Txn.local ~site ~n) ~site ~inc:0 in
      let txn = Ltm.begin_txn ltm ~owner in
      let rec step = function
        | [] -> Ltm.commit ltm txn ~on_done:(fun r -> on_done (r = Ltm.Committed))
        | cmd :: rest ->
            Ltm.exec ltm txn cmd ~on_done:(function
              | Ltm.Done _ -> step rest
              | Ltm.Failed _ -> on_done false)
      in
      step commands)

let submit_at w ~at program ~on_done =
  Engine.schedule_unit w.engine
    ~delay:(max 0 (at - Time.to_int (Engine.now w.engine)))
    (fun () -> ignore (Dtm.submit w.dtm program ~on_done))

type run = {
  name : string;
  outcomes : (string * Coordinator.outcome option) list;
      (* labelled global transactions; [None] = never finished (a sound
         protocol must not leave any — the commit-certification-only
         ablation livelocks on H1, which is itself a result: the basic
         prepare certification is also a *liveness* mechanism) *)
  locals : (string * bool) list;  (* labelled local transactions: committed? *)
  resubmissions : int;
  history : History.t;
  report : Report.t;
}

let pp_outcome_opt ppf = function
  | Some o -> Coordinator.pp_outcome ppf o
  | None -> Fmt.string ppf "STUCK (never finished)"

(* Scenarios run under a generous time cap instead of draining the queue:
   unsound ablations can livelock (see [run.outcomes]). *)
let collect w ~name ~outcomes ~locals =
  Engine.run ~until:(Time.of_int 3_000_000) w.engine;
  Engine.halt w.engine;
  Option.iter (fun o -> Dtm.export_metrics w.dtm (Hermes_obs.Obs.metrics o)) w.obs;
  let history = Dtm.history w.dtm in
  {
    name;
    outcomes = List.map (fun (l, r) -> (l, !r)) outcomes;
    locals = List.map (fun (l, r) -> (l, Option.value ~default:false !r)) locals;
    resubmissions = (Dtm.totals w.dtm).Dtm.resubmissions;
    history;
    report = Report.analyze history;
  }

(* ------------------------------------------------------------------ *)
(* H1 — global view distortion (paper §3).

   T1 reads X^a and updates Y^a and Z^b. Its prepared subtransaction at a
   is aborted just after the global commit record. T2, already waiting on
   the locks, deletes Y^a and updates X^a and Z^b, and commits. T1's
   resubmission is sabotaged once more, so its final incarnation replays
   after T2: it reads X^a from T2 and its decomposition has lost the Y^a
   update — both faces of the H1 anomaly. *)
(* ------------------------------------------------------------------ *)

let h1 ?(certifier = Config.naive) ?(seed = 1) ?obs () =
  let certifier = { certifier with Config.resubmit_backoff = 5_000 } in
  let w = make_world ?obs ~certifier ~seed () in
  (* a: key 0 = X^a, key 1 = Y^a;  b: key 0 = Z^b *)
  Dtm.load w.dtm site_a ~table:"X" ~key:0 ~value:100;
  Dtm.load w.dtm site_a ~table:"X" ~key:1 ~value:200;
  Dtm.load w.dtm site_b ~table:"X" ~key:0 ~value:300;
  let t1_outcome = ref None and t2_outcome = ref None in
  let t1 =
    Program.make
      [
        (site_a, Command.Select { table = "X"; keys = [ 0 ] });
        (site_a, Command.Update { table = "X"; key = 1; delta = 10 });
        (site_b, Command.Update { table = "X"; key = 0; delta = 10 });
      ]
  in
  let t2 =
    Program.make
      [
        (site_a, Command.Delete { table = "X"; key = 1 });
        (site_a, Command.Update { table = "X"; key = 0; delta = 1 });
        (site_b, Command.Update { table = "X"; key = 0; delta = 1 });
      ]
  in
  submit_at w ~at:0 t1 ~on_done:(fun o -> t1_outcome := Some o);
  (* T2 arrives while T1 is still executing/prepared, and queues on T1's
     locks at a. *)
  submit_at w ~at:2_000 t2 ~on_done:(fun o -> t2_outcome := Some o);
  sabotage w ~site:site_a ~gid:1 ~graces:[ 700; 0 ];
  collect w ~name:"H1" ~outcomes:[ ("T1", t1_outcome); ("T2", t2_outcome) ] ~locals:[]

(* ------------------------------------------------------------------ *)
(* H2 — local view distortion through a direct conflict (paper §5.1).

   T1 (X^a, Y^a, Z^b) commits globally; its subtransaction at a is
   sabotaged twice, so its local commit at a is late. T3 reads Z^b from T1
   and updates Q^a; without commit certification it commits at a while T1
   is still recovering — local commits in opposite orders at a and b. The
   local transaction L4 then reads Q^a (from T3) and Y^a (from T_0): a
   view no serial order can produce. *)
(* ------------------------------------------------------------------ *)

let h2 ?(certifier = Config.naive) ?(seed = 1) ?obs () =
  let certifier = { certifier with Config.resubmit_backoff = 20_000 } in
  let w = make_world ?obs ~certifier ~seed () in
  (* a: 0 = X^a, 1 = Y^a, 2 = Q^a;  b: 0 = Z^b *)
  Dtm.load w.dtm site_a ~table:"X" ~key:0 ~value:100;
  Dtm.load w.dtm site_a ~table:"X" ~key:1 ~value:200;
  Dtm.load w.dtm site_a ~table:"X" ~key:2 ~value:400;
  Dtm.load w.dtm site_b ~table:"X" ~key:0 ~value:300;
  let t1_outcome = ref None and t3_outcome = ref None and l4_ok = ref None in
  let t1 =
    Program.make
      [
        (site_a, Command.Select { table = "X"; keys = [ 0 ] });
        (site_a, Command.Update { table = "X"; key = 1; delta = 10 });
        (site_b, Command.Update { table = "X"; key = 0; delta = 10 });
      ]
  in
  let t3 =
    Program.make
      [
        (site_b, Command.Select { table = "X"; keys = [ 0 ] });
        (site_a, Command.Update { table = "X"; key = 2; delta = 5 });
      ]
  in
  submit_at w ~at:0 t1 ~on_done:(fun o -> t1_outcome := Some o);
  sabotage w ~site:site_a ~gid:1 ~graces:[ 700; 0 ];
  (* T3 starts after T1's crash at a; it reads Z^b from the committed
     subtransaction at b. *)
  submit_at w ~at:7_000 t3 ~on_done:(fun o -> t3_outcome := Some o);
  (* L4 probes after T3 would have committed at a (naive case). *)
  run_local w ~site:site_a ~n:4 ~at:14_000
    [ Command.Select { table = "X"; keys = [ 2 ] }; Command.Select { table = "X"; keys = [ 1 ] };
      Command.Insert { table = "X"; key = 3; value = 7 } ]
    ~on_done:(fun ok -> l4_ok := Some ok);
  collect w ~name:"H2"
    ~outcomes:[ ("T1", t1_outcome); ("T3", t3_outcome) ]
    ~locals:[ ("L4", l4_ok) ]

(* ------------------------------------------------------------------ *)
(* H3 — local view distortion through *indirect* conflicts only (paper
   §5.1): T5 and T6 touch disjoint items, so no prepare-order argument
   applies; only the serial-number commit certification keeps the commit
   orders aligned. L8 sees T5-but-not-T6 at b; L7 sees T6-but-not-T5 at a
   (because T5's recovery at a is slow) — jointly unserializable. *)
(* ------------------------------------------------------------------ *)

let h3 ?(certifier = Config.naive) ?(seed = 1) ?obs () =
  let certifier = { certifier with Config.resubmit_backoff = 30_000 } in
  let w = make_world ?obs ~certifier ~seed () in
  (* a: 0 = X^a, 2 = Y^a;  b: 1 = U^b, 3 = V^b *)
  Dtm.load w.dtm site_a ~table:"X" ~key:0 ~value:100;
  Dtm.load w.dtm site_a ~table:"X" ~key:2 ~value:200;
  Dtm.load w.dtm site_b ~table:"X" ~key:1 ~value:300;
  Dtm.load w.dtm site_b ~table:"X" ~key:3 ~value:400;
  let t5_outcome = ref None and t6_outcome = ref None in
  let l7_ok = ref None and l8_ok = ref None in
  let t5 =
    Program.make
      [
        (site_a, Command.Update { table = "X"; key = 0; delta = 1 });
        (site_b, Command.Update { table = "X"; key = 1; delta = 1 });
      ]
  in
  let t6 =
    Program.make
      [
        (site_a, Command.Update { table = "X"; key = 2; delta = 1 });
        (site_b, Command.Update { table = "X"; key = 3; delta = 1 });
      ]
  in
  submit_at w ~at:0 t5 ~on_done:(fun o -> t5_outcome := Some o);
  sabotage w ~site:site_a ~gid:1 ~graces:[ 700; 0 ];
  (* L8 reads U^b (from T5's committed subtransaction) and V^b (still
     T_0 — T6 has not run). *)
  run_local w ~site:site_b ~n:8 ~at:5_500
    [ Command.Select { table = "X"; keys = [ 1 ] }; Command.Select { table = "X"; keys = [ 3 ] } ]
    ~on_done:(fun ok -> l8_ok := Some ok);
  submit_at w ~at:8_000 t6 ~on_done:(fun o -> t6_outcome := Some o);
  (* L7 reads Y^a (from T6, in the naive case) and X^a (T_0: T5's write
     was undone and not yet resubmitted). *)
  run_local w ~site:site_a ~n:7 ~at:16_000
    [ Command.Select { table = "X"; keys = [ 2 ] }; Command.Select { table = "X"; keys = [ 0 ] } ]
    ~on_done:(fun ok -> l7_ok := Some ok);
  collect w ~name:"H3"
    ~outcomes:[ ("T5", t5_outcome); ("T6", t6_outcome) ]
    ~locals:[ ("L7", l7_ok); ("L8", l8_ok) ]

(* ------------------------------------------------------------------ *)
(* The §5.3 overtaking race: two non-conflicting global transactions
   across a and b; with network jitter, T_k's COMMIT can reach b before
   T_j's PREPARE does. Returns whether the trace shows the overtake, plus
   the analysis. Randomized — callers sweep seeds/jitter. *)
(* ------------------------------------------------------------------ *)

type overtake_result = {
  o_run : run;
  overtaken : bool;  (* C^b_k preceded P^b_j in the trace *)
  extension_refusals : int;
}

let overtake ?(certifier = Config.naive) ?obs ~jitter ~seed () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng
      ~net_config:{ Network.default_config with base_delay = 500; jitter }
      ~certifier ?obs
      ~site_specs:(Array.make 2 Dtm.default_site_spec)
      ()
  in
  let w = { engine; dtm; obs } in
  List.iter (fun k -> Dtm.load w.dtm site_a ~table:"X" ~key:k ~value:0) [ 0; 2 ];
  List.iter (fun k -> Dtm.load w.dtm site_b ~table:"X" ~key:k ~value:0) [ 1; 3 ];
  let tj_outcome = ref None and tk_outcome = ref None in
  let prog k0 k1 =
    Program.make
      [
        (site_a, Command.Update { table = "X"; key = k0; delta = 1 });
        (site_b, Command.Update { table = "X"; key = k1; delta = 1 });
      ]
  in
  submit_at w ~at:0 (prog 0 1) ~on_done:(fun o -> tj_outcome := Some o);
  submit_at w ~at:200 (prog 2 3) ~on_done:(fun o -> tk_outcome := Some o);
  let run = collect w ~name:"overtake" ~outcomes:[ ("Tj", tj_outcome); ("Tk", tk_outcome) ] ~locals:[] in
  (* The dangerous race of §5.3: SN(Tj) < SN(Tk) — Tj reached its global
     commit first — yet at site b, Tk's local commit precedes Tj's prepare
     (which the extension may have refused outright). A reordering where
     Tj's SN is already the bigger one is harmless. *)
  let module Op = Hermes_history.Op in
  let pos f =
    let found = ref None in
    History.iteri (fun i op -> if !found = None && f op then found := Some i) run.history;
    !found
  in
  let sn_of gid =
    History.fold
      (fun acc op ->
        match op with
        | Op.Prepare { txn = Txn.Global g; sn = Some sn; _ } when g = gid -> Some sn
        | _ -> acc)
      None run.history
  in
  let prepare_at ~gid ~site =
    pos (function
      | Op.Prepare { txn = Txn.Global g; site = s; _ } -> g = gid && Site.equal s site
      | _ -> false)
  in
  let commit_at ~gid ~site =
    pos (function
      | Op.Local_commit { Txn.Incarnation.txn = Txn.Global g; site = s; _ } -> g = gid && Site.equal s site
      | _ -> false)
  in
  let refusals = (Dtm.totals w.dtm).Dtm.refused_extension in
  (* Either transaction may end up with the smaller SN; the race is: the
     smaller-SN transaction's prepare at some site lands after (or is
     refused behind) the bigger-SN transaction's local commit there. *)
  let race_between ~small ~big =
    let at site =
      match (prepare_at ~gid:small ~site, commit_at ~gid:big ~site) with
      | Some p, Some c -> c < p
      | None, Some _ -> refusals > 0
      | _ -> false
    in
    at site_a || at site_b
  in
  let overtaken =
    match (sn_of 1, sn_of 2) with
    | Some s1, Some s2 when Sn.(s1 < s2) -> race_between ~small:1 ~big:2
    | Some _, Some _ -> race_between ~small:2 ~big:1
    | Some _, None -> refusals > 0
    | None, Some _ -> refusals > 0
    | None, None -> false
  in
  { o_run = run; overtaken; extension_refusals = refusals }
