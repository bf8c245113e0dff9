(* Tests for hermes.ltm: lock table, decomposition, deadlock detection,
   DLU enforcement, transaction lifecycle, failure injection — and the
   central property: the S2PL scheduler produces rigorous histories. *)

open Hermes_kernel
open Hermes_ltm
module Engine = Hermes_sim.Engine
module Database = Hermes_store.Database
module Row = Hermes_store.Row
module Rigorous = Hermes_history.Rigorous
module History = Hermes_history.History
module Op = Hermes_history.Op

let site0 = Site.of_int 0

let ginc n = Txn.Incarnation.make ~txn:(Txn.global n) ~site:site0 ~inc:0
let linc n = Txn.Incarnation.make ~txn:(Txn.local ~site:site0 ~n) ~site:site0 ~inc:0

type world = { engine : Engine.t; db : Database.t; ltm : Ltm.t; trace : Trace.t }

let make_world ?(config = Ltm_config.default) () =
  let engine = Engine.create () in
  let db = Database.create ~site:site0 in
  let trace = Trace.create () in
  let ltm = Ltm.create ~engine ~db ~config ~trace () in
  List.iter (fun k -> ignore (Database.write db ~table:"X" ~key:k (Row.initial 100))) (List.init 10 Fun.id);
  { engine; db; ltm; trace }

let sel keys = Command.Select { table = "X"; keys }
let upd key delta = Command.Update { table = "X"; key; delta }

(* ------------------------------------------------------------------ *)
(* Lock table                                                          *)
(* ------------------------------------------------------------------ *)

let test_lock_shared_compatible () =
  let t = Lock.create () in
  let k = ("X", 1) in
  Alcotest.(check bool) "first S" true (Lock.acquire t k ~owner:1 ~mode:Lock.Shared ~on_grant:ignore = Lock.Granted);
  Alcotest.(check bool) "second S" true (Lock.acquire t k ~owner:2 ~mode:Lock.Shared ~on_grant:ignore = Lock.Granted);
  Alcotest.(check int) "two holders" 2 (List.length (Lock.holders t k))

let test_lock_exclusive_blocks () =
  let t = Lock.create () in
  let k = ("X", 1) in
  let granted = ref false in
  ignore (Lock.acquire t k ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore);
  Alcotest.(check bool) "X blocks S" true
    (Lock.acquire t k ~owner:2 ~mode:Lock.Shared ~on_grant:(fun () -> granted := true) = Lock.Waiting);
  Alcotest.(check bool) "not yet" false !granted;
  let cbs = Lock.release_all t ~owner:1 in
  List.iter (fun cb -> cb ()) cbs;
  Alcotest.(check bool) "granted on release" true !granted

let test_lock_reacquire () =
  let t = Lock.create () in
  let k = ("X", 1) in
  ignore (Lock.acquire t k ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore);
  Alcotest.(check bool) "S under X" true (Lock.acquire t k ~owner:1 ~mode:Lock.Shared ~on_grant:ignore = Lock.Granted);
  Alcotest.(check bool) "X under X" true (Lock.acquire t k ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore = Lock.Granted)

let test_lock_upgrade_sole_holder () =
  let t = Lock.create () in
  let k = ("X", 1) in
  ignore (Lock.acquire t k ~owner:1 ~mode:Lock.Shared ~on_grant:ignore);
  Alcotest.(check bool) "upgrade granted" true
    (Lock.acquire t k ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore = Lock.Granted);
  Alcotest.(check bool) "now exclusive" true (Lock.holders t k = [ (1, Lock.Exclusive) ])

let test_lock_upgrade_waits () =
  let t = Lock.create () in
  let k = ("X", 1) in
  let upgraded = ref false in
  ignore (Lock.acquire t k ~owner:1 ~mode:Lock.Shared ~on_grant:ignore);
  ignore (Lock.acquire t k ~owner:2 ~mode:Lock.Shared ~on_grant:ignore);
  Alcotest.(check bool) "upgrade waits" true
    (Lock.acquire t k ~owner:1 ~mode:Lock.Exclusive ~on_grant:(fun () -> upgraded := true) = Lock.Waiting);
  let cbs = Lock.release_all t ~owner:2 in
  List.iter (fun cb -> cb ()) cbs;
  Alcotest.(check bool) "upgraded when sole" true !upgraded

let test_lock_fifo_no_overtaking () =
  let t = Lock.create () in
  let k = ("X", 1) in
  let order = ref [] in
  ignore (Lock.acquire t k ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore);
  ignore (Lock.acquire t k ~owner:2 ~mode:Lock.Exclusive ~on_grant:(fun () -> order := 2 :: !order));
  (* owner 3 wants S; compatible with nothing while 2 is queued first *)
  ignore (Lock.acquire t k ~owner:3 ~mode:Lock.Shared ~on_grant:(fun () -> order := 3 :: !order));
  List.iter (fun cb -> cb ()) (Lock.release_all t ~owner:1);
  Alcotest.(check (list int)) "2 granted first, 3 still behind" [ 2 ] (List.rev !order);
  List.iter (fun cb -> cb ()) (Lock.release_all t ~owner:2);
  Alcotest.(check (list int)) "then 3" [ 2; 3 ] (List.rev !order)

let test_lock_cancel_waits () =
  let t = Lock.create () in
  let k = ("X", 1) in
  let granted3 = ref false in
  ignore (Lock.acquire t k ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore);
  ignore (Lock.acquire t k ~owner:2 ~mode:Lock.Exclusive ~on_grant:(fun () -> Alcotest.fail "2 was cancelled"));
  ignore (Lock.acquire t k ~owner:3 ~mode:Lock.Exclusive ~on_grant:(fun () -> granted3 := true));
  List.iter (fun cb -> cb ()) (Lock.cancel_waits t ~owner:2);
  List.iter (fun cb -> cb ()) (Lock.release_all t ~owner:1);
  Alcotest.(check bool) "3 granted after cancel of 2" true !granted3

let test_lock_blockers () =
  let t = Lock.create () in
  let k = ("X", 1) in
  ignore (Lock.acquire t k ~owner:1 ~mode:Lock.Shared ~on_grant:ignore);
  ignore (Lock.acquire t k ~owner:2 ~mode:Lock.Shared ~on_grant:ignore);
  Alcotest.(check (list int)) "X blocked by both readers" [ 1; 2 ]
    (List.sort Int.compare (Lock.blockers t k ~owner:3 ~mode:Lock.Exclusive));
  Alcotest.(check (list int)) "S blocked by nobody" [] (Lock.blockers t k ~owner:3 ~mode:Lock.Shared)

(* The lock table as it was before [cancel_waits] had an owner -> key
   index: the same grant discipline, with [cancel_waits] scanning every
   lock entry for the owner's queued requests. Test-only: the reference
   the indexed table must agree with. *)
module Lock_reference = struct
  type request = { req_owner : int; req_mode : Lock.mode; upgrade : bool; on_grant : unit -> unit }
  type entry = { mutable holders : (int * Lock.mode) list; mutable queue : request list }
  type t = { entries : (Lock.key, entry) Hashtbl.t; held : (int, Lock.key list ref) Hashtbl.t }

  let create () = { entries = Hashtbl.create 256; held = Hashtbl.create 64 }

  let entry t key =
    match Hashtbl.find_opt t.entries key with
    | Some e -> e
    | None ->
        let e = { holders = []; queue = [] } in
        Hashtbl.replace t.entries key e;
        e

  let note_held t ~owner key =
    match Hashtbl.find_opt t.held owner with
    | Some l -> if not (List.mem key !l) then l := key :: !l
    | None -> Hashtbl.replace t.held owner (ref [ key ])

  let compatible requested held =
    match (requested, held) with Lock.Shared, Lock.Shared -> true | _ -> false

  let grantable e ~owner ~mode = List.for_all (fun (h, m) -> h = owner || compatible mode m) e.holders

  let set_holder e ~owner ~mode =
    let others = List.remove_assoc owner e.holders in
    let mode =
      match (List.assoc_opt owner e.holders, mode) with
      | Some Lock.Exclusive, _ -> Lock.Exclusive
      | _, m -> m
    in
    e.holders <- (owner, mode) :: others

  let drain e =
    let granted = ref [] in
    let rec go () =
      match e.queue with
      | [] -> ()
      | r :: rest ->
          let ok =
            if r.upgrade then List.for_all (fun (h, _) -> h = r.req_owner) e.holders
            else grantable e ~owner:r.req_owner ~mode:r.req_mode
          in
          if ok then begin
            e.queue <- rest;
            set_holder e ~owner:r.req_owner ~mode:r.req_mode;
            granted := r :: !granted;
            go ()
          end
    in
    go ();
    List.rev !granted

  let acquire t key ~owner ~mode ~on_grant =
    let e = entry t key in
    match List.assoc_opt owner e.holders with
    | Some Lock.Exclusive -> Lock.Granted
    | Some Lock.Shared when mode = Lock.Shared -> Lock.Granted
    | Some Lock.Shared ->
        if List.for_all (fun (h, _) -> h = owner) e.holders && e.queue = [] then begin
          set_holder e ~owner ~mode:Lock.Exclusive;
          Lock.Granted
        end
        else begin
          e.queue <- { req_owner = owner; req_mode = Lock.Exclusive; upgrade = true; on_grant } :: e.queue;
          Lock.Waiting
        end
    | None ->
        if e.queue = [] && grantable e ~owner ~mode then begin
          set_holder e ~owner ~mode;
          note_held t ~owner key;
          Lock.Granted
        end
        else begin
          e.queue <- e.queue @ [ { req_owner = owner; req_mode = mode; upgrade = false; on_grant } ];
          Lock.Waiting
        end

  let cancel_waits t ~owner =
    let newly = ref [] in
    Hashtbl.iter
      (fun key e ->
        let before = List.length e.queue in
        e.queue <- List.filter (fun r -> r.req_owner <> owner) e.queue;
        if List.length e.queue <> before then begin
          let granted = drain e in
          List.iter (fun r -> note_held t ~owner:r.req_owner key) granted;
          newly := List.map (fun r -> r.on_grant) granted @ !newly
        end)
      t.entries;
    !newly

  let release_all t ~owner =
    let keys = match Hashtbl.find_opt t.held owner with Some l -> !l | None -> [] in
    Hashtbl.remove t.held owner;
    let newly = ref [] in
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.entries key with
        | None -> ()
        | Some e ->
            e.holders <- List.remove_assoc owner e.holders;
            let granted = drain e in
            List.iter (fun r -> note_held t ~owner:r.req_owner key) granted;
            newly := List.map (fun r -> r.on_grant) granted @ !newly)
      keys;
    !newly

  let holders t key = match Hashtbl.find_opt t.entries key with Some e -> e.holders | None -> []

  let waiting t =
    Hashtbl.fold
      (fun key e acc ->
        List.fold_left (fun acc r -> (key, r.req_owner, r.req_mode) :: acc) acc e.queue)
      t.entries []

  let held_keys t ~owner = match Hashtbl.find_opt t.held owner with Some l -> !l | None -> []
end

(* A random acquire / release_all / cancel_waits sequence over a few
   owners and keys, applied to the indexed table and to the reference. An
   owner requests a lock only while it has none queued, as the LTM does.
   After every operation the two must have answered the same, run the
   same grant callbacks in the same order, and agree on every holder
   list, every queue and every owner's held keys. Returns that verdict
   and how many [cancel_waits] calls granted something. *)
let lock_sequence_agrees seed =
  let rng = Rng.create ~seed in
  let owners = List.init 5 (fun i -> i + 1) in
  let keys = List.init 4 (fun k -> ("X", k)) in
  let idx = Lock.create () and ref_ = Lock_reference.create () in
  let log_idx = ref [] and log_ref = ref [] in
  let answers_agree = ref true and cancel_grants = ref 0 in
  let run cbs = List.iter (fun cb -> cb ()) cbs in
  (* [Lock.waiting] lists requests by ascending key, each key's in FIFO
     order. The reference's fold lists each key's requests newest first,
     keys in its table's order: reversed, then stably sorted by key, it
     is in the same order. *)
  let canonical waiting =
    List.stable_sort
      (fun ((t, k), _, _) ((t', k'), _, _) ->
        match String.compare t t' with 0 -> Int.compare k k' | c -> c)
      (List.rev waiting)
  in
  let same () =
    !answers_agree && !log_idx = !log_ref
    && Lock.waiting idx = canonical (Lock_reference.waiting ref_)
    && List.for_all (fun k -> Lock.holders idx k = Lock_reference.holders ref_ k) keys
    && List.for_all
         (fun owner -> Lock.held_keys idx ~owner = Lock_reference.held_keys ref_ ~owner)
         owners
  in
  let waiting owner = List.exists (fun (_, o, _) -> o = owner) (Lock.waiting idx) in
  let rec go n =
    n = 0
    ||
    let owner = 1 + Rng.int rng ~bound:5 in
    (match Rng.int rng ~bound:4 with
    | (0 | 1) when not (waiting owner) ->
        let key = ("X", Rng.int rng ~bound:4) in
        let mode = if Rng.bool rng ~p:0.5 then Lock.Shared else Lock.Exclusive in
        let grant log () = log := (owner, key, mode) :: !log in
        let a = Lock.acquire idx key ~owner ~mode ~on_grant:(grant log_idx) in
        let b = Lock_reference.acquire ref_ key ~owner ~mode ~on_grant:(grant log_ref) in
        if a <> b then answers_agree := false
    | 0 | 1 | 2 ->
        let cbs = Lock.cancel_waits idx ~owner in
        if cbs <> [] then incr cancel_grants;
        run cbs;
        run (Lock_reference.cancel_waits ref_ ~owner)
    | _ ->
        run (Lock.release_all idx ~owner);
        run (Lock_reference.release_all ref_ ~owner));
    same () && go (n - 1)
  in
  let agrees = go (10 + Rng.int rng ~bound:60) in
  (agrees, !cancel_grants)

let prop_lock_index_matches_reference =
  QCheck.Test.make ~name:"indexed cancel_waits = full scan" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed -> fst (lock_sequence_agrees seed))

let test_lock_sequence_coverage () =
  (* The property is only as good as its sequences: some cancellations
     must unblock requests queued behind the cancelled one. *)
  let grants = List.fold_left (fun acc seed -> acc + snd (lock_sequence_agrees seed)) 0 (List.init 100 Fun.id) in
  Alcotest.(check bool) "cancel_waits grants in some sequences" true (grants > 0)

let test_lock_second_wait_rejected () =
  (* The wait index holds one key per owner: an owner with a queued
     request may not queue another. *)
  let t = Lock.create () in
  ignore (Lock.acquire t ("X", 1) ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore);
  ignore (Lock.acquire t ("X", 2) ~owner:1 ~mode:Lock.Exclusive ~on_grant:ignore);
  ignore (Lock.acquire t ("X", 1) ~owner:2 ~mode:Lock.Exclusive ~on_grant:ignore);
  Alcotest.check_raises "second wait" (Invalid_argument "Lock.acquire: owner is already waiting")
    (fun () -> ignore (Lock.acquire t ("X", 2) ~owner:2 ~mode:Lock.Shared ~on_grant:ignore))

(* ------------------------------------------------------------------ *)
(* Decomposition (DDF)                                                 *)
(* ------------------------------------------------------------------ *)

let test_decompose_update_missing () =
  let w = make_world () in
  Alcotest.(check int) "existing row: R;W" 2
    (List.length (Decompose.elementary w.db (upd 1 5)));
  Alcotest.(check int) "missing row: nothing" 0
    (List.length (Decompose.elementary w.db (upd 99 5)))

let test_decompose_select_range () =
  let w = make_world () in
  let elems = Decompose.elementary w.db (Command.Select_range { table = "X"; lo = 3; hi = 5 }) in
  Alcotest.(check (list int)) "reads existing keys" [ 3; 4; 5 ]
    (List.map (fun (e : Decompose.elementary) -> e.Decompose.key) elems)

let test_decompose_state_dependence () =
  (* The H1 phenomenon: deleting a row changes a later decomposition. *)
  let w = make_world () in
  Alcotest.(check int) "before delete" 2 (List.length (Decompose.elementary w.db (upd 1 5)));
  ignore (Database.delete w.db ~table:"X" ~key:1);
  Alcotest.(check int) "after delete" 0 (List.length (Decompose.elementary w.db (upd 1 5)))

let test_decompose_update_range () =
  let w = make_world () in
  let cmd = Command.Update_range { table = "X"; lo = 2; hi = 4; delta = 1 } in
  (* Plan: exclusive locks on existing keys; decomposition: R;W each. *)
  Alcotest.(check bool) "exclusive locks" true
    (List.for_all (fun (_, m) -> m = Lock.Exclusive) (Decompose.plan w.db cmd));
  Alcotest.(check int) "R;W per row" 6 (List.length (Decompose.elementary w.db cmd));
  (* The range decomposition is state-dependent: deleting a row shrinks
     it, inserting one grows it — the H1 phenomenon for scans. *)
  ignore (Database.delete w.db ~table:"X" ~key:3);
  Alcotest.(check int) "after delete" 4 (List.length (Decompose.elementary w.db cmd));
  ignore (Database.write w.db ~table:"X" ~key:3 (Row.initial 1));
  ignore (Database.write w.db ~table:"X" ~key:15 (Row.initial 1));
  Alcotest.(check int) "key outside range ignored" 6 (List.length (Decompose.elementary w.db cmd))

let test_exec_update_range () =
  let w = make_world () in
  let txn = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  let result = ref None in
  Ltm.exec w.ltm txn (Command.Update_range { table = "X"; lo = 0; hi = 3; delta = 5 })
    ~on_done:(fun r -> result := Some r);
  Engine.run w.engine;
  (match !result with
  | Some (Ltm.Done (Command.Count 4)) -> ()
  | _ -> Alcotest.fail "expected Count 4");
  Ltm.commit w.ltm txn ~on_done:ignore;
  Engine.run w.engine;
  for k = 0 to 3 do
    Alcotest.(check int) "updated" 105 (Row.value (Option.get (Database.read w.db ~table:"X" ~key:k)))
  done;
  Alcotest.(check int) "untouched" 100 (Row.value (Option.get (Database.read w.db ~table:"X" ~key:4)))

let test_decompose_plan_modes () =
  let w = make_world () in
  (match Decompose.plan w.db (sel [ 1; 2 ]) with
  | [ (1, Lock.Shared); (2, Lock.Shared) ] -> ()
  | _ -> Alcotest.fail "select plan");
  match Decompose.plan w.db (upd 1 5) with
  | [ (1, Lock.Exclusive) ] -> ()
  | _ -> Alcotest.fail "update plan"

(* ------------------------------------------------------------------ *)
(* LTM lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let test_exec_commit () =
  let w = make_world () in
  let txn = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  let result = ref None in
  Ltm.exec w.ltm txn (upd 1 5) ~on_done:(fun r -> result := Some r);
  Engine.run w.engine;
  (match !result with
  | Some (Ltm.Done (Command.Count 1)) -> ()
  | _ -> Alcotest.fail "expected Count 1");
  let committed = ref false in
  Ltm.commit w.ltm txn ~on_done:(fun r -> committed := r = Ltm.Committed);
  Engine.run w.engine;
  Alcotest.(check bool) "committed" true !committed;
  Alcotest.(check int) "value updated" 105 (Row.value (Option.get (Database.read w.db ~table:"X" ~key:1)))

let test_abort_rolls_back () =
  let w = make_world () in
  let txn = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  Ltm.exec w.ltm txn (upd 1 5) ~on_done:ignore;
  Engine.run w.engine;
  Ltm.abort w.ltm txn;
  Alcotest.(check int) "value restored" 100 (Row.value (Option.get (Database.read w.db ~table:"X" ~key:1)));
  let refused = ref false in
  Ltm.commit w.ltm txn ~on_done:(fun r -> refused := r <> Ltm.Committed);
  Engine.run w.engine;
  Alcotest.(check bool) "commit refused after abort" true !refused

let test_unilateral_abort_uan () =
  let w = make_world () in
  let txn = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  Ltm.exec w.ltm txn (upd 1 5) ~on_done:ignore;
  Engine.run w.engine;
  let notified = ref false in
  Ltm.set_uan txn (fun () -> notified := true);
  Alcotest.(check bool) "alive before" true (Ltm.is_alive txn);
  Alcotest.(check bool) "aborted" true (Ltm.unilateral_abort w.ltm txn);
  Engine.run w.engine;
  Alcotest.(check bool) "UAN delivered" true !notified;
  Alcotest.(check bool) "not alive after" false (Ltm.is_alive txn);
  Alcotest.(check bool) "second abort is a no-op" false (Ltm.unilateral_abort w.ltm txn)

let test_lock_conflict_serializes () =
  let w = make_world () in
  let t1 = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  let t2 = Ltm.begin_txn w.ltm ~owner:(ginc 2) in
  let order = ref [] in
  Ltm.exec w.ltm t1 (upd 1 5) ~on_done:(fun _ -> order := 1 :: !order);
  Ltm.exec w.ltm t2 (upd 1 7) ~on_done:(fun _ -> order := 2 :: !order);
  (* Run short of the lock timeout: t2 must still be waiting on t1's X
     lock (strict 2PL holds it until commit). *)
  Engine.run ~until:(Time.of_int 10_000) w.engine;
  Alcotest.(check (list int)) "only t1 done" [ 1 ] (List.rev !order);
  Ltm.commit w.ltm t1 ~on_done:ignore;
  Engine.run w.engine;
  Alcotest.(check (list int)) "t2 done after t1 commits" [ 1; 2 ] (List.rev !order);
  Ltm.commit w.ltm t2 ~on_done:ignore;
  Engine.run w.engine;
  Alcotest.(check int) "both applied" 112 (Row.value (Option.get (Database.read w.db ~table:"X" ~key:1)))

let test_lock_timeout_aborts () =
  let w = make_world () in
  let t1 = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  let t2 = Ltm.begin_txn w.ltm ~owner:(ginc 2) in
  Ltm.exec w.ltm t1 (upd 1 5) ~on_done:ignore;
  let result = ref None in
  Ltm.exec w.ltm t2 (upd 1 7) ~on_done:(fun r -> result := Some (r, Engine.now w.engine));
  (* t1 never commits; t2 must time out, a lock timeout after it queued. *)
  Engine.run w.engine;
  match !result with
  | Some (Ltm.Failed Ltm.Lock_timeout, at) ->
      Alcotest.(check bool) "waited out the timeout" true (Time.to_int at >= Ltm.lock_timeout)
  | _ -> Alcotest.fail "expected lock timeout"

let test_deadlock_detection () =
  let config = { Ltm_config.default with Ltm_config.deadlock = Ltm_config.Detection_and_timeout } in
  let w = make_world ~config () in
  let t1 = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  let t2 = Ltm.begin_txn w.ltm ~owner:(ginc 2) in
  let r1 = ref None and r2 = ref None in
  (* t1 takes X(1), t2 takes X(2), then each wants the other's key. *)
  Ltm.exec w.ltm t1 (upd 1 5) ~on_done:(fun _ ->
      Ltm.exec w.ltm t1 (upd 2 5) ~on_done:(fun r -> r1 := Some r));
  Ltm.exec w.ltm t2 (upd 2 7) ~on_done:(fun _ ->
      Ltm.exec w.ltm t2 (upd 1 7) ~on_done:(fun r -> r2 := Some r));
  Engine.run w.engine;
  let is_deadlock = function Some (Ltm.Failed Ltm.Deadlock_victim) -> true | _ -> false in
  let is_done r = match r with Some (Ltm.Done _) -> true | _ -> false in
  Alcotest.(check bool) "one victim" true (is_deadlock !r1 || is_deadlock !r2);
  (* The survivor proceeds once the victim's locks are released. *)
  Alcotest.(check bool) "one survivor" true (is_done !r1 || is_done !r2)

let test_wait_die () =
  let config = { Ltm_config.default with Ltm_config.deadlock = Ltm_config.Wait_die } in
  let w = make_world ~config () in
  let old_txn = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  let young = Ltm.begin_txn w.ltm ~owner:(ginc 2) in
  let r_young = ref None and r_old = ref None in
  (* The older transaction holds key 1; the younger requester dies. *)
  Ltm.exec w.ltm old_txn (upd 1 5) ~on_done:ignore;
  Ltm.exec w.ltm young (upd 1 7) ~on_done:(fun r -> r_young := Some r);
  Engine.run ~until:(Time.of_int 10_000) w.engine;
  (match !r_young with
  | Some (Ltm.Failed Ltm.Deadlock_victim) -> ()
  | _ -> Alcotest.fail "young requester must die");
  (* The reverse: an older requester waits for a younger holder. *)
  let young2 = Ltm.begin_txn w.ltm ~owner:(ginc 3) in
  Ltm.exec w.ltm young2 (upd 2 5) ~on_done:ignore;
  Engine.run ~until:(Time.of_int 20_000) w.engine;
  Ltm.exec w.ltm old_txn (upd 2 7) ~on_done:(fun r -> r_old := Some r);
  Engine.run ~until:(Time.of_int 30_000) w.engine;
  Alcotest.(check bool) "older requester still waiting" true (!r_old = None);
  Ltm.commit w.ltm young2 ~on_done:ignore;
  Engine.run ~until:(Time.of_int 40_000) w.engine;
  match !r_old with
  | Some (Ltm.Done _) -> ()
  | _ -> Alcotest.fail "older requester proceeds after the young holder commits"

let test_wound_wait () =
  let config = { Ltm_config.default with Ltm_config.deadlock = Ltm_config.Wound_wait } in
  let w = make_world ~config () in
  let old_txn = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  let young = Ltm.begin_txn w.ltm ~owner:(ginc 2) in
  let wounded = ref false and r_old = ref None in
  Ltm.set_uan young (fun () -> wounded := true);
  (* The younger transaction holds key 1; the older requester wounds it. *)
  Ltm.exec w.ltm young (upd 1 5) ~on_done:ignore;
  Engine.run ~until:(Time.of_int 5_000) w.engine;
  Ltm.exec w.ltm old_txn (upd 1 7) ~on_done:(fun r -> r_old := Some r);
  Engine.run ~until:(Time.of_int 20_000) w.engine;
  Alcotest.(check bool) "young holder wounded (UAN fired)" true !wounded;
  Alcotest.(check bool) "young holder dead" false (Ltm.is_active young);
  (match !r_old with
  | Some (Ltm.Done _) -> ()
  | _ -> Alcotest.fail "older requester proceeds after wounding");
  (* Rollback of the wounded holder happened before the wound-winner's
     read: value is 100 + 7. *)
  Ltm.commit w.ltm old_txn ~on_done:ignore;
  Engine.run w.engine;
  Alcotest.(check int) "no lost update" 107 (Row.value (Option.get (Database.read w.db ~table:"X" ~key:1)))

(* ------------------------------------------------------------------ *)
(* DLU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dlu_denies_local_update () =
  let w = make_world () in
  Bound.bind (Ltm.bound_registry w.ltm) [ Item.make ~site:site0 ~table:"X" ~key:1 ];
  let txn = Ltm.begin_txn w.ltm ~owner:(linc 1) in
  let result = ref None in
  Ltm.exec w.ltm txn (upd 1 5) ~on_done:(fun r -> result := Some r);
  Engine.run w.engine;
  (match !result with
  | Some (Ltm.Failed Ltm.Dlu_denied) -> ()
  | _ -> Alcotest.fail "expected DLU denial");
  Alcotest.(check int) "denial counted" 1 (Bound.denials (Ltm.bound_registry w.ltm))

let test_dlu_allows_local_read () =
  let w = make_world () in
  Bound.bind (Ltm.bound_registry w.ltm) [ Item.make ~site:site0 ~table:"X" ~key:1 ];
  let txn = Ltm.begin_txn w.ltm ~owner:(linc 1) in
  let result = ref None in
  Ltm.exec w.ltm txn (sel [ 1 ]) ~on_done:(fun r -> result := Some r);
  Engine.run w.engine;
  match !result with
  | Some (Ltm.Done (Command.Rows [ (1, 100) ])) -> ()
  | _ -> Alcotest.fail "local read of bound data must succeed"

let test_dlu_allows_global_update () =
  let w = make_world () in
  Bound.bind (Ltm.bound_registry w.ltm) [ Item.make ~site:site0 ~table:"X" ~key:1 ];
  let txn = Ltm.begin_txn w.ltm ~owner:(ginc 1) in
  let result = ref None in
  Ltm.exec w.ltm txn (upd 1 5) ~on_done:(fun r -> result := Some r);
  Engine.run w.engine;
  match !result with
  | Some (Ltm.Done (Command.Count 1)) -> ()
  | _ -> Alcotest.fail "global update of bound data is not DLU's business"

let test_bound_refcount () =
  let b = Bound.create () in
  let item = Item.make ~site:site0 ~table:"X" ~key:1 in
  Bound.bind b [ item ];
  Bound.bind b [ item ];
  Bound.unbind b [ item ];
  Alcotest.(check bool) "still bound" true (Bound.is_bound b ~table:"X" ~key:1);
  Bound.unbind b [ item ];
  Alcotest.(check bool) "now free" false (Bound.is_bound b ~table:"X" ~key:1)

(* ------------------------------------------------------------------ *)
(* Failure injector                                                    *)
(* ------------------------------------------------------------------ *)

(* The incarnations of global transaction 1 at site0, begun one after
   another: each executes an update, is left to the injector while
   [expose] runs the engine, and commits if it survived. Returns which
   survived. *)
let incarnations_struck w ~n ~expose =
  List.init n (fun k ->
      let owner = Txn.Incarnation.make ~txn:(Txn.global 1) ~site:site0 ~inc:k in
      let txn = Ltm.begin_txn w.ltm ~owner in
      Ltm.exec w.ltm txn (upd 1 1) ~on_done:ignore;
      expose txn;
      let survived = Ltm.is_alive txn in
      if survived then Ltm.commit w.ltm txn ~on_done:ignore;
      survived)

let test_injector_caps_prepared () =
  (* Every prepared incarnation is struck until the TW cap: exactly the
     first [max_per_victim] of them die. *)
  let w = make_world () in
  let inj =
    Failure.attach ~engine:w.engine ~rng:(Rng.create ~seed:5) ~config:(Failure.prepared_rate 1.0) w.ltm
  in
  let n = Failure.max_per_victim + 2 in
  let survived =
    incarnations_struck w ~n ~expose:(fun txn ->
        Engine.run w.engine;
        Ltm.mark_held_open w.ltm txn true;
        Engine.run w.engine)
  in
  Alcotest.(check int) "struck up to the cap" Failure.max_per_victim (Failure.injected inj);
  Alcotest.(check (list bool)) "the first ones die"
    (List.init n (fun k -> k >= Failure.max_per_victim))
    survived

let test_injector_caps_crashes () =
  (* Crashes at every tick strike each live incarnation, but a global
     transaction's incarnations at one site only [max_per_victim] times. *)
  let w = make_world () in
  let inj =
    Failure.attach ~engine:w.engine ~rng:(Rng.create ~seed:5)
      ~config:(Failure.crashes ~mean_interval:1 ~horizon:20_000) w.ltm
  in
  let n = Failure.max_per_victim + 2 in
  let survived =
    incarnations_struck w ~n ~expose:(fun _ ->
        Engine.run ~until:(Time.add (Engine.now w.engine) 1_000) w.engine)
  in
  Alcotest.(check bool) "crashes happened" true (Failure.crash_count inj > Failure.max_per_victim);
  Alcotest.(check int) "struck up to the cap" Failure.max_per_victim (Failure.injected inj);
  Alcotest.(check (list bool)) "the first ones die"
    (List.init n (fun k -> k >= Failure.max_per_victim))
    survived

let test_site_crash_collective_abort () =
  (* A crash aborts every live transaction at once (collective unilateral
     abort, paper §1). *)
  let w = make_world () in
  let rng = Rng.create ~seed:5 in
  let config = Failure.crashes ~mean_interval:1_000 ~horizon:5_000 in
  let inj = Failure.attach ~engine:w.engine ~rng ~config w.ltm in
  let txns = List.init 4 (fun n -> Ltm.begin_txn w.ltm ~owner:(ginc n)) in
  List.iteri (fun i txn -> Ltm.exec w.ltm txn (upd i 1) ~on_done:ignore) txns;
  Engine.run w.engine;
  Alcotest.(check bool) "at least one crash" true (Failure.crash_count inj >= 1);
  List.iter
    (fun txn -> Alcotest.(check bool) "all victims aborted" false (Ltm.is_active txn))
    txns;
  (* Rollback happened: all values restored. *)
  for k = 0 to 3 do
    Alcotest.(check int) "restored" 100 (Row.value (Option.get (Database.read w.db ~table:"X" ~key:k)))
  done

(* ------------------------------------------------------------------ *)
(* The central property: S2PL yields rigorous histories                *)
(* ------------------------------------------------------------------ *)

(* Random concurrent transactions against one LTM; the recorded history
   must be rigorous. *)
let run_random_workload ~seed ~n_txns =
  let w = make_world () in
  let rng = Rng.create ~seed in
  let rec client n =
    if n < n_txns then begin
      let txn = Ltm.begin_txn w.ltm ~owner:(ginc n) in
      let n_cmds = 1 + Rng.int rng ~bound:3 in
      let rec step i =
        if i >= n_cmds then Ltm.commit w.ltm txn ~on_done:(fun _ -> client (n + 1))
        else
          let cmd =
            if Rng.bool rng ~p:0.5 then sel [ Rng.int rng ~bound:5 ] else upd (Rng.int rng ~bound:5) 1
          in
          Ltm.exec w.ltm txn cmd ~on_done:(function
            | Ltm.Done _ -> step (i + 1)
            | Ltm.Failed _ -> client (n + 1))
      in
      step 0
    end
  in
  (* Several interleaved clients with distinct txn id ranges. *)
  let rec client2 base n =
    if n < n_txns then begin
      let txn = Ltm.begin_txn w.ltm ~owner:(ginc (base + n)) in
      let cmd = if Rng.bool rng ~p:0.5 then sel [ Rng.int rng ~bound:5 ] else upd (Rng.int rng ~bound:5) 1 in
      Ltm.exec w.ltm txn cmd ~on_done:(fun _ ->
          if Ltm.is_alive txn then Ltm.commit w.ltm txn ~on_done:(fun _ -> client2 base (n + 1))
          else client2 base (n + 1))
    end
  in
  client 0;
  client2 1000 0;
  client2 2000 0;
  Engine.run w.engine;
  Trace.history w.trace

let prop_s2pl_rigorous =
  QCheck.Test.make ~name:"S2PL histories are rigorous" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let h = run_random_workload ~seed ~n_txns:15 in
      Rigorous.is_rigorous (Hermes_history.Projection.ltm h site0))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

(* The trace as it was before columnar storage, kept verbatim as the
   reference: a list of events, reversed into a history on one shard,
   re-tagged and sorted across several. *)
module Trace_reference = struct
  type t = { mutable events : History.event list; mutable count : int }

  let create () = { events = []; count = 0 }

  let record t ~at op =
    t.events <- { History.op; at; seq = t.count } :: t.events;
    t.count <- t.count + 1

  let history t = History.of_events (List.rev t.events)

  let merged = function
    | [ t ] -> history t
    | ts ->
        let n = List.length ts in
        let events =
          List.concat
            (List.mapi
               (fun shard t ->
                 List.rev_map
                   (fun (e : History.event) -> { e with History.seq = (e.seq * n) + shard })
                   t.events)
               ts)
        in
        History.of_events events
end

(* An operation that names its shard and recording position, so any
   misplaced operation shows. *)
let trace_op shard i = Op.Global_commit (Txn.global ((shard * 100_000) + i))

(* One shard's recording: timestamps that mostly stay put (heavy ties
   within and across shards), lengths from empty to past one chunk, and
   sometimes a timestamp that goes back, as only a hand-built trace
   does. *)
let gen_shard =
  let open QCheck.Gen in
  let* len = frequency [ (1, return 0); (6, int_bound 40); (1, int_range 250 600) ] in
  let* steps = list_repeat len (frequency [ (4, return 0); (2, int_range 1 3); (1, return 50) ]) in
  let* back = frequency [ (9, return None); (1, map Option.some (int_bound (max 0 (len - 1)))) ] in
  let ats = List.rev (snd (List.fold_left (fun (at, acc) d -> (at + d, (at + d) :: acc)) (0, []) steps)) in
  return (List.mapi (fun i at -> if Some i = back then max 0 (at - 60) else at) ats)

let record_shards shards =
  let columnar = List.map (fun _ -> Trace.create ()) shards in
  let reference = List.map (fun _ -> Trace_reference.create ()) shards in
  List.iteri
    (fun x ats ->
      List.iteri
        (fun i at ->
          Trace.record (List.nth columnar x) ~at:(Time.of_int at) (trace_op x i);
          Trace_reference.record (List.nth reference x) ~at:(Time.of_int at) (trace_op x i))
        ats)
    shards;
  (columnar, reference)

let prop_trace_matches_reference =
  QCheck.Test.make ~name:"history and merged = list-and-sort reference" ~count:1000
    QCheck.(
      make
        ~print:Print.(list (fun ats -> Printf.sprintf "%d events: %s" (List.length ats) (list int ats)))
        Gen.(int_range 1 8 >>= fun k -> list_repeat k gen_shard))
    (fun shards ->
      let columnar, reference = record_shards shards in
      List.for_all2
        (fun t r -> History.ops (Trace.history t) = History.ops (Trace_reference.history r))
        columnar reference
      && History.ops (Trace.merged columnar) = History.ops (Trace_reference.merged reference))

let test_trace_out_of_order () =
  (* Hand-built: timestamps go back, so recording order is not (at, seq)
     order and the history is sorted, equal times by recording order. *)
  let t = Trace.create () in
  List.iteri (fun i at -> Trace.record t ~at:(Time.of_int at) (trace_op 0 i)) [ 30; 10; 20; 10; 30 ];
  let expected = List.map (trace_op 0) [ 1; 3; 2; 0; 4 ] in
  Alcotest.(check bool) "history in (at, seq) order" true (History.ops (Trace.history t) = expected);
  let u = Trace.create () in
  List.iteri (fun i at -> Trace.record u ~at:(Time.of_int at) (trace_op 1 i)) [ 10; 20 ];
  Alcotest.(check bool) "merged in (at, seq, shard) order" true
    (History.ops (Trace.merged [ t; u ])
    = [ trace_op 1 0; trace_op 0 1; trace_op 0 3; trace_op 1 1; trace_op 0 2; trace_op 0 0; trace_op 0 4 ])

let test_trace_snapshot_unchanged () =
  (* A history taken mid-run owns its operations: later records, in the
     same chunk or past it, leave it as it was. *)
  let t = Trace.create () and u = Trace.create () in
  let record n =
    for i = Trace.count t to Trace.count t + n - 1 do
      Trace.record t ~at:(Time.of_int i) (trace_op 0 i);
      Trace.record u ~at:(Time.of_int i) (trace_op 1 i)
    done
  in
  record 300;
  let h = Trace.history t and m = Trace.merged [ t; u ] in
  let h_ops = History.ops h and m_ops = History.ops m in
  record 500;
  Alcotest.(check int) "history length" 300 (History.length h);
  Alcotest.(check bool) "history unchanged" true (History.ops h = h_ops);
  Alcotest.(check bool) "merged unchanged" true (History.ops m = m_ops);
  Alcotest.(check bool) "history is the first 300 records" true (h_ops = List.init 300 (trace_op 0));
  Alcotest.(check int) "trace kept recording" 800 (History.length (Trace.history t))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ltm"
    [
      ( "lock",
        [
          Alcotest.test_case "shared compatible" `Quick test_lock_shared_compatible;
          Alcotest.test_case "exclusive blocks" `Quick test_lock_exclusive_blocks;
          Alcotest.test_case "reacquire" `Quick test_lock_reacquire;
          Alcotest.test_case "upgrade sole holder" `Quick test_lock_upgrade_sole_holder;
          Alcotest.test_case "upgrade waits" `Quick test_lock_upgrade_waits;
          Alcotest.test_case "FIFO no overtaking" `Quick test_lock_fifo_no_overtaking;
          Alcotest.test_case "cancel waits" `Quick test_lock_cancel_waits;
          Alcotest.test_case "blockers" `Quick test_lock_blockers;
          Alcotest.test_case "one wait per owner" `Quick test_lock_second_wait_rejected;
          QCheck_alcotest.to_alcotest prop_lock_index_matches_reference;
          Alcotest.test_case "index sequences cover grants" `Quick test_lock_sequence_coverage;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "update of missing row" `Quick test_decompose_update_missing;
          Alcotest.test_case "range select" `Quick test_decompose_select_range;
          Alcotest.test_case "state dependence (H1)" `Quick test_decompose_state_dependence;
          Alcotest.test_case "update range" `Quick test_decompose_update_range;
          Alcotest.test_case "plan lock modes" `Quick test_decompose_plan_modes;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "exec + commit" `Quick test_exec_commit;
          Alcotest.test_case "exec update range" `Quick test_exec_update_range;
          Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
          Alcotest.test_case "unilateral abort + UAN" `Quick test_unilateral_abort_uan;
          Alcotest.test_case "conflicts serialize" `Quick test_lock_conflict_serializes;
          Alcotest.test_case "lock timeout" `Quick test_lock_timeout_aborts;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "wait-die" `Quick test_wait_die;
          Alcotest.test_case "wound-wait" `Quick test_wound_wait;
        ] );
      ( "dlu",
        [
          Alcotest.test_case "denies local update" `Quick test_dlu_denies_local_update;
          Alcotest.test_case "allows local read" `Quick test_dlu_allows_local_read;
          Alcotest.test_case "allows global update" `Quick test_dlu_allows_global_update;
          Alcotest.test_case "refcount" `Quick test_bound_refcount;
        ] );
      ( "failure",
        [
          Alcotest.test_case "TW cap" `Quick test_injector_caps_prepared;
          Alcotest.test_case "TW cap under crashes" `Quick test_injector_caps_crashes;
          Alcotest.test_case "site crash = collective abort" `Quick test_site_crash_collective_abort;
        ] );
      ( "rigorousness",
        [ q prop_s2pl_rigorous ] );
      ( "trace",
        [
          q prop_trace_matches_reference;
          Alcotest.test_case "out-of-order trace sorted" `Quick test_trace_out_of_order;
          Alcotest.test_case "mid-run history unchanged" `Quick test_trace_snapshot_unchanged;
        ] );
    ]
