(* The Agent log — the 2PC Agent's stable storage.

   The paper's Appendix force-writes two records into it: the *prepare
   record* ("force write the prepare record in the Agent log" before
   READY) and the *commit record* ("write the commit record to the Agent
   log; commit the local subtransaction and the commit record" before
   COMMIT-ACK). Resubmission replays "commands from the Agent log", so
   the commands are appended as they arrive, and the certification
   extension needs "the so-far biggest serial number of a committed
   subtransaction", which therefore also lives here.

   The log is written only through [apply] and [apply_batch], over the
   agent machine's own record vocabulary ({!Agent_sm.record}) — the DLU
   bound-data set through [set_bound] — and read
   back as the machine's inputs ([view], [in_doubt]). The simulator's
   agent and the model checker keep the same values: the log survives an
   agent crash (it is owned by the site, not by the machine's volatile
   state), and [Agent.recover] rebuilds the prepared subtransactions
   from it. *)

open Hermes_kernel

type entry = {
  gid : int;
  mutable commands : Command.t list;  (* newest first *)
  mutable inc : int;  (* highest incarnation index ever begun *)
  mutable sn : Sn.t option;  (* force-written with the prepare record *)
  mutable coordinator : Wire.address option;
  mutable bound : Item.t list;  (* the DLU bound-data set, logged at prepare *)
  mutable prepared : bool;
  mutable committed : bool;  (* the commit record (the decision) is durable *)
  mutable locally_committed : bool;  (* the local commit actually happened *)
  mutable rolled_back : bool;
}

type t = {
  entries : entry Int_tbl.t;
  mutable max_committed_sn : Sn.t option;
  mutable force_writes : int;  (* how many synchronous log forces were paid *)
}

let create () = { entries = Int_tbl.create 32; max_committed_sn = None; force_writes = 0 }

let copy t =
  let entries = Int_tbl.create (Int_tbl.length t.entries) in
  Int_tbl.iter (fun gid e -> Int_tbl.replace entries gid { e with gid }) t.entries;
  { t with entries }

let find t ~gid = Int_tbl.find_opt t.entries gid

let entry_exn t gid =
  match Int_tbl.find_opt t.entries gid with
  | Some e -> e
  | None -> Fmt.invalid_arg "Agent_log: no entry for T%d" gid

(* A finished subtransaction keeps what a late message reads through
   [view] (the flags and the serial number): its commands and
   coordinator go, since only recovery reads them and recovery skips
   finished entries ([in_doubt]). [bound] stays for the cleanup's unbind,
   which runs next and empties it. *)
let finish e =
  e.commands <- [];
  e.coordinator <- None

(* One record. [force] pays a synchronous force for a prepare record and
   for the first commit record; without it the record is staged, and the
   batch it belongs to pays one force for all. The commit record also
   advances the biggest committed serial number the certification
   extension checks, and is idempotent: a decision re-delivered after
   recovery (retransmission, replayed COMMIT) writes nothing. The other
   records are bookkeeping notes and never pay a force. *)
let write t ~force (r : Agent_sm.record) =
  match r with
  | R_entry { gid; coordinator } ->
      if not (Int_tbl.mem t.entries gid) then
        Int_tbl.replace t.entries gid
          {
            gid;
            commands = [];
            inc = 0;
            sn = None;
            coordinator = Some coordinator;
            bound = [];
            prepared = false;
            committed = false;
            locally_committed = false;
            rolled_back = false;
          }
  | R_command { gid; cmd } ->
      let e = entry_exn t gid in
      e.commands <- cmd :: e.commands
  | R_incarnation { gid; inc } ->
      let e = entry_exn t gid in
      if inc > e.inc then e.inc <- inc
  | R_prepare { gid; sn } ->
      let e = entry_exn t gid in
      e.sn <- Some sn;
      e.prepared <- true;
      if force then t.force_writes <- t.force_writes + 1
  | R_commit { gid } -> (
      let e = entry_exn t gid in
      if not e.committed then begin
        e.committed <- true;
        (match e.sn with
        | Some sn ->
            t.max_committed_sn <-
              Some (match t.max_committed_sn with Some m when Sn.(m > sn) -> m | _ -> sn)
        | None -> ());
        if force then t.force_writes <- t.force_writes + 1
      end)
  | R_local_commit { gid } ->
      let e = entry_exn t gid in
      e.locally_committed <- true;
      finish e
  | R_rollback { gid } -> (
      match Int_tbl.find_opt t.entries gid with
      | Some e ->
          e.rolled_back <- true;
          finish e
      | None -> ())

let apply t r = write t ~force:true r

let apply_batch t rs =
  List.iter (write t ~force:false) rs;
  t.force_writes <- t.force_writes + 1

(* The DLU bound-data set, kept with the entry so that it survives a
   crash; returns the set it replaces. *)
let set_bound t ~gid items =
  let e = entry_exn t gid in
  let old = e.bound in
  e.bound <- items;
  old

let commands e = List.rev e.commands
let max_committed_sn t = t.max_committed_sn
let force_writes t = t.force_writes
let n_entries t = Int_tbl.length t.entries

let entries t =
  Int_tbl.fold (fun _ e acc -> e :: acc) t.entries [] |> List.sort (fun a b -> Int.compare a.gid b.gid)

let unknown : Agent_sm.log_view =
  {
    known = false;
    prepared = false;
    committed = false;
    locally_committed = false;
    rolled_back = false;
    sn = None;
  }

let view t ~gid : Agent_sm.log_view =
  match Int_tbl.find_opt t.entries gid with
  | Some e ->
      {
        known = true;
        prepared = e.prepared;
        committed = e.committed;
        locally_committed = e.locally_committed;
        rolled_back = e.rolled_back;
        sn = e.sn;
      }
  | None -> unknown

(* Entries needing recovery after a crash: prepared (READY promised), not
   rolled back, and not yet *locally* committed — both the classic
   in-doubt case and the commit-record-forced-but-crashed-before-the-
   local-commit case, which recovery must redo. *)
let in_doubt t =
  Int_tbl.fold
    (fun _ e acc -> if e.prepared && (not e.locally_committed) && not e.rolled_back then e :: acc else acc)
    t.entries []
  |> List.sort (fun a b -> Int.compare a.gid b.gid)
  |> List.map (fun e ->
         {
           Agent_sm.r_gid = e.gid;
           r_coordinator = Option.get e.coordinator;
           r_inc = e.inc;
           r_sn = e.sn;
           r_commands = commands e;
           r_committed = e.committed;
         })
