(* The Agent log — the 2PC Agent's stable storage.

   The paper's Appendix force-writes two records into it: the *prepare
   record* ("force write the prepare record in the Agent log" before
   READY) and the *commit record* ("write the commit record to the Agent
   log; commit the local subtransaction and the commit record" before
   COMMIT-ACK). Resubmission replays "commands from the Agent log", so
   the commands are appended as they arrive, and the certification
   extension needs "the so-far biggest serial number of a committed
   subtransaction", which therefore also lives here.

   In the simulation the log is an ordinary data structure that *survives
   an agent crash* (it is owned by the site, not by the agent's volatile
   state): [Agent.crash] discards everything except this log, and
   [Agent.recover] rebuilds the prepared subtransactions from it. *)

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

let entry t ~gid ~coordinator =
  match Int_tbl.find_opt t.entries gid with
  | Some e -> e
  | None ->
      let e =
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
      in
      Int_tbl.replace t.entries gid e;
      e

let find t ~gid = Int_tbl.find_opt t.entries gid

let append_command e cmd = e.commands <- cmd :: e.commands
let commands e = List.rev e.commands

let note_incarnation e ~inc = if inc > e.inc then e.inc <- inc

(* The prepare record (Appendix B) and the commit record (Appendix C),
   written without a force of their own: under group commit the caller
   stages a whole batch and pays one [batch_forced] for all of it. The
   commit record also advances the biggest committed serial number the
   certification extension checks, and is idempotent: a decision
   re-delivered after recovery (retransmission, replayed COMMIT) writes
   nothing. *)
let stage_prepare e ~sn =
  e.sn <- Some sn;
  e.prepared <- true

let stage_commit t e =
  if not e.committed then begin
    e.committed <- true;
    match e.sn with
    | Some sn ->
        t.max_committed_sn <-
          Some (match t.max_committed_sn with Some m when Sn.(m > sn) -> m | _ -> sn)
    | None -> ()
  end

let batch_forced t = t.force_writes <- t.force_writes + 1

(* The same records, each force-written on its own. A re-delivered
   decision pays no second force. *)
let force_prepare t e ~sn =
  stage_prepare e ~sn;
  batch_forced t

let force_commit t e =
  if not e.committed then begin
    stage_commit t e;
    batch_forced t
  end

(* A finished subtransaction keeps what a late message reads through the
   agent's log view (the flags and the serial number): its commands and
   coordinator go, since only recovery reads them and recovery skips
   finished entries ([in_doubt]). [bound] stays for the cleanup's unbind,
   which runs next and empties it. *)
let finish e =
  e.commands <- [];
  e.coordinator <- None

let note_local_commit e =
  e.locally_committed <- true;
  finish e

let note_rollback e =
  e.rolled_back <- true;
  finish e

let max_committed_sn t = t.max_committed_sn
let force_writes t = t.force_writes

(* Entries needing recovery after a crash: prepared (READY promised), not
   rolled back, and not yet *locally* committed — both the classic
   in-doubt case and the commit-record-forced-but-crashed-before-the-
   local-commit case, which recovery must redo. *)
let in_doubt t =
  Int_tbl.fold
    (fun _ e acc ->
      if e.prepared && (not e.locally_committed) && not e.rolled_back then e :: acc else acc)
    t.entries []
  |> List.sort (fun a b -> Int.compare a.gid b.gid)

let n_entries t = Int_tbl.length t.entries
