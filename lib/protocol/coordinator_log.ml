(* The Coordinator log — a coordinating site's stable 2PC storage,
   mirroring {!Agent_log} on the other side of the protocol.

   Three records are force-written by the coordinator machine: the
   *begin record* (the participant set, before the BEGINs leave, so a
   round lost to a crash mid-execution is discoverable), the *prepared
   record* (the participant set and serial number, before the first
   PREPARE leaves — any participant that ever promises is covered by a
   durable record) and the *decision record* (the commit/abort bit, at
   decide time, before the decision is announced).

   Like the Agent log, this is owned by the site, not by any
   coordinator's volatile state, and the simulator and the model checker
   keep the same values: a crash discards the coordinators' machines but
   keeps this log, and recovery replays it — re-driving logged decisions
   and presuming abort for entries with none (2PC presumed abort). *)

open Hermes_kernel

type entry = {
  gid : int;
  mutable participants : Site.t list;
  mutable sn : Sn.t option;  (* force-written with the prepared record *)
  mutable prepared : bool;  (* PREPAREs were sent *)
  mutable decision : bool option;  (* [Some committed] once decided *)
}

type t = {
  entries : entry Int_tbl.t;
  mutable force_writes : int;  (* how many synchronous log forces were paid *)
}

let create () = { entries = Int_tbl.create 16; force_writes = 0 }

let copy t =
  let entries = Int_tbl.create (Int_tbl.length t.entries) in
  Int_tbl.iter (fun gid e -> Int_tbl.replace entries gid { e with gid }) t.entries;
  { t with entries }

let find t ~gid = Int_tbl.find_opt t.entries gid

(* One record of round [gid]. The decision is idempotent: a
   recovery-time presumed abort re-written after a second crash keeps
   the first decision (a decision, once forced, never changes). *)
let stage t ~gid (r : Coordinator_sm.record) =
  let e =
    match Int_tbl.find_opt t.entries gid with
    | Some e -> e
    | None ->
        let e = { gid; participants = []; sn = None; prepared = false; decision = None } in
        Int_tbl.replace t.entries gid e;
        e
  in
  match r with
  | R_begin { participants } -> e.participants <- participants
  | R_prepared { participants; sn } ->
      e.participants <- participants;
      e.sn <- Some sn;
      e.prepared <- true
  | R_decision { committed } -> (
      match e.decision with None -> e.decision <- Some committed | Some _ -> ())

let force_tick t = t.force_writes <- t.force_writes + 1

let apply t ~gid r =
  stage t ~gid r;
  force_tick t

(* The round finished: every participant acknowledged its decision, so
   no recovery will re-drive it, and the participant set — read only by
   recovery of an unfinished round — goes. The decision stays: it answers
   any late inquiry for the round. *)
let retire t ~gid = match find t ~gid with Some e -> e.participants <- [] | None -> ()

let recover t ~gid =
  match find t ~gid with
  | Some e ->
      Some (Coordinator_sm.Recover { participants = e.participants; sn = e.sn; decision = e.decision })
  | None -> None

let entries t =
  Int_tbl.fold (fun _ e acc -> e :: acc) t.entries [] |> List.sort (fun a b -> Int.compare a.gid b.gid)

let force_writes t = t.force_writes
