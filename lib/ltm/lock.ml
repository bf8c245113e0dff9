(* The lock table of one LTM: item-granularity shared/exclusive locks with
   FIFO wait queues and lock upgrades.

   Holding all locks to transaction end (which {!Ltm} enforces) gives
   strict two-phase locking, hence rigorous histories — the SRS assumption
   the whole Certifier soundness argument rests on. The table itself is
   policy-free: it grants, queues and releases; hold durations, timeouts
   and deadlock handling live in the LTM.

   Grant discipline: strict FIFO from the queue head (no overtaking), so
   writers cannot starve behind a stream of readers. Upgrades (held Shared,
   requesting Exclusive) jump to the queue head and are granted once the
   upgrader is the sole holder; two simultaneous upgraders deadlock, which
   the LTM's timeout/detection resolves.

   Grant callbacks run synchronously inside [release_all]/[cancel_waits];
   the LTM defers real work through the engine to avoid reentrancy.

   An owner waits on at most one key at a time (the LTM runs one command
   per transaction and acquires its locks one after another), so an
   owner -> key index of the queued requests lets [cancel_waits] go
   straight to the one queue to purge. *)

open Hermes_kernel

type mode = Shared | Exclusive

let pp_mode ppf = function Shared -> Fmt.string ppf "S" | Exclusive -> Fmt.string ppf "X"

type key = string * int

type request = {
  req_owner : int;
  req_mode : mode;
  upgrade : bool;
  on_grant : unit -> unit;
}

type entry = {
  key : key;
  mutable holders : (int * mode) list;  (* each owner appears at most once *)
  mutable queue : request list;  (* head = next to grant *)
}

(* A lock is found by its table's name ({!Tables}) and then by its row
   key in that table's int table: no generic hash on the hot path. The
   owner indexes hold entries, which carry their keys, so releasing and
   cancelling reach a lock without a lookup. *)
type t = {
  tables : entry Tables.t;
  held : entry list ref Int_tbl.t;  (* owner -> locks it holds, newest first *)
  waits : entry Int_tbl.t;  (* owner -> the lock it is queued on *)
}

let create () = { tables = Tables.create ~rows:256; held = Int_tbl.create 64; waits = Int_tbl.create 64 }

let entry t ((name, k) as key) =
  let rows = Tables.find_or_add t.tables name in
  match Int_tbl.find_opt rows k with
  | Some e -> e
  | None ->
      let e = { key; holders = []; queue = [] } in
      Int_tbl.replace rows k e;
      e

let find_entry t (name, k) =
  match Tables.find t.tables name with rows -> Int_tbl.find_opt rows k | exception Not_found -> None

(* One entry per key, so an entry's identity stands for its key. *)
let note_held t ~owner e =
  match Int_tbl.find_opt t.held owner with
  | Some l -> if not (List.memq e !l) then l := e :: !l
  | None -> Int_tbl.replace t.held owner (ref [ e ])

let compatible requested held = match (requested, held) with Shared, Shared -> true | _ -> false

let holder_mode e owner = List.assoc_opt owner e.holders

(* Can [owner] be granted [mode] right now, given current holders? *)
let grantable e ~owner ~mode =
  List.for_all
    (fun (h, m) -> h = owner || compatible mode m)
    e.holders

let set_holder e ~owner ~mode =
  let others = List.remove_assoc owner e.holders in
  (* An owner's mode only strengthens: X covers S. *)
  let mode =
    match (holder_mode e owner, mode) with Some Exclusive, _ -> Exclusive | _, m -> m
  in
  e.holders <- (owner, mode) :: others

type outcome = Granted | Waiting

(* Process the queue head-first, granting while possible. Returns the
   grant callbacks to run (already applied to the table state). *)
let drain e =
  let granted = ref [] in
  let rec go () =
    match e.queue with
    | [] -> ()
    | r :: rest ->
        let ok =
          if r.upgrade then
            (* Upgrade: sole holder required. *)
            List.for_all (fun (h, _) -> h = r.req_owner) e.holders
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

(* Queue a request, recording it in the wait index. *)
let enqueue t e ~owner =
  if Int_tbl.mem t.waits owner then invalid_arg "Lock.acquire: owner is already waiting";
  Int_tbl.replace t.waits owner e

(* Apply a drain's grants to the indexes: each granted owner holds [e]'s
   key and waits no more. *)
let note_granted t e granted =
  List.iter
    (fun r ->
      Int_tbl.remove t.waits r.req_owner;
      note_held t ~owner:r.req_owner e)
    granted

let acquire t key ~owner ~mode ~on_grant =
  let e = entry t key in
  match holder_mode e owner with
  | Some Exclusive -> Granted  (* X covers everything *)
  | Some Shared when mode = Shared -> Granted
  | Some Shared ->
      (* Upgrade S -> X. *)
      if List.for_all (fun (h, _) -> h = owner) e.holders && e.queue = [] then begin
        set_holder e ~owner ~mode:Exclusive;
        Granted
      end
      else begin
        enqueue t e ~owner;
        e.queue <- { req_owner = owner; req_mode = Exclusive; upgrade = true; on_grant } :: e.queue;
        Waiting
      end
  | None ->
      if e.queue = [] && grantable e ~owner ~mode then begin
        set_holder e ~owner ~mode;
        note_held t ~owner e;
        Granted
      end
      else begin
        enqueue t e ~owner;
        e.queue <- e.queue @ [ { req_owner = owner; req_mode = mode; upgrade = false; on_grant } ];
        Waiting
      end

(* Remove the queued request of [owner] (e.g. it was aborted while
   waiting); may unblock others whose grant was queued behind it. Returns
   the callbacks of newly granted requests. *)
let cancel_waits t ~owner =
  match Int_tbl.find_opt t.waits owner with
  | None -> []
  | Some e ->
      Int_tbl.remove t.waits owner;
      e.queue <- List.filter (fun r -> r.req_owner <> owner) e.queue;
      let granted = drain e in
      note_granted t e granted;
      List.map (fun r -> r.on_grant) granted

(* Release every lock [owner] holds. Returns grant callbacks of waiters
   that became grantable. *)
let release_all t ~owner =
  let held = match Int_tbl.find_opt t.held owner with Some l -> !l | None -> [] in
  Int_tbl.remove t.held owner;
  let newly = ref [] in
  List.iter
    (fun e ->
      e.holders <- List.remove_assoc owner e.holders;
      let granted = drain e in
      note_granted t e granted;
      newly := List.map (fun r -> r.on_grant) granted @ !newly)
    held;
  !newly

let holders t key = match find_entry t key with Some e -> e.holders | None -> []

(* Current holders that conflict with a (hypothetical or queued) request —
   the wait-for edges for deadlock detection. *)
let blockers t key ~owner ~mode =
  match find_entry t key with
  | None -> []
  | Some e ->
      List.filter_map
        (fun (h, m) -> if h <> owner && not (compatible mode m) then Some h else None)
        e.holders

let compare_key (table, k) (table', k') =
  match String.compare table table' with 0 -> Int.compare k k' | c -> c

(* All waiting requests, as (key, owner, mode) triples: by ascending key,
   each key's requests in queue (FIFO) order — independent of how the
   tables lay their entries out. *)
let waiting t =
  Tables.fold
    (fun _ rows acc -> Int_tbl.fold (fun _ e acc -> if e.queue = [] then acc else e :: acc) rows acc)
    t.tables []
  |> List.sort (fun e e' -> compare_key e.key e'.key)
  |> List.concat_map (fun e -> List.map (fun r -> (e.key, r.req_owner, r.req_mode)) e.queue)

let held_keys t ~owner =
  match Int_tbl.find_opt t.held owner with Some l -> List.map (fun e -> e.key) !l | None -> []

