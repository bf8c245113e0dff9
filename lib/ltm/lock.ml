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
  mutable holders : (int * mode) list;  (* each owner appears at most once *)
  mutable queue : request list;  (* head = next to grant *)
}

let key_equal ((table, k) : key) (table', k') = Int.equal k k' && String.equal table table'

(* Typed tables: lookups compare keys with their own equality, not the
   polymorphic one. The entry table keeps the generic hash, so its
   iteration order, which [waiting] exposes, is what it always was. *)
module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let hash = Hashtbl.hash
end)

module Owner_tbl = Hashtbl.Make (Int)

type t = {
  entries : entry Key_tbl.t;
  held : key list ref Owner_tbl.t;  (* owner -> keys it holds *)
  waits : key Owner_tbl.t;  (* owner -> the key it is queued on *)
}

let create () = { entries = Key_tbl.create 256; held = Owner_tbl.create 64; waits = Owner_tbl.create 64 }

let entry t key =
  match Key_tbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { holders = []; queue = [] } in
      Key_tbl.replace t.entries key e;
      e

let note_held t ~owner key =
  match Owner_tbl.find_opt t.held owner with
  | Some l -> if not (List.exists (key_equal key) !l) then l := key :: !l
  | None -> Owner_tbl.replace t.held owner (ref [ key ])

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
let enqueue t key ~owner =
  if Owner_tbl.mem t.waits owner then invalid_arg "Lock.acquire: owner is already waiting";
  Owner_tbl.replace t.waits owner key

(* Apply a drain's grants to the indexes: each granted owner holds [key]
   and waits no more. *)
let note_granted t key granted =
  List.iter
    (fun r ->
      Owner_tbl.remove t.waits r.req_owner;
      note_held t ~owner:r.req_owner key)
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
        enqueue t key ~owner;
        e.queue <- { req_owner = owner; req_mode = Exclusive; upgrade = true; on_grant } :: e.queue;
        Waiting
      end
  | None ->
      if e.queue = [] && grantable e ~owner ~mode then begin
        set_holder e ~owner ~mode;
        note_held t ~owner key;
        Granted
      end
      else begin
        enqueue t key ~owner;
        e.queue <- e.queue @ [ { req_owner = owner; req_mode = mode; upgrade = false; on_grant } ];
        Waiting
      end

(* Remove the queued request of [owner] (e.g. it was aborted while
   waiting); may unblock others whose grant was queued behind it. Returns
   the callbacks of newly granted requests. *)
let cancel_waits t ~owner =
  match Owner_tbl.find_opt t.waits owner with
  | None -> []
  | Some key ->
      Owner_tbl.remove t.waits owner;
      let e = Key_tbl.find t.entries key in
      e.queue <- List.filter (fun r -> r.req_owner <> owner) e.queue;
      let granted = drain e in
      note_granted t key granted;
      List.map (fun r -> r.on_grant) granted

(* Release every lock [owner] holds. Returns grant callbacks of waiters
   that became grantable. *)
let release_all t ~owner =
  let keys = match Owner_tbl.find_opt t.held owner with Some l -> !l | None -> [] in
  Owner_tbl.remove t.held owner;
  let newly = ref [] in
  List.iter
    (fun key ->
      match Key_tbl.find_opt t.entries key with
      | None -> ()
      | Some e ->
          e.holders <- List.remove_assoc owner e.holders;
          let granted = drain e in
          note_granted t key granted;
          newly := List.map (fun r -> r.on_grant) granted @ !newly)
    keys;
  !newly

(* Release only the Shared locks of [owner] — the non-rigorous ablation
   (dropping read locks early breaks the SRS assumption on purpose). *)
let release_shared t ~owner =
  let keys = match Owner_tbl.find_opt t.held owner with Some l -> !l | None -> [] in
  let newly = ref [] in
  let kept = ref [] in
  List.iter
    (fun key ->
      match Key_tbl.find_opt t.entries key with
      | None -> ()
      | Some e -> (
          match holder_mode e owner with
          | Some Shared ->
              e.holders <- List.remove_assoc owner e.holders;
              let granted = drain e in
              note_granted t key granted;
              newly := List.map (fun r -> r.on_grant) granted @ !newly
          | Some Exclusive -> kept := key :: !kept
          | None -> ()))
    keys;
  (match Owner_tbl.find_opt t.held owner with Some l -> l := !kept | None -> ());
  !newly

let holders t key = match Key_tbl.find_opt t.entries key with Some e -> e.holders | None -> []

(* Current holders that conflict with a (hypothetical or queued) request —
   the wait-for edges for deadlock detection. *)
let blockers t key ~owner ~mode =
  match Key_tbl.find_opt t.entries key with
  | None -> []
  | Some e ->
      List.filter_map
        (fun (h, m) -> if h <> owner && not (compatible mode m) then Some h else None)
        e.holders

(* All waiting requests, as (key, owner, mode) triples. *)
let waiting t =
  Key_tbl.fold
    (fun key e acc -> List.fold_left (fun acc r -> (key, r.req_owner, r.req_mode) :: acc) acc e.queue)
    t.entries []

let held_keys t ~owner = match Owner_tbl.find_opt t.held owner with Some l -> !l | None -> []

let n_locks_held t = Key_tbl.fold (fun _ e acc -> acc + List.length e.holders) t.entries 0
let n_waiting t = Key_tbl.fold (fun _ e acc -> acc + List.length e.queue) t.entries 0
