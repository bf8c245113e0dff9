(* The discrete-event engine.

   Components (coordinators, agents, LTMs, clients, the failure injector)
   are callback state machines: they schedule events, and an event firing
   runs a callback at a virtual instant. Determinism: events fire in
   (time, sequence-number) order, where the sequence number is assigned at
   scheduling time, so two runs with the same seed interleave identically.

   Timers are cancellable — the certifier's alive-check timers and
   commit-certification retry timers (Appendix A and C of the paper) need
   cancellation when a subtransaction leaves the prepared state.

   The queue is a binary min-heap whose entries are three ints: the
   event's time, its sequence number and the slot that holds it. An event
   is written into its slot once, when scheduled, and read back once, when
   popped; a sift step moves only ints. The arrays live in the major heap,
   so storing a pointer to a young event into them goes through the write
   barrier; storing an int does not. *)

open Hermes_kernel

(* An event is its own cancellation handle. *)
type event = { at : Time.t; run : unit -> unit; mutable cancelled : bool }
type timer = event

(* What a freed slot holds, so a popped event is not kept alive. *)
let vacant = { at = Time.zero; run = ignore; cancelled = true }

type t = {
  mutable now : Time.t;
  (* The heap: entry [i] is ([times.(i)], [seqs.(i)], [slots.(i)]), ordered by
     (at, seq); entries [0 .. size - 1] are live. *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable table : event array;  (* slot -> event *)
  mutable free : int array;
      (* a stack: [free.(0 .. capacity - size - 1)] are the slots no heap
         entry names *)
  mutable next_seq : int;
  mutable executed : int;
  mutable halted : bool;
  mutable last_fired : Time.t;  (* time of the last non-cancelled event *)
  mutable max_pending : int;  (* queue-depth high-water mark *)
  mutable cancelled_fired : int;  (* popped events whose timer was cancelled *)
}

exception Stuck of string

let initial_capacity = 16

let create () =
  let n = initial_capacity in
  {
    now = Time.zero;
    times = Array.make n 0;
    seqs = Array.make n 0;
    slots = Array.make n 0;
    size = 0;
    table = Array.make n vacant;
    free = Array.init n (fun i -> n - 1 - i);
    next_seq = 0;
    executed = 0;
    halted = false;
    last_fired = Time.zero;
    max_pending = 0;
    cancelled_fired = 0;
  }

let now t = t.now
let last_event_at t = t.last_fired

(* Double every array; the new slots are all free. Called only when the
   heap is full, so no slot is free before. *)
let grow t =
  let n = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.table <- extend t.table vacant;
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i)

let[@inline] before t i ~at ~seq = t.times.(i) < at || (t.times.(i) = at && t.seqs.(i) < seq)

let[@inline] put t i ~at ~seq ~slot =
  t.times.(i) <- at;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

let[@inline] move t ~src ~dst = put t dst ~at:t.times.(src) ~seq:t.seqs.(src) ~slot:t.slots.(src)

(* Sift the hole at [i] up to where (at, seq) belongs, then fill it. *)
let rec sift_up t i ~at ~seq ~slot =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before t parent ~at ~seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent ~at ~seq ~slot
  end
  else put t i ~at ~seq ~slot

(* Sift the hole at [i] down to where (at, seq) belongs among the first
   [t.size] entries, then fill it. *)
let rec sift_down t i ~at ~seq ~slot =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.size && before t (l + 1) ~at:t.times.(l) ~seq:t.seqs.(l) then l + 1 else l in
  if c < t.size && before t c ~at ~seq then begin
    move t ~src:c ~dst:i;
    sift_down t c ~at ~seq ~slot
  end
  else put t i ~at ~seq ~slot

let schedule t ~delay run =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let ev = { at = Time.add t.now delay; run; cancelled = false } in
  if t.size = Array.length t.times then grow t;
  let slot = t.free.(Array.length t.free - t.size - 1) in
  t.table.(slot) <- ev;
  sift_up t t.size ~at:(ev.at :> int) ~seq:t.next_seq ~slot;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  if t.size > t.max_pending then t.max_pending <- t.size;
  ev

let schedule_unit t ~delay run = ignore (schedule t ~delay run)

let cancel timer = timer.cancelled <- true
let fire_at timer = timer.at

let halt t = t.halted <- true

(* Remove the earliest event and free its slot. *)
let pop t =
  let slot = t.slots.(0) in
  let ev = t.table.(slot) in
  t.table.(slot) <- vacant;
  t.size <- t.size - 1;
  t.free.(Array.length t.free - t.size - 1) <- slot;
  let last = t.size in
  if last > 0 then sift_down t 0 ~at:t.times.(last) ~seq:t.seqs.(last) ~slot:t.slots.(last);
  ev

let step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    if Time.(ev.at < t.now) then invalid_arg "Engine.step: time went backwards";
    t.now <- ev.at;
    if ev.cancelled then t.cancelled_fired <- t.cancelled_fired + 1
    else begin
      t.executed <- t.executed + 1;
      t.last_fired <- ev.at;
      ev.run ()
    end;
    true
  end

let next_at t = if t.size = 0 then None else Some (Time.of_int t.times.(0))

type stats = { events : int; max_pending : int; cancelled : int; live : int }

let stats t =
  { events = t.executed; max_pending = t.max_pending; cancelled = t.cancelled_fired; live = t.size }

let run ?until ?(max_events = 50_000_000) t =
  (* An event is due when one is pending at or before [until]. *)
  let due () =
    t.size > 0 && match until with None -> true | Some limit -> t.times.(0) <= (limit : Time.t :> int)
  in
  while (not t.halted) && t.executed < max_events && due () do
    ignore (step t)
  done;
  if (not t.halted) && due () then raise (Stuck "Engine.run: event budget exhausted (livelock?)");
  match until with Some limit when not t.halted -> t.now <- Time.max t.now limit | _ -> ()
