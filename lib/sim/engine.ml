(* The discrete-event engine.

   Components (coordinators, agents, LTMs, clients, the failure injector)
   are callback state machines: they schedule events, and an event firing
   runs a callback at a virtual instant. Determinism: events fire in
   (time, sequence-number) order, where the sequence number is assigned at
   scheduling time, so two runs with the same seed interleave identically.

   Timers are cancellable — the certifier's alive-check timers and
   commit-certification retry timers (Appendix A and C of the paper) need
   cancellation when a subtransaction leaves the prepared state.

   The queue is a binary min-heap whose entries are two ints: a key that
   packs the event's time above its sequence number, so that one integer
   comparison orders (time, sequence) pairs, and the slot that holds the
   event. An event is written into its slot once, when scheduled, and read
   back once, when popped; a sift step moves only ints. The arrays live in
   the major heap, so storing a pointer to a young event into them goes
   through the write barrier; storing an int does not. *)

open Hermes_kernel

(* An event is its own cancellation handle. *)
type event = { at : Time.t; run : unit -> unit; mutable cancelled : bool }
type timer = event

(* What a freed slot holds, so a popped event is not kept alive. *)
let vacant = { at = Time.zero; run = ignore; cancelled = true }

type t = {
  mutable now : Time.t;
  (* The heap: entry [i] is ([keys.(i)], [slots.(i)]), ordered by key;
     entries [0 .. size - 1] are live. *)
  mutable keys : int array;
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

(* A key is [time lsl seq_bits lor seq]: 32 bits of time (about 71
   simulated minutes; the longest run here stops at 10^9 ticks) above 30
   bits of sequence number (about 10^9 schedules; [run] stops at 5 * 10^7
   events unless told otherwise). Both parts are non-negative, so keys
   compare as the pairs do, and no key is negative. *)
let seq_bits = 30
let max_seq = (1 lsl seq_bits) - 1
let max_time = Time.of_int (max_int lsr seq_bits)
let[@inline] time_of key = key lsr seq_bits

let initial_capacity = 16

let create ?(first_seq = 0) () =
  if first_seq < 0 || first_seq > max_seq then invalid_arg "Engine.create: first_seq out of range";
  let n = initial_capacity in
  {
    now = Time.zero;
    keys = Array.make n 0;
    slots = Array.make n 0;
    size = 0;
    table = Array.make n vacant;
    free = Array.init n (fun i -> n - 1 - i);
    next_seq = first_seq;
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
  let n = Array.length t.keys in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- extend t.keys 0;
  t.slots <- extend t.slots 0;
  t.table <- extend t.table vacant;
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i)

(* The sifts index the arrays unchecked: every position they touch is
   below [t.size] or is the hole at [t.size], and both arrays hold
   [Array.length t.keys] entries. *)
let[@inline] key t i = Array.unsafe_get t.keys i

let[@inline] put t i ~key ~slot =
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.slots i slot

let[@inline] move t ~src ~dst = put t dst ~key:(key t src) ~slot:(Array.unsafe_get t.slots src)

(* Sift the hole at [i] up to where [key] belongs, then fill it. *)
let rec sift_up t i ~key:k ~slot =
  let parent = (i - 1) / 2 in
  if i > 0 && key t parent > k then begin
    move t ~src:parent ~dst:i;
    sift_up t parent ~key:k ~slot
  end
  else put t i ~key:k ~slot

(* Sift the hole at [i] down to where [key] belongs among the first
   [t.size] entries, then fill it. *)
let rec sift_down t i ~key:k ~slot =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.size && key t (l + 1) < key t l then l + 1 else l in
  if c < t.size && key t c < k then begin
    move t ~src:c ~dst:i;
    sift_down t c ~key:k ~slot
  end
  else put t i ~key:k ~slot

let schedule t ~delay run =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  if delay > Time.diff max_time t.now then invalid_arg "Engine.schedule: fire time past Engine.max_time";
  if t.next_seq > max_seq then invalid_arg "Engine.schedule: sequence numbers exhausted";
  let ev = { at = Time.add t.now delay; run; cancelled = false } in
  if t.size = Array.length t.keys then grow t;
  let slot = t.free.(Array.length t.free - t.size - 1) in
  t.table.(slot) <- ev;
  sift_up t t.size ~key:(((ev.at :> int) lsl seq_bits) lor t.next_seq) ~slot;
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
  if last > 0 then sift_down t 0 ~key:t.keys.(last) ~slot:t.slots.(last);
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

let next_at t = if t.size = 0 then None else Some (Time.of_int (time_of t.keys.(0)))

type stats = { events : int; max_pending : int; cancelled : int; live : int }

let stats t =
  { events = t.executed; max_pending = t.max_pending; cancelled = t.cancelled_fired; live = t.size }

let run ?until ?(max_events = 50_000_000) t =
  (* An event is due when one is pending at or before [until]. *)
  let due () =
    t.size > 0 && match until with None -> true | Some limit -> time_of t.keys.(0) <= (limit : Time.t :> int)
  in
  while (not t.halted) && t.executed < max_events && due () do
    ignore (step t)
  done;
  if (not t.halted) && due () then raise (Stuck "Engine.run: event budget exhausted (livelock?)");
  match until with Some limit when not t.halted -> t.now <- Time.max t.now limit | _ -> ()
