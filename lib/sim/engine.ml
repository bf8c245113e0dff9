(* The discrete-event engine.

   Components (coordinators, agents, LTMs, clients, the failure injector)
   are callback state machines: they schedule events, and an event firing
   runs a callback at a virtual instant. Determinism: events fire in
   (time, sequence-number) order, where the sequence number is assigned at
   scheduling time, so two runs with the same seed interleave identically.

   Timers are cancellable — the certifier's alive-check timers and
   commit-certification retry timers (Appendix A and C of the paper) need
   cancellation when a subtransaction leaves the prepared state. *)

open Hermes_kernel

(* An event is its own cancellation handle. *)
type event = { at : Time.t; seq : int; run : unit -> unit; mutable cancelled : bool }
type timer = event

module Eq = Pqueue.Make (struct
  type t = event

  let compare a b =
    match Time.compare a.at b.at with 0 -> Int.compare a.seq b.seq | c -> c
end)

type t = {
  mutable now : Time.t;
  mutable queue : Eq.t;
  mutable seq : int;
  mutable executed : int;
  mutable halted : bool;
  mutable last_fired : Time.t;  (* time of the last non-cancelled event *)
  mutable live : int;  (* events scheduled, not yet popped *)
  mutable max_pending : int;  (* queue-depth high-water mark *)
  mutable cancelled_fired : int;  (* popped events whose timer was cancelled *)
}

exception Stuck of string

let create () =
  {
    now = Time.zero;
    queue = Eq.empty;
    seq = 0;
    executed = 0;
    halted = false;
    last_fired = Time.zero;
    live = 0;
    max_pending = 0;
    cancelled_fired = 0;
  }

let now t = t.now
let last_event_at t = t.last_fired

let schedule t ~delay run =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let ev = { at = Time.add t.now delay; seq = t.seq; run; cancelled = false } in
  t.queue <- Eq.insert t.queue ev;
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  if t.live > t.max_pending then t.max_pending <- t.live;
  ev

let schedule_unit t ~delay run = ignore (schedule t ~delay run)

let cancel timer = timer.cancelled <- true
let fire_at timer = timer.at

let halt t = t.halted <- true

let step t =
  match Eq.pop t.queue with
  | None -> false
  | Some (ev, rest) ->
      t.queue <- rest;
      t.live <- t.live - 1;
      if Time.(ev.at < t.now) then invalid_arg "Engine.step: time went backwards";
      t.now <- ev.at;
      if ev.cancelled then t.cancelled_fired <- t.cancelled_fired + 1
      else begin
        t.executed <- t.executed + 1;
        t.last_fired <- ev.at;
        ev.run ()
      end;
      true

let next_at t = Option.map (fun ev -> ev.at) (Eq.min t.queue)

type stats = { events : int; max_pending : int; cancelled : int; live : int }

let stats t =
  { events = t.executed; max_pending = t.max_pending; cancelled = t.cancelled_fired; live = t.live }

let run ?until ?(max_events = 50_000_000) t =
  let continue () =
    (not t.halted)
    && t.executed < max_events
    &&
    match until with
    | None -> true
    | Some limit -> ( match Eq.min t.queue with Some ev -> Time.(ev.at <= limit) | None -> true)
  in
  while continue () && step t do
    ()
  done;
  if t.executed >= max_events then raise (Stuck "Engine.run: event budget exhausted (livelock?)");
  match until with Some limit when not t.halted -> t.now <- Time.max t.now limit | _ -> ()
