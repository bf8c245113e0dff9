(** The discrete-event engine. Components are callback state machines;
    events fire in (time, sequence) order, so runs are deterministic given
    a seed. Timers are cancellable, as the certifier's alive-check and
    commit-retry timers require. *)

open Hermes_kernel

type t
type timer

exception Stuck of string
(** Raised by {!run} when the event budget is exhausted — a livelock guard. *)

val create : ?first_seq:int -> unit -> t
(** [first_seq] (default 0, at most {!max_seq}) is the sequence number
    of the first event scheduled: the tests start near {!max_seq} with
    it. *)

val max_time : Time.t
(** The latest time an event may fire at: [2^32 - 1] ticks. *)

val max_seq : int
(** The sequence numbers an engine hands out, one per {!schedule}
    (cancelled timers included), run from [0] to [max_seq = 2^30 - 1]. *)

val now : t -> Time.t

val last_event_at : t -> Time.t
(** Fire time of the last non-cancelled event — unlike {!now}, not
    inflated by a [run ~until] that outlived the workload. *)

(** Aggregate engine statistics: non-cancelled events executed, the
    queue-depth high-water mark, popped events whose timer had been
    cancelled, and [live] — events scheduled and not yet popped
    (cancelled timers included). A quiesced run (queue drained) must
    report [live = 0]; a non-zero value means a component leaked an
    armed timer past its terminal transition. *)
type stats = { events : int; max_pending : int; cancelled : int; live : int }

val stats : t -> stats

val schedule : t -> delay:int -> (unit -> unit) -> timer
(** Schedule a callback [delay] ticks from now (0 is allowed: it fires after
    all already-scheduled events at the current instant). Raises
    [Invalid_argument] if [delay] is negative, if the event would fire
    after {!max_time}, or if the engine has handed out {!max_seq}
    already. *)

val schedule_unit : t -> delay:int -> (unit -> unit) -> unit
val cancel : timer -> unit
val fire_at : timer -> Time.t

val halt : t -> unit
(** Stop {!run} after the current event. *)

val step : t -> bool
(** Execute the next event; [false] if the queue is empty. *)

val next_at : t -> Time.t option
(** Fire time of the earliest pending event (cancelled timers included),
    [None] when the queue is empty. The conservative parallel scheduler
    uses this to compute the next safe window bound. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Run until the queue drains, [until] is passed, or {!halt}. If [until] is
    given and not halted, the clock is advanced to it. *)
