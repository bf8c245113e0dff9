(** Conservative parallel discrete-event execution: shards (one
    {!Engine} plus a cross-shard inbox each) run on OCaml domains
    through bounded virtual-time windows, with a barrier between
    windows. The window bound is the earliest pending event plus the
    lookahead (the minimum cross-shard latency), so no event can cause
    a remote event inside its own window and virtual time stays
    coherent without global event ordering. Results are deterministic
    and independent of the domain count. A single shard runs straight to
    the cap, in one window. *)

open Hermes_kernel

type shard = {
  engine : Engine.t;
  drain : unit -> unit;
      (** move the shard's inbox into its engine; called only in the
          serial (single-threaded) phase between windows *)
}

type stats = { windows : int; domains : int (** after clamping to the shard count *) }

val run :
  ?max_events:int -> domains:int -> lookahead:int -> until:Time.t -> shard array -> stats
(** Run every shard until global quiescence (all engines and inboxes
    empty) or past [until]. With several shards, [lookahead] must be at
    least 1 and no larger than the minimum cross-shard delivery latency;
    a single shard ignores it, as nothing crosses a shard boundary.
    [domains] is clamped to [1 .. Array.length shards]. [max_events] is
    the per-engine livelock budget ({!Engine.Stuck}). A worker exception
    aborts the run after the current window and is re-raised here. *)
