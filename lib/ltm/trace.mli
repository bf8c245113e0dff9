(** The shared global trace: timestamped history operations appended by
    LTMs, 2PC Agents and Coordinators; consumed by the offline checkers.

    A trace is append-only columns of operations and timestamps. An
    operation's sequence number is its recording position. *)

open Hermes_kernel
open Hermes_history

type t

val create : unit -> t

val record : t -> at:Time.t -> Op.t -> unit
(** Append an operation. Constant time; the engine records in time
    order. *)

val count : t -> int
(** Operations recorded so far. *)

val history : t -> History.t
(** The operations in (time, sequence) order. When no timestamp went
    below its predecessor, as in every engine-recorded trace, that is
    recording order and the history is one copy of the trace; otherwise
    {!History.of_events} sorts them. The history never shares storage
    with the trace: later records leave it unchanged. *)

val merged : t list -> History.t
(** Merge per-shard traces into one omniscient history, ordered by (time,
    sequence, shard): each shard's recording order is kept, and
    same-instant events of different shards interleave by sequence number,
    then shard index. This is the order of re-tagging every sequence
    number as [seq * shards + shard] and sorting by (time, sequence),
    which is what happens when some shard's timestamps decrease; otherwise
    the shards are merged in one pass. [merged [t]] is [history t]. *)
