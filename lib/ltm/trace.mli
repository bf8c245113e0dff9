(** The shared global trace: timestamped history operations appended by
    LTMs, 2PC Agents and Coordinators; consumed by the offline checkers. *)

open Hermes_kernel
open Hermes_history

type t

val create : unit -> t
val record : t -> at:Time.t -> Op.t -> unit
val count : t -> int
val history : t -> History.t

val merged : t list -> History.t
(** Merge per-shard traces into one omniscient history: sequence numbers
    are re-tagged ([seq * shards + shard]) so per-shard recording order is
    preserved and same-instant cross-shard events get a deterministic
    tie-break. [merged [t]] is [history t]. *)
