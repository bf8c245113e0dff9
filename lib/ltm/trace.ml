(* The global trace: every component appends timestamped history
   operations (elementary reads/writes from the LTMs, local terminations,
   Prepare records from the 2PC Agents, global decisions from the
   Coordinators). The offline checkers consume the resulting history.

   One trace is shared by the whole simulated HMDBS — it is the omniscient
   observer's view, which no component in the system itself has. *)

open Hermes_history

type t = { mutable events : History.event list; mutable count : int }

let create () = { events = []; count = 0 }

let record t ~at op =
  t.events <- { History.op; at; seq = t.count } :: t.events;
  t.count <- t.count + 1

let count t = t.count

(* Events are appended in nondecreasing time order (the engine fires in
   order), so a reverse is enough: [of_events] finds them in (time, seq)
   order and does not sort — the recording order is the explicit
   tie-break. *)
let history t = History.of_events (List.rev t.events)

(* Execution over several shards keeps one trace per shard; the
   omniscient history is their merge. Re-tag seq as [seq * shards + shard]
   — per-shard recording order is preserved and same-instant events across
   shards interleave by shard index, a deterministic (if arbitrary)
   tie-break; [of_events] then re-sorts by (time, seq). A single trace is
   its own history, with no copy. *)
let merged = function
  | [ t ] -> history t
  | ts ->
      let n = List.length ts in
      let events =
        List.concat
          (List.mapi
             (fun shard t ->
               List.rev_map
                 (fun (e : History.event) -> { e with History.seq = (e.seq * n) + shard })
                 t.events)
             ts)
      in
      History.of_events events
