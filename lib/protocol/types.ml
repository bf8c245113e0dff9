(* The shared vocabulary of the effect-free protocol machines.

   A machine step never performs an effect: it returns an ordered
   [effect list] that an adapter (or the model checker) interprets. The
   order within the list is part of the contract — the effectful shell
   replays it verbatim, which is what keeps a refactored run
   byte-identical to the historical imperative implementation (engine
   event sequence numbers, RNG draw order and trace append order all
   follow effect order). *)

open Hermes_kernel

(* An empty type, for machines that never use a given effect payload
   (e.g. the coordinator has no LTM). *)
type never = |

let absurd : never -> 'a = function _ -> .

(* Why a coordinator aborted a global transaction. *)
type reason =
  | Exec_failed of Site.t * string
  | Refused of Site.t * Wire.refusal
  | Gate_refused of string  (* CGM gave up on the commit: its global-lock timeout fired *)
  | Presumed_abort
      (* coordinator crash recovery: the stable log holds no decision
         record (or the logged decision was an abort — the log keeps only
         the decision bit, not its reason), so 2PC's presumed-abort rule
         applies *)
  | Register_abort
      (* replicated commit (Paxos / backup-TM): a recovery ballot of the
         decision register chose abort — the replicated flavour of
         presumed abort — and the leader adopted it *)

let pp_reason ppf = function
  | Exec_failed (s, why) -> Fmt.pf ppf "execution failed at %a: %s" Site.pp s why
  | Refused (s, r) -> Fmt.pf ppf "refused by %a: %a" Site.pp s Wire.pp_refusal r
  | Gate_refused why -> Fmt.pf ppf "commit gate refused: %s" why
  | Presumed_abort -> Fmt.string ppf "presumed abort after coordinator crash recovery"
  | Register_abort -> Fmt.string ppf "the replicated decision register chose abort"

type outcome = Committed | Aborted of reason

let pp_outcome ppf = function
  | Committed -> Fmt.string ppf "committed"
  | Aborted r -> Fmt.pf ppf "aborted (%a)" pp_reason r

(* Entries of the global history trace (interpreted against
   [Hermes_ltm.Trace] / [Hermes_history.Op] by the adapters). *)
type history_event =
  | H_prepare of { gid : int; sn : Sn.t }
  | H_global_commit of { gid : int }
  | H_global_abort of { gid : int }

(* One effect, ordered. ['timer] is the machine's timer vocabulary,
   ['record] its stable-log record vocabulary, ['call] its LTM call
   vocabulary and ['event] its observability event vocabulary. *)
type ('timer, 'record, 'call, 'event) effect =
  | Send of { dst : Wire.address; gid : int; payload : Wire.payload }
  | Arm_timer of { timer : 'timer; delay : int }
  | Cancel_timer of 'timer
  | Force_log of 'record
  | Stage_log of 'record
      (* group commit: the record must be durable before any *later*
         effect of this step is acted on, but the force may be coalesced
         with other machines' staged records — the adapter appends the
         record to the site's batch and withholds the remainder of the
         step until the batch is force-written *)
  | Force_batch of 'record list
      (* group commit: durably write every record of the batch, oldest
         first, with a single force I/O *)
  | Ltm_call of 'call
  | Record of history_event
  | Emit of 'event
  | Invoke_gate
      (* hand control to the commit gate; by construction always the last
         effect of its step, so a synchronous gate may immediately feed
         the answer back into the machine *)
  | Decide of outcome
      (* terminal: report the global outcome to the submitter; always the
         last effect of its step *)
