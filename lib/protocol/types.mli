(** The shared vocabulary of the effect-free protocol machines.

    A machine step never performs an effect: it returns an ordered
    {!effect} list that an adapter (or the {!Explore} model checker)
    interprets.  The order within the list is part of the contract — the
    effectful shell replays it verbatim, which is what keeps a refactored
    run byte-identical to the historical imperative implementation
    (engine event sequence numbers, RNG draw order and trace append order
    all follow effect order). *)

open Hermes_kernel

type never = |
(** An empty type, for machines that never use a given effect payload
    (e.g. the coordinator has no LTM). *)

val absurd : never -> 'a

(** Why a coordinator aborted a global transaction. *)
type reason =
  | Exec_failed of Site.t * string
  | Refused of Site.t * Wire.refusal
  | Gate_refused of string
      (** CGM gave up on the commit: its global-lock timeout fired. *)
  | Presumed_abort
      (** Coordinator crash recovery: the stable log holds no decision
          record (or the logged decision was an abort), so 2PC's
          presumed-abort rule applies. *)
  | Register_abort
      (** Replicated commit (Paxos / backup-TM): a recovery ballot of the
          decision register chose abort and the leader adopted it. *)

val pp_reason : reason Fmt.t

type outcome = Committed | Aborted of reason

val pp_outcome : outcome Fmt.t

(** Entries of the global history trace (interpreted against
    [Hermes_ltm.Trace] / [Hermes_history.Op] by the adapters). *)
type history_event =
  | H_prepare of { gid : int; sn : Sn.t }
  | H_global_commit of { gid : int }
  | H_global_abort of { gid : int }

(** One effect, ordered.  ['timer] is the machine's timer vocabulary,
    ['record] its stable-log record vocabulary, ['call] its LTM call
    vocabulary and ['event] its observability event vocabulary.

    {2 The force contract}

    Three constructors write the stable log, with increasing batching:

    - [Force_log r] — write [r] and force it with its own I/O before the
      next effect of the step is acted on.  This is the only log effect
      the machines emit when {!Config.group_commit} is off, and the only
      one the golden-digest suite ever sees.
    - [Stage_log r] — group commit, cross-machine: [r] must be durable
      before any {e later} effect of this step is acted on, but the force
      may be coalesced with records staged by other machines at the same
      site.  The adapter appends [r] to the site's batch and withholds
      the remainder of the step until the batch is force-written (one
      I/O for the whole batch).  A crash before the batch is forced
      loses [r] and the withheld effects — exactly the durability the
      protocol expects of an unforced record.
    - [Force_batch rs] — group commit, machine-internal: durably write
      every record of [rs], oldest first, with a single force I/O.  The
      agent machine stages records (and their dependent effects) in its
      own state and emits the whole batch at its flush point, so the
      effects that follow [Force_batch] in the same step are already
      correctly ordered after the force. *)
type ('timer, 'record, 'call, 'event) effect =
  | Send of { dst : Wire.address; gid : int; payload : Wire.payload }
  | Arm_timer of { timer : 'timer; delay : int }
  | Cancel_timer of 'timer
  | Force_log of 'record
  | Stage_log of 'record
  | Force_batch of 'record list
  | Ltm_call of 'call
  | Record of history_event
  | Emit of 'event
  | Invoke_gate
      (** Hand control to the commit gate; by construction always the
          last effect of its step, so a synchronous gate may immediately
          feed the answer back into the machine. *)
  | Decide of outcome
      (** Terminal: report the global outcome to the submitter; always
          the last effect of its step. *)
