(** The committed projection C(H), in the paper's extended sense (§3):
    operations of globally committed complete transactions and committed
    local transactions, *including* their unilaterally aborted local
    subtransactions. The extension is what makes resubmission anomalies
    (global/local view distortion) formally visible. *)

val extended : History.t -> History.t

val flags : History.t -> bool array * bool array
(** [(committed, kept)] by transaction id of the history's
    {!History.index}: whether the transaction committed (a global
    commit; for a local transaction, a local commit), and whether C(H)
    keeps it (committed and complete). A global transaction is torn
    exactly when it committed and is not kept. *)

val classical : History.t -> History.t
(** The Bernstein/Hadzilacos/Goodman projection: aborted incarnations'
    operations dropped. Under it the H1 anomaly is invisible — the paper's
    motivation for the extension. *)
