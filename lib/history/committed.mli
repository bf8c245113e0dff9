(** The committed projection C(H), in the paper's extended sense (§3):
    operations of globally committed complete transactions and committed
    local transactions, *including* their unilaterally aborted local
    subtransactions. The extension is what makes resubmission anomalies
    (global/local view distortion) formally visible. *)

val extended : History.t -> History.t

val classical : History.t -> History.t
(** The Bernstein/Hadzilacos/Goodman projection: aborted incarnations'
    operations dropped. Under it the H1 anomaly is invisible — the paper's
    motivation for the extension. *)
