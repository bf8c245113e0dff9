(** Projections of a history (paper §3). *)

open Hermes_kernel

val site : History.t -> Site.t -> History.t
(** H(s): operations of site [s] (global commit/abort dropped). *)

val ltm : History.t -> Site.t -> History.t
(** What the local scheduler saw: elementary operations plus local
    terminations at [s] (Prepare operations live above the local
    interface). *)
