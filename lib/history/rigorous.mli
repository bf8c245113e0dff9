(** Rigorousness checker (the SRS assumption): a history is rigorous iff
    for every pair of conflicting operations of distinct (LTM-level)
    transactions, the first transaction terminates before the second
    operation. This is the independent witness for the Certifier's
    Conflict Detection Basis (§4.1). *)

open Hermes_kernel

type violation = { first : Op.t; first_index : int; second : Op.t; second_index : int }

val pp_violation : violation Fmt.t

val violations : History.t -> violation list
(** Violations in a single-site (LTM-level) history, ordered by
    [(first_index, second_index)]; indices are positions in the history.
    One sweep over the history's dense index, linear in the history plus
    the violations reported, which are then sorted. *)

val is_rigorous : History.t -> bool

val check_all_sites : History.t -> (Site.t * violation list) list
(** Check the LTM projection ({!Projection.ltm}) of every site appearing
    in the history, in one sweep; sites ascending, indices are positions
    in the site's projection. A site seen only through a Prepare gets an
    empty list. *)

val all_sites_rigorous : History.t -> bool
