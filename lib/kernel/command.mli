(** The DML command language at the local interface.

    A small, deterministic stand-in for the SQL subset the paper assumes:
    the LTM decomposes each command into elementary reads/writes via a
    deterministic, state-dependent decomposition function (DDF, §2).
    Updates and deletes of missing rows decompose into nothing, which is
    how a resubmitted subtransaction can legitimately obtain a different
    decomposition than its original incarnation — the phenomenon behind
    global view distortion (history H1). *)

type t =
  | Select of { table : string; keys : int list }
  | Select_range of { table : string; lo : int; hi : int }
  | Update_range of { table : string; lo : int; hi : int; delta : int }
  | Update of { table : string; key : int; delta : int }
  | Assign of { table : string; key : int; value : int }
  | Insert of { table : string; key : int; value : int }
  | Delete of { table : string; key : int }

type result =
  | Rows of (int * int) list
  | Count of int

val table : t -> string
val is_read_only : t -> bool

val pp : t Fmt.t
val show : t -> string
val pp_result : result Fmt.t
val show_result : result -> string
