(** Operations of a history (paper §3): elementary reads/writes indexed by
    (transaction, incarnation, site), local commits/aborts of incarnations,
    Prepare operations, and global commit/abort. Reads carry the
    incarnation they read from ([None] = the initializing transaction
    T_0). *)

open Hermes_kernel

type code = Read | Write | Local_commit | Local_abort | Prepare | Global_commit | Global_abort
(** An operation's constructor, and a DML operation's kind, without its
    payload. An array of codes is unboxed. Declared before {!kind} and
    {!t}: where the expected type does not say otherwise, [Op.Read] and
    [Op.Local_commit] name their constructors. *)

type kind = Read | Write

type t =
  | Dml of {
      kind : kind;
      inc : Txn.Incarnation.t;
      item : Item.t;
      from : Txn.Incarnation.t option;  (** reads: the incarnation read from *)
      value : int option;
          (** the value observed (reads) or installed (writes); [None] for
              hand-built histories and deletes *)
    }
  | Local_commit of Txn.Incarnation.t
  | Local_abort of Txn.Incarnation.t
  | Prepare of { txn : Txn.t; site : Site.t; sn : Sn.t option }
  | Global_commit of Txn.t
  | Global_abort of Txn.t

val read : ?value:int -> inc:Txn.Incarnation.t -> item:Item.t -> from:Txn.Incarnation.t option -> unit -> t
val write : ?value:int -> inc:Txn.Incarnation.t -> item:Item.t -> unit -> t

val txn : t -> Txn.t
val site : t -> Site.t option
(** [None] for global commit/abort, which happen at the coordinator. *)

val incarnation : t -> Txn.Incarnation.t option
val item : t -> Item.t option

val code : t -> code
val is_dml : t -> bool
val is_read : t -> bool
val is_write : t -> bool

val conflicts : t -> t -> bool
(** Conflict between *logical* transactions: same item, different logical
    transactions, at least one write. Incarnations of the same global
    transaction never conflict. *)

val pp : t Fmt.t
(** Paper-style notation: [R_1.0[Xa]], [P^a_T1], [C^a_1.1], [C_T1]. *)

val pp_with_from : t Fmt.t
(** Like {!pp} but reads also show their reads-from source. *)

val show : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
