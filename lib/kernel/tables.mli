(** The tables of one site by name, each an {!Int_tbl} of rows. A site
    has a handful of tables, so a table is found by walking a short list
    and comparing names with [String.equal]: no generic hash on the hot
    path. A new table goes to the front of the list. *)

type 'a t

val create : rows:int -> 'a t
(** No tables yet; each one is created with [Int_tbl.create rows]. *)

val find : 'a t -> string -> 'a Int_tbl.t
(** Raises [Not_found] if the table was never created. *)

val find_or_add : 'a t -> string -> 'a Int_tbl.t
(** {!find}, creating the table empty if it is not there. *)

val fold : (string -> 'a Int_tbl.t -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Newest table first. *)
