(** Hash tables on int keys, with an inline multiplicative mixing hash
    instead of the generic C hash. Strided keys (a shard's gids
    [x + 1 + k * c]) spread over the buckets like random ones.

    The functions behave as [Hashtbl.Make]'s over the same hash, down to
    the order in which {!iter} and {!fold} visit bindings: the table
    starts at [n] rounded up to a power of two from 16 buckets, doubles
    when it holds more than two bindings per bucket, and keeps the
    bindings of one key newest first. A binding added while a traversal
    runs may or may not be visited, as with [Hashtbl]. *)

type 'a t

val create : int -> 'a t
val length : 'a t -> int

val reset : 'a t -> unit
(** Empty the table and shrink it back to its initial size. *)

val add : 'a t -> int -> 'a -> unit
(** Add a binding, hiding (not replacing) any earlier one of the key. *)

val replace : 'a t -> int -> 'a -> unit
(** Replace the key's newest binding, or add one. *)

val remove : 'a t -> int -> unit
(** Remove the key's newest binding, uncovering the one before it. *)

val find : 'a t -> int -> 'a
(** The newest binding. Raises [Not_found]. *)

val find_opt : 'a t -> int -> 'a option
val find_all : 'a t -> int -> 'a list  (** newest first *)

val mem : 'a t -> int -> bool
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit
(** Keep the bindings [f] maps to [Some], with the new data, and drop
    the rest. *)

val max_bucket_length : 'a t -> int
(** The most bindings that share one bucket. *)
