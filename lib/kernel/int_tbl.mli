(** Hash tables on int keys, with an inline multiplicative mixing hash
    instead of the generic C hash. Strided keys (a shard's gids
    [x + 1 + k * c]) spread over the buckets like random ones. *)

include Hashtbl.S with type key = int
