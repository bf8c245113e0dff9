(* Hash tables on int keys: gids, LTM transaction ids, row keys, packed
   network addresses.

   The hash is two inline operations: multiply by an odd 62-bit constant,
   then fold the high bits down. The fold matters: a table masks off the
   low bits of the hash, and shard x of k hands out the gids
   x + 1 + k * c, whose low bits are alike when k has a power of two as a
   factor. With the identity hash, 10 000 such gids at k = 64 shared
   buckets up to 79 deep; with this one, no bucket holds more than 7 at
   any k up to 128.

   The table is [Hashtbl.Make] over that hash, written out for int keys
   so that every probe is a direct loop: the functor reaches the hash and
   the key equality through closures, on every call. The layout is the
   functor's exactly (same initial sizes, bucket index, growth rule and
   bucket order, and the same copying resize while a traversal runs), so
   [fold] and [iter] visit bindings in the order they always did; the
   tests pin it against the functor. *)

type 'a bucket = Empty | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  mutable initial_size : int;  (* negated while a traversal runs *)
}

let[@inline] hash k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let[@inline] index t k = hash k land (Array.length t.data - 1)

let rec power_2_above x n =
  if x >= n then x else if x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s }

let length t = t.size

let reset t =
  let s = abs t.initial_size in
  t.size <- 0;
  if Array.length t.data = s then Array.fill t.data 0 s Empty else t.data <- Array.make s Empty

let traversing t = t.initial_size < 0
let flip_traversal t = t.initial_size <- -t.initial_size

(* Run [f] as a traversal: a resize meanwhile copies the cells instead of
   relinking them, so the walk over the old buckets is undisturbed. *)
let[@inline] traverse t f =
  if traversing t then f ()
  else begin
    flip_traversal t;
    match f () with
    | v ->
        flip_traversal t;
        v
    | exception e ->
        flip_traversal t;
        raise e
  end

(* Double the buckets, keeping each bucket's cells in their relative
   order. *)
let resize t =
  let odata = t.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty and tails = Array.make nsize Empty in
    let inplace = not (traversing t) in
    t.data <- ndata;
    let rec insert_bucket = function
      | Empty -> ()
      | Cons { key; data; next } as cell ->
          let cell = if inplace then cell else Cons { key; data; next = Empty } in
          let i = index t key in
          (match tails.(i) with Empty -> ndata.(i) <- cell | Cons tail -> tail.next <- cell);
          tails.(i) <- cell;
          insert_bucket next
    in
    Array.iter insert_bucket odata;
    if inplace then Array.iter (function Empty -> () | Cons tail -> tail.next <- Empty) tails
  end

let[@inline] insert t i key data =
  t.data.(i) <- Cons { key; data; next = t.data.(i) };
  t.size <- t.size + 1;
  if t.size > Array.length t.data lsl 1 then resize t

let add t key data = insert t (index t key) key data

let rec replace_bucket key data = function
  | Empty -> true
  | Cons c ->
      if c.key = key then begin
        c.data <- data;
        false
      end
      else replace_bucket key data c.next

let replace t key data =
  let i = index t key in
  if replace_bucket key data t.data.(i) then insert t i key data

let rec remove_bucket t i key prec = function
  | Empty -> ()
  | Cons c as cell ->
      if c.key = key then begin
        t.size <- t.size - 1;
        match prec with Empty -> t.data.(i) <- c.next | Cons p -> p.next <- c.next
      end
      else remove_bucket t i key cell c.next

let remove t key =
  let i = index t key in
  remove_bucket t i key Empty t.data.(i)

let rec find_bucket key = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_bucket key c.next

let find t key = find_bucket key t.data.(index t key)

let rec find_opt_bucket key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_bucket key c.next

let find_opt t key = find_opt_bucket key t.data.(index t key)

let rec find_all_bucket key = function
  | Empty -> []
  | Cons c -> if c.key = key then c.data :: find_all_bucket key c.next else find_all_bucket key c.next

let find_all t key = find_all_bucket key t.data.(index t key)

let rec mem_bucket key = function Empty -> false | Cons c -> c.key = key || mem_bucket key c.next
let mem t key = mem_bucket key t.data.(index t key)

let iter f t =
  let rec bucket = function
    | Empty -> ()
    | Cons c ->
        f c.key c.data;
        bucket c.next
  in
  traverse t (fun () -> Array.iter bucket t.data)

let fold f t init =
  let rec bucket acc = function Empty -> acc | Cons c -> bucket (f c.key c.data acc) c.next in
  traverse t (fun () -> Array.fold_left bucket init t.data)

let filter_map_inplace f t =
  let rec bucket i prec = function
    | Empty -> ( match prec with Empty -> t.data.(i) <- Empty | Cons p -> p.next <- Empty)
    | Cons c as cell -> (
        match f c.key c.data with
        | None ->
            t.size <- t.size - 1;
            bucket i prec c.next
        | Some data ->
            (match prec with Empty -> t.data.(i) <- cell | Cons p -> p.next <- cell);
            c.data <- data;
            bucket i cell c.next)
  in
  traverse t (fun () ->
      for i = 0 to Array.length t.data - 1 do
        bucket i Empty t.data.(i)
      done)

let max_bucket_length t =
  let rec length n = function Empty -> n | Cons c -> length (n + 1) c.next in
  Array.fold_left (fun m b -> max m (length 0 b)) 0 t.data
