(* The participant draws as first written: build every candidate, filter
   out the root, copy the array and shuffle it with [Rng.shuffle], then
   keep a prefix. [Generator]'s scratch-array draws must pick the same
   participants and leave the RNG stream where these leave it. *)

open Hermes_kernel

let distinct_shards rng ~n_shards ~sites_per_txn =
  let n = min sites_per_txn n_shards in
  let all = Rng.shuffle rng (Array.init n_shards Fun.id) in
  Array.to_list (Array.sub all 0 n)

let distinct_sites_rooted rng ~n_sites ~sites_per_txn ~site =
  let n = min sites_per_txn n_sites in
  let others =
    Array.of_list (List.filter (fun s -> not (Site.equal s site)) (List.init n_sites Site.of_int))
  in
  let others = Rng.shuffle rng others in
  site :: Array.to_list (Array.sub others 0 (n - 1))
