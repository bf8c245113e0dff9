(* Workload parameters for the experiment harness. One spec describes the
   database population, the global-transaction traffic (arrival
   discipline, shape, skew) and the purely local traffic at each site.

   Construction: {!make} with the first-class variants ({!arrival},
   {!key_dist}, {!mix}). The flat-field back-fill shim of the previous
   release is gone — [arrival], [key_dist] and [mix] are authoritative
   and non-optional. *)

(* The value every key is loaded with. *)
let initial_value = 100

(* Commands per local transaction (8x that for a long-tail one). *)
let local_ops = 2

type arrival =
  | Closed of { mpl : int; think_time_mean : int }
      (* a fixed population of clients, each thinking between txns *)
  | Open of { rate : float; max_in_flight : int }
      (* Poisson arrivals at [rate] global txns per simulated second;
         arrivals beyond [max_in_flight] in-service clients queue, and
         latency is measured from arrival (queueing delay included) *)

type key_dist = Uniform | Zipf of { theta : float }  (* item i+1 has weight 1/(i+1)^theta *)

type mix = { sites_per_txn : int; ops_per_site : int; write_ratio : float }

type t = {
  n_sites : int;
  n_shards : int option;
      (* data shards resolved through the placement map; [None] = one
         shard per site (the static identity map, the legacy behavior) *)
  keys_per_site : int;  (* keys per table *)
  n_tables : int;  (* tables per site (named "T0", "T1", ...) *)
  (* Global transactions. *)
  n_global : int;  (* run this many global transactions to completion *)
  arrival : arrival;
  mix : mix;
  key_dist : key_dist;
  (* Local transactions (run while the global quota is being worked off). *)
  local_mpl_per_site : int;
  local_write_ratio : float;
  local_txn_cap : int;  (* total local txns per run: bounds analysis cost when a protocol livelocks *)
  local_long_tail : float;  (* fraction of local txns running 8x the ops; 0 = off *)
  max_retries : int;  (* how often a client retries an aborted global txn *)
}

let default_think_time = 2_000

let make ?(n_sites = 3) ?n_shards ?(keys_per_site = 40) ?(n_tables = 4) ?(n_global = 100)
    ?(arrival = Closed { mpl = 4; think_time_mean = default_think_time })
    ?(mix = { sites_per_txn = 2; ops_per_site = 2; write_ratio = 0.5 })
    ?(key_dist = Zipf { theta = 0.6 }) ?(local_mpl_per_site = 1) ?(local_write_ratio = 0.5)
    ?(local_txn_cap = 2_000) ?(local_long_tail = 0.0) ?(max_retries = 10) () =
  {
    n_sites;
    n_shards;
    keys_per_site;
    n_tables;
    n_global;
    arrival;
    mix;
    key_dist;
    local_mpl_per_site;
    local_write_ratio;
    local_txn_cap;
    local_long_tail;
    max_retries;
  }

let default = make ()

let shards t = match t.n_shards with Some n -> n | None -> t.n_sites

let think_time t =
  match t.arrival with
  | Closed { think_time_mean; _ } -> think_time_mean
  | Open _ -> default_think_time

(* One string per table index: every generated command names its table
   with the string the site's tables were created with, so a lookup by
   name that meets it stops at physical equality. *)
let table_names = Array.init 64 (fun i -> "T" ^ string_of_int i)
let table_name i = if 0 <= i && i < Array.length table_names then table_names.(i) else "T" ^ string_of_int i
let tables t = List.init t.n_tables table_name

let pp_arrival ppf = function
  | Closed { mpl; think_time_mean } -> Fmt.pf ppf "closed (MPL %d, think %d)" mpl think_time_mean
  | Open { rate; max_in_flight } -> Fmt.pf ppf "open (%.1f txn/s, cap %d)" rate max_in_flight

let pp_key_dist ppf = function
  | Uniform -> Fmt.string ppf "uniform"
  | Zipf { theta } -> Fmt.pf ppf "zipf(%.2f)" theta

let pp ppf t =
  Fmt.pf ppf
    "%d sites x %d tables x %d keys, %d globals (%a, %d sites/txn, %d ops/site, w=%.2f), locals MPL %d/site, keys %a"
    t.n_sites t.n_tables t.keys_per_site t.n_global pp_arrival t.arrival t.mix.sites_per_txn
    t.mix.ops_per_site t.mix.write_ratio t.local_mpl_per_site pp_key_dist t.key_dist
