(* Program generation.

   Global programs pick distinct participating shards and, per shard, a
   mix of single-row selects and updates over Zipf-distributed keys.
   Shards — not sites: the generator emits placement-free [shard_steps]
   and the driver resolves each shard to its current owner site through
   the placement map at submission time, so a shard move between two
   attempts re-routes the resubmission. At the default static map (one
   shard per site) resolution is the identity and the draw sequence is
   unchanged from the site-space generator.

   Within one subtransaction a key is never first selected and then
   updated — that S->X upgrade pattern mass-produces upgrade deadlocks
   under strict FIFO queues and real applications lock-for-update up
   front; updates go straight to exclusive locks instead. *)

open Hermes_kernel

(* The key sampler, one per generator, compiled from the spec's key
   distribution. The legacy Zipf path keeps its exact draw sequence (one
   float per key) so old specs replay byte-identically. *)
type sampler = Zipfian of Zipf.t | Uniform_keys of int

let sampler_of_spec spec =
  match spec.Spec.key_dist with
  | Spec.Zipf { theta } -> Zipfian (Zipf.create ~n:spec.Spec.keys_per_site ~theta)
  | Spec.Uniform -> Uniform_keys spec.Spec.keys_per_site

type t = {
  spec : Spec.t;
  sampler : sampler;
  rng : Rng.t;
  scratch : int array;  (* the participant draw's candidates, shuffled in place *)
}

let create ~spec ~rng =
  {
    spec;
    sampler = sampler_of_spec spec;
    rng;
    scratch = Array.make (max (Spec.shards spec) spec.Spec.n_sites) 0;
  }

let sample_key t =
  match t.sampler with
  | Zipfian z -> Zipf.sample z t.rng
  | Uniform_keys n -> Rng.int t.rng ~bound:n

(* Shuffle the first [n] scratch slots in place with exactly the draws
   of [Rng.shuffle]: one [Rng.int ~bound:(i + 1)] per index [i], from the
   top index down. A participant draw then builds no list but its
   result, and the RNG stream is the one the list-based draw consumed. *)
let shuffle_scratch t n =
  let a = t.scratch in
  for i = n - 1 downto 1 do
    let j = Rng.int t.rng ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let distinct_shards t =
  let n_shards = Spec.shards t.spec in
  let n = min t.spec.Spec.mix.Spec.sites_per_txn n_shards in
  for i = 0 to n_shards - 1 do
    t.scratch.(i) <- i
  done;
  shuffle_scratch t n_shards;
  List.init n (Array.get t.scratch)

let pick_table t = Spec.table_name (Rng.int t.rng ~bound:t.spec.Spec.n_tables)

(* Per-shard command list: distinct (table, key) targets, each either
   selected or updated. *)
let shard_commands t =
  let rec pick_targets acc n =
    if n = 0 then acc
    else
      let target = (pick_table t, sample_key t) in
      if List.mem target acc then pick_targets acc n else pick_targets (target :: acc) (n - 1)
  in
  let mix = t.spec.Spec.mix in
  let n_keys = min mix.Spec.ops_per_site (t.spec.Spec.keys_per_site * t.spec.Spec.n_tables) in
  let targets = pick_targets [] n_keys in
  List.map
    (fun (table, key) ->
      if Rng.bool t.rng ~p:mix.Spec.write_ratio then
        Command.Update { table; key; delta = Rng.int_in t.rng ~lo:(-5) ~hi:5 }
      else
        let hi = min (t.spec.Spec.keys_per_site - 1) (key + 2) in
        let overlaps_other_target =
          List.exists (fun (tb, k) -> tb = table && k <> key && key <= k && k <= hi) targets
        in
        if Rng.bool t.rng ~p:0.15 && not overlaps_other_target then
          (* An occasional small range scan: its decomposition is
             state-dependent over several rows at once. Never emitted when
             it would cover another target of the same subtransaction —
             scanning a key the transaction later updates is the S->X
             upgrade trap again. *)
          Command.Select_range { table; lo = key; hi }
        else Command.Select { table; keys = [ key ] })
    targets

let shard_steps t =
  List.concat_map (fun shard -> List.map (fun c -> (shard, c)) (shard_commands t)) (distinct_shards t)

(* Identity resolution for callers without a placement map (the CGM
   baseline, direct tests): shard [s] lives at site [s mod n_sites],
   matching the static map. *)
let static_site t shard = Site.of_int (shard mod t.spec.Spec.n_sites)

let global_program t =
  let steps = List.map (fun (shard, c) -> (static_site t shard, c)) (shard_steps t) in
  Hermes_core.Program.make steps

(* Rooted variant for sharded execution: the program's first participant
   (its coordinating site) is forced to [site], the rest drawn from the
   other sites — so a per-site generator only ever starts coordinators on
   its own shard. The windowed engine runs the static placement map only
   (reconfiguration is sequential-engine-gated), so this stays in site
   space. *)
let distinct_sites_rooted t ~site =
  let n_sites = t.spec.Spec.n_sites in
  let n = min t.spec.Spec.mix.Spec.sites_per_txn n_sites in
  (* the other sites, in increasing order *)
  let m = ref 0 in
  for s = 0 to n_sites - 1 do
    if s <> Site.to_int site then begin
      t.scratch.(!m) <- s;
      incr m
    end
  done;
  shuffle_scratch t !m;
  site :: List.init (n - 1) (fun i -> Site.of_int t.scratch.(i))

let global_program_rooted t ~site =
  let steps =
    List.concat_map
      (fun s -> List.map (fun c -> (s, c)) (shard_commands t))
      (distinct_sites_rooted t ~site)
  in
  Hermes_core.Program.make steps

(* The locally-updateable partition of the CGM baseline: a dedicated
   per-site table local writes are confined to (paper §6: CGM splits the
   items into locally- and globally-updateable sets; global updaters may
   not read the locally-updateable set — our globals never touch it). *)
let local_partition_table = "LOCAL"

(* A local transaction's commands at one site. Under [partitioned]
   (CGM), writes go to the locally-updateable table only; reads may still
   look at global data. Without it (2CM), locals write global data too —
   DLU merely keeps them off *bound* items. *)
let local_commands ?(partitioned = false) t =
  (* Long-tail locals: a [local_long_tail] fraction of local transactions
     run 8x the ops — fat readers/writers that keep LTM queues occupied.
     The extra draw happens only when the feature is on, so legacy specs
     (long_tail = 0) replay byte-identically. *)
  let n_ops =
    if t.spec.Spec.local_long_tail > 0.0 && Rng.bool t.rng ~p:t.spec.Spec.local_long_tail then
      Spec.local_ops * 8
    else Spec.local_ops
  in
  List.init n_ops (fun _ ->
      let key = sample_key t in
      if Rng.bool t.rng ~p:t.spec.Spec.local_write_ratio then
        let table = if partitioned then local_partition_table else pick_table t in
        Command.Update { table; key; delta = Rng.int_in t.rng ~lo:(-3) ~hi:3 }
      else Command.Select { table = pick_table t; keys = [ key ] })
