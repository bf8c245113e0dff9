(** The experiment suite: the paper has no quantitative evaluation, so
    each experiment operationalizes one of its qualitative claims as a
    measured table (mapping in DESIGN.md §3, commentary in
    EXPERIMENTS.md; each experiment's description heads its code). Every
    seeded table runs its seeds through one sweep, and every "clean"
    column means one thing: each run finished (nothing stuck) and its
    history passes {!Hermes_history.Correctness.ok}. *)

module T := Table_fmt
module Registry := Hermes_obs.Registry

val tables :
  seeds_of:(int -> int) ->
  ?jobs:int ->
  ?metrics:Registry.t ->
  ?domains:int ->
  unit ->
  (string * (unit -> T.t)) list
(** The suite as named thunks, ["e1"] .. ["e19"] without the retired
    ["e9"] (EXPERIMENTS.md keeps its finding). [seeds_of] maps each
    experiment's default seed count to the one to use. Forcing a thunk
    runs that experiment, fanning its seed sweep out over [jobs] domains
    (default 1; E1-E3 are single runs, and E16 runs its seeds one after
    another because it times wall clock). Every run owns its
    observability context; the registries are absorbed into [metrics] in
    seed order on the calling domain, so tables and metrics are
    byte-identical for any [jobs]. [domains] replaces E16's within-run
    domain sweep [[1; 2; 4; 8]] with [[1; domains]]; the other
    experiments run every site on one execution shard. *)

val random_setup : Hermes_kernel.Rng.t -> Hermes_workload.Driver.setup
(** A random configuration of the fuzz space: the full certifier on 2-5
    sites, a random unilateral-abort rate, network jitter, local deadlock
    policy and clock drift, up to three site crashes, and a random
    closed-loop workload with local clients. [hermes fuzz] and the test
    suite's fuzzer both draw from it. *)
