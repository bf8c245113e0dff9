(* Travel agency: bookings across three pre-existing reservation systems
   (airline, hotel, car rental), each an autonomous LDBS that cannot be
   modified — the heterogeneous-multidatabase setting of the paper. A
   booking decrements seat/room/car inventory at two or three sites
   atomically; reporting transactions run locally at each system.

   The example runs the SAME workload twice — once with the naive
   resubmitting agent, once with the full 2CM Certifier — and contrasts
   the verification verdicts: under unilateral aborts the naive agent
   oversells inventory consistency (view distortions), the Certifier does
   not.

   Run with:  dune exec examples/travel.exe *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Ltm = Hermes_ltm.Ltm
module Failure = Hermes_ltm.Failure
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm
module Anomaly = Hermes_history.Anomaly
module Correctness = Hermes_history.Correctness

let airline = Site.of_int 0
let hotel = Site.of_int 1
let cars = Site.of_int 2
let n_flights = 8
let n_hotels = 8
let n_cars = 8
let n_bookings = 80

let run ~name ~certifier ~seed =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng ~net_config:Hermes_net.Network.default_config ~certifier
      ~site_specs:(Array.make 3 { Dtm.default_site_spec with Dtm.failure = Failure.prepared_rate 0.3 })
      ()
  in
  for k = 0 to n_flights - 1 do
    Dtm.load dtm airline ~table:"seats" ~key:k ~value:50
  done;
  for k = 0 to n_hotels - 1 do
    Dtm.load dtm hotel ~table:"rooms" ~key:k ~value:30
  done;
  for k = 0 to n_cars - 1 do
    Dtm.load dtm cars ~table:"fleet" ~key:k ~value:20
  done;
  let wrng = Rng.split rng ~label:"workload" in
  let committed = ref 0 and refused = ref 0 in
  let remaining = ref n_bookings in
  let booking () =
    let flight = (airline, Command.Update { table = "seats"; key = Rng.int wrng ~bound:n_flights; delta = -1 }) in
    let room = (hotel, Command.Update { table = "rooms"; key = Rng.int wrng ~bound:n_hotels; delta = -1 }) in
    let car = (cars, Command.Update { table = "fleet"; key = Rng.int wrng ~bound:n_cars; delta = -1 }) in
    (* Most trips need flight+hotel; a third also rent a car. *)
    Program.make (if Rng.bool wrng ~p:0.33 then [ flight; room; car ] else [ flight; room ])
  in
  let rec client () =
    if !remaining > 0 then begin
      decr remaining;
      let program = booking () in
      let rec attempt tries =
        ignore
          (Dtm.submit dtm program ~on_done:(fun o ->
               match o with
               | Coordinator.Committed ->
                   incr committed;
                   next ()
               | Coordinator.Aborted _ when tries < 6 ->
                   Engine.schedule_unit engine ~delay:(Rng.exponential wrng ~mean:2_000) (fun () ->
                       attempt (tries + 1))
               | Coordinator.Aborted _ ->
                   incr refused;
                   next ()))
      and next () = Engine.schedule_unit engine ~delay:(Rng.exponential wrng ~mean:1_000) client in
      attempt 0
    end
  in
  for _ = 1 to 6 do
    client ()
  done;
  (* Local availability reports at each system: read-only scans. *)
  let local_counter = ref 0 in
  let reporter site table hi =
    let ltm = Dtm.ltm dtm site in
    let rec loop () =
      if !remaining > 0 then
        Engine.schedule_unit engine ~delay:(Rng.exponential wrng ~mean:4_000) (fun () ->
            incr local_counter;
            let owner =
              Txn.Incarnation.make ~txn:(Txn.local ~site ~n:!local_counter) ~site ~inc:0
            in
            let txn = Ltm.begin_txn ltm ~owner in
            Ltm.exec ltm txn (Command.Select_range { table; lo = 0; hi }) ~on_done:(function
              | Ltm.Failed _ -> loop ()
              | Ltm.Done _ -> Ltm.commit ltm txn ~on_done:(fun _ -> loop ())))
    in
    loop ()
  in
  reporter airline "seats" (n_flights - 1);
  reporter hotel "rooms" (n_hotels - 1);
  reporter cars "fleet" (n_cars - 1);
  Engine.run engine;
  let v = Correctness.check (Dtm.history dtm) in
  let distortions = v.Correctness.distortions and cycle = v.Correctness.cg_cycle in
  let totals = Dtm.totals dtm in
  Fmt.pr "@.== %s ==@." name;
  Fmt.pr "bookings: %d committed, %d given up; resubmissions: %d, unilateral aborts: %d@." !committed
    !refused totals.Dtm.resubmissions totals.Dtm.unilateral_aborts;
  Fmt.pr "global view distortions: %d%a@." (List.length distortions)
    Fmt.(list ~sep:nop (fun ppf d -> Fmt.pf ppf "@.  %a" Anomaly.pp_global d))
    distortions;
  Fmt.pr "commit-order cycle: %s@."
    (match cycle with
    | None -> "none"
    | Some txns -> Fmt.str "%a" Fmt.(list ~sep:(any " -> ") Txn.pp) txns);
  (distortions, cycle)

let () =
  (* The naive agent needs a seed where the anomaly manifests; sweep a few
     and report the first, then run the certifier on the same seed. *)
  let rec hunt seed =
    if seed > 60 then (Fmt.pr "no anomaly found in 60 seeds (unlucky); try more traffic@.", seed)
    else
      let distortions, cycle = run ~name:(Fmt.str "naive agent (seed %d)" seed) ~certifier:Config.naive ~seed in
      if distortions <> [] || cycle <> None then ((), seed) else hunt (seed + 1)
  in
  let (), seed = hunt 1 in
  let d2, c2 = run ~name:(Fmt.str "full 2CM certifier (seed %d)" seed) ~certifier:Config.full ~seed in
  Fmt.pr "@.verdict: naive agent corrupts views under failures; the Certifier (same seed) shows %d distortions and %s cycle.@."
    (List.length d2)
    (match c2 with None -> "no" | Some _ -> "a");
  if d2 <> [] || c2 <> None then exit 1
