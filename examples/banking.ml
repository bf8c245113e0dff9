(* Banking: the classic multidatabase workload the paper's introduction
   motivates. Three autonomous banks, each with its own DBMS; global
   inter-bank transfers coordinated by the 2PCA DTM, mixed with purely
   local traffic (tellers posting fees, auditors summing books) submitted
   directly to each bank, all under unilateral aborts.

   Checks two invariants at the end:
     - conservation: inter-bank transfers are zero-sum, local fee postings
       are accounted, so total money = initial + posted fees;
     - correctness: the recorded history's verdict is ok (Report.ok).

   Run with:  dune exec examples/banking.exe *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Ltm = Hermes_ltm.Ltm
module Failure = Hermes_ltm.Failure
module Config = Hermes_core.Config
module Program = Hermes_core.Program
module Coordinator = Hermes_core.Coordinator
module Dtm = Hermes_core.Dtm
module Report = Hermes_history.Report

let n_banks = 3
let accounts_per_bank = 20
let initial_balance = 1_000
let n_transfers = 120
let fee = 1

let () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7 in
  let dtm =
    Dtm.create ~engines:[| engine |] ~rng ~net_config:Hermes_net.Network.default_config
      ~certifier:Config.full
      ~site_specs:
        (Array.make n_banks { Dtm.default_site_spec with Dtm.failure = Failure.prepared_rate 0.15 })
      ()
  in
  let banks = Dtm.site_ids dtm in
  List.iter
    (fun bank ->
      for acct = 0 to accounts_per_bank - 1 do
        Dtm.load dtm bank ~table:"accounts" ~key:acct ~value:initial_balance
      done;
      Dtm.load dtm bank ~table:"fees" ~key:0 ~value:0)
    banks;

  let wrng = Rng.split rng ~label:"workload" in
  let committed = ref 0 and aborted = ref 0 in
  let fees_posted = ref 0 in

  (* Global clients: transfers between random accounts at two distinct
     banks, retried a few times on refusal. *)
  let transfer () =
    let b1 = Rng.int wrng ~bound:n_banks in
    let b2 = (b1 + 1 + Rng.int wrng ~bound:(n_banks - 1)) mod n_banks in
    let amount = 10 + Rng.int wrng ~bound:90 in
    Program.make
      [
        (Site.of_int b1, Command.Update { table = "accounts"; key = Rng.int wrng ~bound:accounts_per_bank; delta = -amount });
        (Site.of_int b2, Command.Update { table = "accounts"; key = Rng.int wrng ~bound:accounts_per_bank; delta = amount });
      ]
  in
  let remaining = ref n_transfers in
  let rec client () =
    if !remaining > 0 then begin
      decr remaining;
      let program = transfer () in
      let rec attempt tries =
        ignore
          (Dtm.submit dtm program ~on_done:(fun o ->
               match o with
               | Coordinator.Committed ->
                   incr committed;
                   next ()
               | Coordinator.Aborted _ when tries < 8 ->
                   Engine.schedule_unit engine ~delay:(Rng.exponential wrng ~mean:2_000) (fun () ->
                       attempt (tries + 1))
               | Coordinator.Aborted _ ->
                   incr aborted;
                   next ()))
      and next () = Engine.schedule_unit engine ~delay:(Rng.exponential wrng ~mean:1_500) client in
      attempt 0
    end
  in
  for _ = 1 to 5 do
    client ()
  done;

  (* Local tellers: post a fixed fee from an account into the bank's fee
     ledger — a purely local read-modify-write the DTM never sees. DLU may
     deny one that touches bound data; the teller just retries later. *)
  let local_counter = ref 0 in
  let teller bank =
    let ltm = Dtm.ltm dtm bank in
    let rec loop () =
      if !remaining > 0 then
        Engine.schedule_unit engine ~delay:(Rng.exponential wrng ~mean:3_000) (fun () ->
            incr local_counter;
            let owner =
              Txn.Incarnation.make ~txn:(Txn.local ~site:bank ~n:!local_counter) ~site:bank ~inc:0
            in
            let txn = Ltm.begin_txn ltm ~owner in
            let acct = Rng.int wrng ~bound:accounts_per_bank in
            Ltm.exec ltm txn (Command.Update { table = "accounts"; key = acct; delta = -fee })
              ~on_done:(function
              | Ltm.Failed _ -> loop ()
              | Ltm.Done _ ->
                  Ltm.exec ltm txn (Command.Update { table = "fees"; key = 0; delta = fee })
                    ~on_done:(function
                    | Ltm.Failed _ -> loop ()
                    | Ltm.Done _ ->
                        Ltm.commit ltm txn ~on_done:(fun r ->
                            if r = Ltm.Committed then fees_posted := !fees_posted + fee;
                            loop ()))))
    in
    loop ()
  in
  List.iter teller banks;

  Engine.run engine;

  (* Invariants. *)
  let money =
    List.fold_left
      (fun acc bank ->
        acc
        + Hermes_store.Database.total (Dtm.database dtm bank) ~table:"accounts"
        + Hermes_store.Database.total (Dtm.database dtm bank) ~table:"fees")
      0 banks
  in
  let expected = n_banks * accounts_per_bank * initial_balance in
  Fmt.pr "transfers: %d committed, %d given up@." !committed !aborted;
  Fmt.pr "fees posted by tellers: %d@." !fees_posted;
  Fmt.pr "money: %d (expected %d) -- %s@." money expected (if money = expected then "CONSERVED" else "LOST!");
  let totals = Dtm.totals dtm in
  Fmt.pr "unilateral aborts: %d, resubmissions: %d, DLU denials: %d@." totals.Dtm.unilateral_aborts
    totals.Dtm.resubmissions totals.Dtm.dlu_denials;
  let rep = Report.analyze (Dtm.history dtm) in
  Fmt.pr "@.%a@." Report.pp rep;
  if money <> expected || not (Report.ok rep) then exit 1
