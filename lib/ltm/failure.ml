(* The unilateral-abort injector.

   "Preserving D- and E-autonomy of an LDBS means that it can roll back a
   single transaction at any time. [...] This may happen, in a real
   system, even after all the database commands have been executed. The
   reasons are various implementation-dependent issues, like the log
   buffer overflow (INGRES), or unexpected system bugs." (§1)

   The injector is lifecycle-driven so the event queue drains when the
   workload does: when the 2PC Agent moves a subtransaction to the
   simulated prepared state, the injector flips a coin and, on heads,
   schedules one abort attempt an exponentially distributed delay later.
   Unilateral aborts of *prepared* subtransactions are what create the
   resubmission anomalies. Only global subtransactions are ever held
   open, so local transactions are struck only by site crashes.

   The TW assumption ("after a fixed number of resubmissions, any global
   subtransaction that should be committed can be committed") is realized
   by capping injected aborts per (logical transaction, site). *)

open Hermes_kernel
module Engine = Hermes_sim.Engine

(* Mean ticks from prepare to the abort attempt. *)
let delay_mean = 2_000

(* TW cap per logical transaction at this site. *)
let max_per_victim = 3

type config =
  | Disabled
  | Prepared of float  (* chance a prepared (agent-held) subtransaction is aborted *)
  | Crashes of { mean_interval : int; horizon : int }
      (* mean ticks between site crashes (collective aborts); no crash is
         scheduled past [horizon], so the run can drain *)

let disabled = Disabled
let prepared_rate p = if p > 0.0 then Prepared p else Disabled

(* Site crashes: the paper's *collective* unilateral abort ("without
   making difference between single and collective abort (i.e. site
   crash)", §1). Every live transaction at the site is unilaterally
   aborted at once; the LDBS itself comes straight back (media recovery
   is RR's job, and the 2PC Agents then resubmit the prepared ones). *)
let crashes ~mean_interval ~horizon =
  if mean_interval > 0 then Crashes { mean_interval; horizon } else Disabled

type t = { mutable injected : int; mutable crashes : int }

let attach ~engine ~rng ~config ltm =
  let t = { injected = 0; crashes = 0 } in
  (* Injected aborts per victim, keyed [2 gid] for global transaction
     [gid] and [2 n + 1] for local transaction [n]: an injector serves
     one site, so the key is injective. *)
  let per_victim = Int_tbl.create 32 in
  let strike txn =
    let key =
      match (Ltm.owner txn).Txn.Incarnation.txn with
      | Txn.Global gid -> 2 * gid
      | Txn.Local { n; _ } -> (2 * n) + 1
    in
    let struck = Option.value ~default:0 (Int_tbl.find_opt per_victim key) in
    if struck < max_per_victim && Ltm.unilateral_abort ltm txn then begin
      t.injected <- t.injected + 1;
      Int_tbl.replace per_victim key (struck + 1)
    end
  in
  (match config with
  | Disabled -> ()
  | Prepared p ->
      Ltm.set_held_open_hook ltm (fun txn ->
          if Rng.bool rng ~p then
            Engine.schedule_unit engine ~delay:(Rng.exponential rng ~mean:delay_mean) (fun () ->
                if Ltm.is_held_open txn then strike txn))
  | Crashes { mean_interval; horizon } ->
      (* Collective abort: strike every live transaction at the site. The
         cap still applies per victim, so a crashloop cannot break TW.
         The crash scheduler stops at the horizon so the event queue can
         drain. *)
      let rec crash_tick () =
        if Time.to_int (Engine.now engine) < horizon then begin
          let victims = Ltm.live_txns ltm in
          if victims <> [] then begin
            t.crashes <- t.crashes + 1;
            List.iter strike victims
          end;
          Engine.schedule_unit engine ~delay:(Rng.exponential rng ~mean:mean_interval) crash_tick
        end
      in
      Engine.schedule_unit engine ~delay:(Rng.exponential rng ~mean:mean_interval) crash_tick);
  t

let injected t = t.injected
let crash_count t = t.crashes
