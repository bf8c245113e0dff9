(* The anomaly tour: replays the paper's histories H1, H2, H3 and the
   §5.3 overtaking race through the real protocol stack, printing each
   recorded history in the paper's notation and showing which
   certification step catches which anomaly.

   Run with:  dune exec examples/anomaly_tour.exe *)

module Scenario = Hermes_harness.Scenario
module Config = Hermes_core.Config
module History = Hermes_history.History
module Committed = Hermes_history.Committed
module Report = Hermes_history.Report

let hr () = Fmt.pr "%s@." (String.make 78 '-')

let show_run (r : Scenario.run) =
  List.iter (fun (l, o) -> Fmt.pr "  %s: %a@." l Scenario.pp_outcome_opt o) r.Scenario.outcomes;
  List.iter (fun (l, ok) -> Fmt.pr "  %s (local): %s@." l (if ok then "committed" else "failed")) r.Scenario.locals;
  Fmt.pr "  history (committed projection, reads annotated with their source):@.    %a@."
    History.pp_with_from
    (Committed.extended r.Scenario.history);
  Fmt.pr "  %a@." Report.pp r.Scenario.report

let tour title blurb runs =
  hr ();
  Fmt.pr "%s@." title;
  hr ();
  Fmt.pr "%s@.@." blurb;
  List.iter
    (fun (name, run) ->
      Fmt.pr "[%s]@." name;
      show_run run;
      Fmt.pr "@.")
    runs

let () =
  let commit_only = { Config.naive with Config.commit_certification = true } in
  tour "H1 -- global view distortion (paper S3, S4)"
    "T1 reads X^a and updates Y^a, Z^b. Its prepared subtransaction at site a is\n\
     unilaterally aborted right after the global commit record; T2, waiting on the\n\
     locks, deletes Y^a and updates X^a, then commits. T1's resubmission now sees\n\
     T2's world: it reads X^a from T2 and its decomposition has lost the Y^a\n\
     update. The basic prepare certification (alive-interval intersection) refuses\n\
     T2 instead."
    [
      ("naive agent", Scenario.h1 ~certifier:Config.naive ());
      ("full certifier", Scenario.h1 ~certifier:Config.full ());
    ];
  tour "H1 under 'commit certification only' -- a liveness lesson"
    "With only the commit certification enabled, T1 and T2 deadlock through the\n\
     resubmitted locks: T1's recovery waits for T2's locks, T2's commit waits for\n\
     T1's smaller serial number. The run is cut off by the time cap with both\n\
     transactions stuck, globally committed but not at every site (torn) -- the\n\
     Correctness Invariant enforced at prepare time is what keeps recovery live."
    [ ("commit cert only", Scenario.h1 ~certifier:commit_only ()) ];
  tour "H2 -- local view distortion via a direct conflict (paper S5.1)"
    "T1's subtransaction at a recovers slowly; T3 reads Z^b from T1 and commits at\n\
     a first, so local commits at a and b are in opposite orders. The local\n\
     transaction L4 then reads Q^a from T3 but Y^a from T_0 -- a view no serial\n\
     history allows. Commit certification delays T3's local commit behind T1's\n\
     smaller serial number."
    [
      ("naive agent", Scenario.h2 ~certifier:Config.naive ());
      ("commit cert only", Scenario.h2 ~certifier:commit_only ());
      ("full certifier", Scenario.h2 ~certifier:Config.full ());
    ];
  tour "H3 -- local view distortion via INDIRECT conflicts (paper S5.1)"
    "T5 and T6 touch disjoint items -- no direct conflict, so no prepare-order\n\
     argument applies. Local transactions L7 and L8 connect them: L8 sees\n\
     T5-but-not-T6, L7 sees T6-but-not-T5. Only the globally unique serial-number\n\
     order aligns the commit orders at both sites."
    [
      ("naive agent", Scenario.h3 ~certifier:Config.naive ());
      ("commit cert only", Scenario.h3 ~certifier:commit_only ());
      ("full certifier", Scenario.h3 ~certifier:Config.full ());
    ];
  hr ();
  Fmt.pr "S5.3 -- COMMIT overtakes PREPARE@.";
  hr ();
  Fmt.pr
    "Two non-conflicting transactions; with network jitter, Tk's COMMIT can reach\n\
     site b before Tj's PREPARE. Without the prepare-certification extension the\n\
     late PREPARE is accepted and the commit orders cross; with it, the PREPARE\n\
     behind a bigger committed serial number is refused.@.@.";
  let hunt certifier =
    let rec go seed =
      if seed > 2_000 then None
      else
        let r = Scenario.overtake ~certifier ~jitter:8_000 ~seed () in
        if r.Scenario.overtaken then Some (seed, r) else go (seed + 1)
    in
    go 1
  in
  (match hunt { Config.full with Config.certification_extension = false } with
  | Some (seed, r) ->
      Fmt.pr "[no extension, seed %d]@." seed;
      show_run r.Scenario.o_run;
      Fmt.pr "@.[full certifier, same seed]@.";
      let f = Scenario.overtake ~certifier:Config.full ~jitter:8_000 ~seed () in
      show_run f.Scenario.o_run;
      Fmt.pr "  extension refusals: %d@." f.Scenario.extension_refusals
  | None -> Fmt.pr "no race found in 2000 seeds -- increase jitter@.");
  Fmt.pr "@.End of tour.@."
