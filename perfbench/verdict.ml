(* How one metric of a run compares with the same metric of a baseline run.

   Exact metrics (simulated time, failures) must reproduce bit for bit; any
   difference is better or worse by the metric's direction. Wall-clock
   metrics are compared by median against the tolerance
   max(bound * baseline median, floor). When either side's quartile spread
   is wider than that tolerance, noise cannot be told from a change: the
   verdict is unresolved unless every sample of the run beats every
   sample of the baseline. *)

type t = Better | Same | Worse | Unresolved

let to_string = function Better -> "better" | Same -> "same" | Worse -> "worse" | Unresolved -> "unresolved"

let classify (m : Metric.end_to_end) ~baseline ~current =
  let old_ = Summary.of_samples baseline and new_ = Summary.of_samples current in
  (* positive = worse, in the metric's unit *)
  let worsening a b = match m.Metric.better with Metric.Lower -> b -. a | Metric.Higher -> a -. b in
  let delta = worsening old_.Summary.median new_.Summary.median in
  if m.Metric.exact then if delta = 0.0 then Same else if delta > 0.0 then Worse else Better
  else
    let tolerance = Float.max (m.Metric.bound *. Float.abs old_.Summary.median) m.Metric.floor in
    let iqr (s : Summary.t) = s.Summary.q3 -. s.Summary.q1 in
    if Float.max (iqr old_) (iqr new_) > tolerance then
      if List.for_all (fun b -> List.for_all (fun a -> worsening a b < 0.0) baseline) current then Better
      else Unresolved
    else if delta > tolerance then Worse
    else if delta < -.tolerance then Better
    else Same

type row = {
  workload : string;
  metric : Metric.end_to_end;
  baseline : Summary.t;
  current : Summary.t;
  verdict : t;
}

(* One row per workload present in both dumps x reported end-to-end
   metric. *)
let compare_dumps ~(baseline : Outcome.dump) ~(current : Outcome.dump) =
  List.concat_map
    (fun (cur : Outcome.t) ->
      let same_workload (b : Outcome.t) = b.Outcome.workload = cur.Outcome.workload in
      match List.find_opt same_workload baseline.Outcome.outcomes with
      | None -> []
      | Some base ->
          List.map
            (fun (m : Metric.end_to_end) ->
              let b = Outcome.samples base m.Metric.name and c = Outcome.samples cur m.Metric.name in
              {
                workload = cur.Outcome.workload;
                metric = m;
                baseline = Summary.of_samples b;
                current = Summary.of_samples c;
                verdict = classify m ~baseline:b ~current:c;
              })
            Metric.reported)
    current.Outcome.outcomes

let regressed rows = List.exists (fun r -> r.verdict = Worse) rows
