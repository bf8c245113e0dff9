(* The reference benchmark.

     dune exec perfbench/perf.exe -- [--seed N] [--seconds S] [--trace 0|1]
                                     [--json FILE] [--spans FILE] [--against FILE]

   runs the five workloads of Workloads.all, each in a child process of its
   own, one at a time, and prints every end-to-end metric with its median,
   quartiles and sample count, then the per-layer metrics of each
   workload's traced rep. --json writes the dump, --spans the spans as JSON
   lines, and --against compares the run with an earlier dump (exit 1 on
   any "worse").

     dune exec perfbench/perf.exe -- --workload NAME --seed N --seconds S --trace 0|1

   runs one workload in this process. Its last line of output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}, where metrics holds
   the end-to-end medians (--trace 0) or the per-layer values (--trace 1).

   Exit codes: 0 done, 1 a regression against the baseline, 2 a rep that
   did not reproduce the first rep's outcome, or any other error. *)

open Perfbench
module Json = Hermes_obs.Json

let pr = Printf.printf

let print_outcome (o : Outcome.t) =
  pr "\n== %s (seed %d): %s, %d attempted, %d failed ==\n" o.Outcome.workload o.Outcome.seed
    (if o.Outcome.correct then "correct" else "INCORRECT")
    o.Outcome.attempted o.Outcome.failed;
  List.iter (fun c -> pr "CHECK %s %s\n" o.Outcome.workload c) o.Outcome.checks;
  pr "  %-36s %14s %14s %14s %4s %14s  %s\n" "end-to-end" "median" "q1" "q3" "n" "raw median" "unit";
  List.iter
    (fun (m : Metric.end_to_end) ->
      let s = Summary.of_samples (Outcome.samples o m.Metric.name) in
      let raw =
        match List.assoc_opt m.Metric.name o.Outcome.raw with
        | Some xs -> Printf.sprintf "%14.6g" (Summary.of_samples xs).Summary.median
        | None -> String.make 14 ' '
      in
      pr "  %-36s %14.6g %14.6g %14.6g %4d %s  %s\n" m.Metric.name s.Summary.median s.Summary.q1 s.Summary.q3
        s.Summary.n raw m.Metric.unit_)
    Metric.reported;
  if o.Outcome.per_layer <> [] then
    List.iter
      (fun (l : Metric.layer) ->
        pr "  [%s] -> %s\n" l.Metric.layer l.Metric.moves;
        List.iter
          (fun (name, unit_, _) ->
            pr "    %-34s %14.6g  %s\n" name (List.assoc name o.Outcome.per_layer) unit_)
          l.Metric.metrics)
      Metric.per_layer

let print_against rows =
  pr "\n== against the baseline ==\n";
  pr "  %-10s %-14s %14s %14s %7s  %s\n" "workload" "metric" "baseline" "current" "change" "verdict";
  List.iter
    (fun (r : Verdict.row) ->
      let b = r.Verdict.baseline.Summary.median and c = r.Verdict.current.Summary.median in
      pr "  %-10s %-14s %14.6g %14.6g %+6.1f%%  %s\n" r.Verdict.workload r.Verdict.metric.Metric.name b c
        (if b = 0.0 then 0.0 else 100.0 *. (c -. b) /. Float.abs b)
        (Verdict.to_string r.Verdict.verdict))
    rows

(* The result line that ends a single-workload run. *)
let result_line (o : Outcome.t) ~traced =
  let metric name unit_ value =
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])
  in
  let metrics =
    if traced then
      List.map
        (fun (name, unit_, _) -> metric name unit_ (List.assoc name o.Outcome.per_layer))
        Metric.per_layer_metrics
    else
      List.map
        (fun (m : Metric.end_to_end) ->
          let s = Summary.of_samples (Outcome.samples o m.Metric.name) in
          metric m.Metric.name m.Metric.unit_ s.Summary.median)
        Metric.end_to_end
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool o.Outcome.correct);
         ("attempted", Json.Int o.Outcome.attempted);
         ("failed", Json.Int o.Outcome.failed);
         ("metrics", Json.Obj metrics);
       ])

(* One workload in a child process of this executable; its outcome comes
   back through a temporary file. *)
let run_child ~seed ~seconds ~traced ~spans (w : Workloads.t) =
  let out = Filename.temp_file "perf" ".json" in
  let span_file = Filename.temp_file "perf" ".jsonl" in
  let args =
    [|
      Sys.executable_name; "--workload"; w.Workloads.name; "--seed"; string_of_int seed; "--seconds";
      string_of_int seconds; "--trace"; (if traced then "1" else "0"); "--json"; out; "--spans"; span_file;
    |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  let _, status = Unix.waitpid [] pid in
  let finish () =
    Sys.remove out;
    Sys.remove span_file
  in
  match status with
  | Unix.WEXITED 0 ->
      let o = Outcome.of_json (Json.of_string (Outcome.read_file out)) in
      Option.iter (fun oc -> output_string oc (Outcome.read_file span_file)) spans;
      finish ();
      o
  | _ ->
      finish ();
      failwith (Printf.sprintf "workload %s: child process failed" w.Workloads.name)

let main workload seed seconds trace json spans against =
  let traced = trace = 1 in
  try
    let dump, single =
      match workload with
      | Some w ->
          let o, tr = Runner.run w ~seed ~seconds:(float_of_int seconds) ~traced in
          Option.iter
            (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc (Runner.spans_jsonl tr)))
            spans;
          Option.iter (fun path -> Outcome.write_file path (Outcome.to_json o)) json;
          ({ Outcome.seconds; host_cores = Domain.recommended_domain_count (); outcomes = [ o ] }, Some o)
      | None ->
          let spans_oc = Option.map open_out_bin spans in
          let outcomes = List.map (run_child ~seed ~seconds ~traced ~spans:spans_oc) Workloads.all in
          Option.iter close_out spans_oc;
          let dump = { Outcome.seconds; host_cores = Domain.recommended_domain_count (); outcomes } in
          Option.iter (fun path -> Outcome.write_file path (Outcome.dump_to_json dump)) json;
          (dump, None)
    in
    List.iter print_outcome dump.Outcome.outcomes;
    let regressed =
      match against with
      | None -> false
      | Some path ->
          let baseline = Outcome.dump_of_json (Json.of_string (Outcome.read_file path)) in
          let rows = Verdict.compare_dumps ~baseline ~current:dump in
          print_against rows;
          Verdict.regressed rows
    in
    Option.iter (fun o -> pr "%s\n" (result_line o ~traced)) single;
    if regressed then 1 else 0
  with
  | Runner.Nondeterministic msg ->
      Printf.eprintf "perf: nondeterministic run: %s\n" msg;
      2
  | e ->
      Printf.eprintf "perf: %s\n" (Printexc.to_string e);
      2

let () =
  let open Cmdliner in
  let workload =
    let names = List.map (fun (w : Workloads.t) -> (w.Workloads.name, Some w)) Workloads.all in
    Arg.(
      value
      & opt (enum names) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Run only this workload, in this process, and end the output with the JSON result line.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed of every workload's inputs.") in
  let seconds =
    Arg.(
      value & opt int 20
      & info [ "seconds" ] ~docv:"S" ~doc:"Measure each workload for $(docv) seconds (at least three reps).")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", 0); ("1", 1) ]) 1
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1 adds a traced rep with Obs on, which gives the per-layer metrics; 0 leaves it out.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the results to $(docv).")
  in
  let spans =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans" ] ~docv:"FILE" ~doc:"Write the spans as JSON lines to $(docv).")
  in
  let against =
    Arg.(
      value
      & opt (some file) None
      & info [ "against" ] ~docv:"FILE"
          ~doc:"Compare with the dump in $(docv); exit 1 if any metric got worse.")
  in
  let term = Term.(const main $ workload $ seed $ seconds $ trace $ json $ spans $ against) in
  let info = Cmd.info "perf" ~doc:"Run the reference benchmark of the hermes transaction manager." in
  exit (Cmd.eval' (Cmd.v info term))
