(* The result of one workload run, and the dump that collects the results of
   a whole invocation. Both round-trip through JSON: a dump written by one
   invocation is the baseline [--against] reads in a later one. *)

module Json = Hermes_obs.Json

type t = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  fingerprint : string;  (* what every rep must reproduce exactly *)
  checks : string list;  (* failed correctness checks, one line each *)
  end_to_end : (string * float list) list;  (* samples per metric, catalogue order *)
  raw : (string * float list) list;  (* the wall-clock samples before host-speed calibration *)
  per_layer : (string * float) list;  (* values from the traced rep; [] when untraced *)
}

type dump = { seconds : int; host_cores : int; outcomes : t list }

let schema = "hermes-perf/1"

let fail_ratio t = if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted

(* Every end-to-end sample set, plus the failure ratio that [--against]
   compares alongside them. *)
let samples t name =
  if name = Metric.fail_ratio.Metric.name then [ fail_ratio t ] else List.assoc name t.end_to_end

let float_json f =
  if Float.is_finite f then Json.Float f else invalid_arg (Printf.sprintf "Outcome: non-finite value %f" f)

let samples_json kvs = Json.Obj (List.map (fun (k, xs) -> (k, Json.List (List.map float_json xs))) kvs)

let to_json t =
  Json.Obj
    [
      ("workload", Json.String t.workload);
      ("seed", Json.Int t.seed);
      ("correct", Json.Bool t.correct);
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("fingerprint", Json.String t.fingerprint);
      ("checks", Json.List (List.map (fun c -> Json.String c) t.checks));
      ("end_to_end", samples_json t.end_to_end);
      ("raw", samples_json t.raw);
      ("per_layer", Json.Obj (List.map (fun (k, x) -> (k, float_json x)) t.per_layer));
    ]

let bad what = raise (Json.Parse_error ("Outcome: expected " ^ what))
let to_float = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> bad "a number"
let to_string = function Json.String s -> s | _ -> bad "a string"
let to_list = function Json.List xs -> xs | _ -> bad "a list"
let to_obj = function Json.Obj kvs -> kvs | _ -> bad "an object"
let to_bool = function Json.Bool b -> b | _ -> bad "a boolean"

let of_json j =
  let field k = Json.member k j in
  let samples v = List.map (fun (k, v) -> (k, List.map to_float (to_list v))) (to_obj v) in
  {
    workload = to_string (field "workload");
    seed = Json.to_int (field "seed");
    correct = to_bool (field "correct");
    attempted = Json.to_int (field "attempted");
    failed = Json.to_int (field "failed");
    fingerprint = to_string (field "fingerprint");
    checks = List.map to_string (to_list (field "checks"));
    end_to_end = samples (field "end_to_end");
    raw = samples (field "raw");
    per_layer = List.map (fun (k, v) -> (k, to_float v)) (to_obj (field "per_layer"));
  }

let dump_to_json d =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("seconds", Json.Int d.seconds);
      ("host_cores", Json.Int d.host_cores);
      ("workloads", Json.List (List.map to_json d.outcomes));
    ]

let dump_of_json j =
  if Json.member "schema" j <> Json.String schema then bad ("schema " ^ schema);
  {
    seconds = Json.to_int (Json.member "seconds" j);
    host_cores = Json.to_int (Json.member "host_cores" j);
    outcomes = List.map of_json (to_list (Json.member "workloads" j));
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')
