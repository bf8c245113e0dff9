(* The placement layer: epoch-versioned shard maps and their transition
   invariants (I6(a): total, disjoint ownership), plus the routing
   contract between [Dtm.locate] and the strided gid allocation. *)

open Hermes_kernel
module Shard_map = Hermes_placement.Shard_map
module Dtm = Hermes_core.Dtm
module Driver = Hermes_workload.Driver
module Spec = Hermes_workload.Spec
module Stats = Hermes_workload.Stats
module Report = Hermes_history.Report

(* ------------------------------------------------------------------ *)
(* unit: static map shape                                              *)
(* ------------------------------------------------------------------ *)

let test_static_map () =
  let m = Shard_map.static ~n_sites:3 () in
  Alcotest.(check int) "epoch 0" 0 (Shard_map.epoch m);
  Alcotest.(check int) "one shard per site" 3 (Shard_map.n_shards m);
  for shard = 0 to 2 do
    Alcotest.(check int) "identity ownership" shard
      (Site.to_int (Shard_map.owner m ~shard))
  done;
  let m = Shard_map.static ~n_shards:8 ~n_sites:3 () in
  Alcotest.(check int) "8 shards" 8 (Shard_map.n_shards m);
  for shard = 0 to 7 do
    Alcotest.(check int) "round-robin ownership" (shard mod 3)
      (Site.to_int (Shard_map.owner m ~shard))
  done;
  Alcotest.(check int) "resolve follows shard_of_key" (13 mod 8 mod 3)
    (Site.to_int (Shard_map.resolve m ~key:13))

let test_move_epoch () =
  let m0 = Shard_map.static ~n_sites:4 () in
  let m1 = Shard_map.move m0 ~shard:2 ~to_:(Site.of_int 0) in
  Alcotest.(check int) "epoch bumped" 1 (Shard_map.epoch m1);
  Alcotest.(check int) "shard moved" 0 (Site.to_int (Shard_map.owner m1 ~shard:2));
  (* the installed map is a pure value: the old epoch still answers *)
  Alcotest.(check int) "old map untouched" 2 (Site.to_int (Shard_map.owner m0 ~shard:2));
  Alcotest.(check (list int)) "gainer's shards" [ 0; 2 ] (Shard_map.shards_of m1 ~site:(Site.of_int 0));
  Alcotest.(check (list int)) "loser's shards" [] (Shard_map.shards_of m1 ~site:(Site.of_int 2))

(* ------------------------------------------------------------------ *)
(* property: every transition preserves total, disjoint ownership      *)
(* ------------------------------------------------------------------ *)

(* A random walk over the transition space: moves, joins, and leaves in
   a data-driven sequence, checking I6(a) after every step. *)
type step = Move of int * int | Add of int | Remove of int

let gen_walk =
  QCheck.Gen.(
    let* n_sites = int_range 1 5 in
    let* n_shards = int_range 1 12 in
    let* steps =
      list_size (int_range 0 12)
        (oneof
           [
             (let* shard = int_range 0 1000 in
              let* site = int_range 0 1000 in
              return (Move (shard, site)));
             (let* site = int_range 0 12 in
              return (Add site));
             (let* site = int_range 0 1000 in
              return (Remove site));
           ])
    in
    return (n_sites, n_shards, steps))

let pp_step = function
  | Move (shard, site) -> Printf.sprintf "Move (%d, %d)" shard site
  | Add site -> Printf.sprintf "Add %d" site
  | Remove site -> Printf.sprintf "Remove %d" site

let arb_walk =
  QCheck.make gen_walk ~print:(fun (n_sites, n_shards, steps) ->
      Printf.sprintf "sites=%d shards=%d [%s]" n_sites n_shards
        (String.concat "; " (List.map pp_step steps)))

(* Total and disjoint: every shard has exactly one owner, and the owner
   is a serving site. [shards_of] over the serving sites covers the
   shard space without overlap. *)
let coverage_ok m =
  let n = Shard_map.n_shards m in
  let sites = Shard_map.sites m in
  let owned = List.concat_map (fun site -> Shard_map.shards_of m ~site) sites in
  List.length owned = n
  && List.sort_uniq compare owned = List.init n Fun.id
  && List.for_all (fun shard -> List.mem (Shard_map.owner m ~shard) sites) (List.init n Fun.id)

let prop_transitions_preserve_coverage =
  QCheck.Test.make ~name:"shard-map transitions keep ownership total and disjoint" ~count:300
    arb_walk (fun (n_sites, n_shards, steps) ->
      let apply m = function
        | Move (shard, site) ->
            let sites = Shard_map.sites m in
            let shard = shard mod Shard_map.n_shards m in
            let to_ = List.nth sites (site mod List.length sites) in
            Shard_map.move m ~shard ~to_
        | Add site ->
            let s = Site.of_int site in
            if List.mem s (Shard_map.sites m) then m else Shard_map.add_site m ~site:s
        | Remove site ->
            let sites = Shard_map.sites m in
            if List.length sites <= 1 then m
            else Shard_map.remove_site m ~site:(List.nth sites (site mod List.length sites))
      in
      let final, epochs_ok =
        List.fold_left
          (fun (m, ok) step ->
            let m' = apply m step in
            let bumped = m' == m || Shard_map.epoch m' = Shard_map.epoch m + 1 in
            if not (coverage_ok m') then QCheck.Test.fail_reportf "coverage broken after %s" (pp_step step);
            (m', ok && bumped))
          (Shard_map.static ~n_shards ~n_sites (), true)
          steps
      in
      coverage_ok final && epochs_ok)

(* [resolve] always lands on a serving site, for any key (negative too:
   keys are hashed with a non-negative mod). *)
let prop_resolve_serving =
  QCheck.Test.make ~name:"resolve lands on a serving site for any key" ~count:300
    QCheck.(pair arb_walk (list QCheck.int))
    (fun ((n_sites, n_shards, steps), keys) ->
      let apply m = function
        | Move (shard, site) ->
            let sites = Shard_map.sites m in
            Shard_map.move m
              ~shard:(shard mod Shard_map.n_shards m)
              ~to_:(List.nth sites (site mod List.length sites))
        | Add site ->
            let s = Site.of_int site in
            if List.mem s (Shard_map.sites m) then m else Shard_map.add_site m ~site:s
        | Remove site ->
            let sites = Shard_map.sites m in
            if List.length sites <= 1 then m
            else Shard_map.remove_site m ~site:(List.nth sites (site mod List.length sites))
      in
      let m = List.fold_left apply (Shard_map.static ~n_shards ~n_sites ()) steps in
      List.for_all (fun key -> List.mem (Shard_map.resolve m ~key) (Shard_map.sites m)) keys)

(* ------------------------------------------------------------------ *)
(* property: Dtm.locate inverts the strided gid allocation             *)
(* ------------------------------------------------------------------ *)

(* Execution shard [x] of [k] allocates gids [x + 1, x + 1 + k,
   x + 1 + 2k, ...]; [locate] must send coordinator traffic for such a gid
   back to [x], and agent traffic for site [s] to its shard [s mod k]. *)
let prop_locate_strided =
  QCheck.Test.make ~name:"Dtm.locate inverts strided gid allocation" ~count:500
    QCheck.(
      pair (triple (int_range 1 16) (int_bound 15) (int_bound 15)) (pair (int_bound 1000) (int_bound 15)))
    (fun ((n_sites, k, x), (j, s)) ->
      let n_exec = 1 + (k mod n_sites) in
      let x = x mod n_exec and s = s mod n_sites in
      let gid = x + 1 + (j * n_exec) in
      Dtm.locate ~n_exec (Wire.Coordinator gid) = x
      && Dtm.locate ~n_exec (Wire.Agent (Site.of_int s)) = s mod n_exec)

(* ------------------------------------------------------------------ *)
(* unit: a move drawn onto a site that has since left                  *)
(* ------------------------------------------------------------------ *)

(* Move targets are drawn before the run, so a move can fire after its
   target has left the serving set (here site 3 leaves at tick 10k and
   the moves fire from tick 20k on). Such a move is a no-op, like a move
   onto the current owner, and the run completes clean. *)
let test_move_onto_departed_site () =
  let r =
    Driver.run
      {
        Driver.default_setup with
        Driver.spec = Spec.make ~n_sites:4 ~n_global:200 ();
        seed = 1;
        moves = 12;
        reconfigure_at = 20_000;
        leave_schedule = [ (10_000, 3) ];
      }
  in
  Alcotest.(check int) "quota completed" 200
    (Stats.committed r.Driver.stats + Stats.aborted_final r.Driver.stats);
  Alcotest.(check int) "nothing stuck" 0 r.Driver.stuck;
  Alcotest.(check bool) "history clean" true (Report.ok (Report.analyze r.Driver.history))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "placement"
    [
      ( "shard_map",
        [
          Alcotest.test_case "static map" `Quick test_static_map;
          Alcotest.test_case "move bumps epoch, pure value" `Quick test_move_epoch;
          q prop_transitions_preserve_coverage;
          q prop_resolve_serving;
          Alcotest.test_case "move onto a departed site is a no-op" `Quick
            test_move_onto_departed_site;
        ] );
      ("routing", [ q prop_locate_strided ]);
    ]
