(* Tests for hermes.store: database state, before images and undo logs
   (the RR assumption). *)

open Hermes_kernel
open Hermes_store

let site0 = Site.of_int 0
let inc k = Txn.Incarnation.make ~txn:(Txn.global k) ~site:site0 ~inc:0

let test_read_write () =
  let db = Database.create ~site:site0 in
  Alcotest.(check bool) "missing" true (Database.read db ~table:"X" ~key:1 = None);
  let before = Database.write db ~table:"X" ~key:1 (Row.initial 10) in
  Alcotest.(check bool) "no before image" true (before = None);
  (match Database.read db ~table:"X" ~key:1 with
  | Some row -> Alcotest.(check int) "value" 10 (Row.value row)
  | None -> Alcotest.fail "row missing");
  let before = Database.write db ~table:"X" ~key:1 (Row.make ~value:20 ~writer:(inc 1)) in
  match before with
  | Some row -> Alcotest.(check int) "before image" 10 (Row.value row)
  | None -> Alcotest.fail "expected before image"

let test_delete_restore () =
  let db = Database.create ~site:site0 in
  ignore (Database.write db ~table:"X" ~key:1 (Row.initial 10));
  let before = Database.delete db ~table:"X" ~key:1 in
  Alcotest.(check bool) "deleted" true (Database.read db ~table:"X" ~key:1 = None);
  Database.restore db ~table:"X" ~key:1 before;
  match Database.read db ~table:"X" ~key:1 with
  | Some row -> Alcotest.(check int) "restored" 10 (Row.value row)
  | None -> Alcotest.fail "restore failed"

let test_writer_tag () =
  let db = Database.create ~site:site0 in
  ignore (Database.write db ~table:"X" ~key:1 (Row.initial 5));
  (match Database.read db ~table:"X" ~key:1 with
  | Some row -> Alcotest.(check bool) "initial writer is T0" true (Row.writer row = None)
  | None -> Alcotest.fail "missing");
  ignore (Database.write db ~table:"X" ~key:1 (Row.make ~value:6 ~writer:(inc 3)));
  match Database.read db ~table:"X" ~key:1 with
  | Some row -> (
      match Row.writer row with
      | Some w -> Alcotest.(check bool) "writer recorded" true (Txn.equal w.Txn.Incarnation.txn (Txn.global 3))
      | None -> Alcotest.fail "writer missing")
  | None -> Alcotest.fail "missing"

let test_range () =
  let db = Database.create ~site:site0 in
  List.iter (fun k -> ignore (Database.write db ~table:"X" ~key:k (Row.initial k))) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "ascending keys" [ 3; 5; 7 ] (Database.keys_in_range db ~table:"X" ~lo:2 ~hi:8);
  Alcotest.(check (list int)) "empty range" [] (Database.keys_in_range db ~table:"X" ~lo:10 ~hi:20)

let test_total_and_size () =
  let db = Database.create ~site:site0 in
  List.iter (fun k -> ignore (Database.write db ~table:"acct" ~key:k (Row.initial 100))) [ 1; 2; 3 ];
  ignore (Database.write db ~table:"other" ~key:1 (Row.initial 7));
  Alcotest.(check int) "total" 300 (Database.total db ~table:"acct");
  Alcotest.(check int) "size" 4 (Database.size db);
  Alcotest.(check (list string)) "tables" [ "acct"; "other" ] (Database.table_names db)

let test_undo_rollback () =
  let db = Database.create ~site:site0 in
  ignore (Database.write db ~table:"X" ~key:1 (Row.initial 10));
  ignore (Database.write db ~table:"X" ~key:2 (Row.initial 20));
  let u = Undo.create () in
  (* Transaction overwrites 1, deletes 2, inserts 3, then rolls back. *)
  let w = inc 1 in
  Undo.record u ~table:"X" ~key:1 ~before:(Database.write db ~table:"X" ~key:1 (Row.make ~value:11 ~writer:w));
  Undo.record u ~table:"X" ~key:2 ~before:(Database.delete db ~table:"X" ~key:2);
  Undo.record u ~table:"X" ~key:3 ~before:(Database.write db ~table:"X" ~key:3 (Row.make ~value:33 ~writer:w));
  Alcotest.(check int) "3 entries" 3 (Undo.length u);
  Undo.rollback u db;
  Alcotest.(check bool) "log cleared" true (Undo.is_empty u);
  Alcotest.(check int) "key1 restored" 10 (Row.value (Option.get (Database.read db ~table:"X" ~key:1)));
  Alcotest.(check int) "key2 restored" 20 (Row.value (Option.get (Database.read db ~table:"X" ~key:2)));
  Alcotest.(check bool) "key3 gone" true (Database.read db ~table:"X" ~key:3 = None)

let test_undo_reverse_order () =
  (* Two writes to the same key must restore the oldest before image. *)
  let db = Database.create ~site:site0 in
  ignore (Database.write db ~table:"X" ~key:1 (Row.initial 1));
  let u = Undo.create () in
  let w = inc 1 in
  Undo.record u ~table:"X" ~key:1 ~before:(Database.write db ~table:"X" ~key:1 (Row.make ~value:2 ~writer:w));
  Undo.record u ~table:"X" ~key:1 ~before:(Database.write db ~table:"X" ~key:1 (Row.make ~value:3 ~writer:w));
  Undo.rollback u db;
  Alcotest.(check int) "original restored" 1 (Row.value (Option.get (Database.read db ~table:"X" ~key:1)))

let test_undo_discard () =
  let db = Database.create ~site:site0 in
  let u = Undo.create () in
  Undo.record u ~table:"X" ~key:1 ~before:(Database.write db ~table:"X" ~key:1 (Row.initial 9));
  Undo.discard u;
  Undo.rollback u db;
  (* discard then rollback must be a no-op: the write survives *)
  Alcotest.(check int) "commit keeps value" 9 (Row.value (Option.get (Database.read db ~table:"X" ~key:1)))

(* Property: a random batch of upserts/deletes recorded in an undo log is
   fully reverted by rollback. *)
let prop_rollback_restores =
  let op_gen = QCheck.(pair (int_bound 10) (option (int_bound 100))) in
  QCheck.Test.make ~name:"rollback restores the exact prior state" ~count:200
    QCheck.(pair (list (pair (int_bound 10) (int_bound 100))) (list op_gen))
    (fun (init, ops) ->
      let db = Database.create ~site:site0 in
      List.iter (fun (k, v) -> ignore (Database.write db ~table:"X" ~key:k (Row.initial v))) init;
      let snapshot_before = Database.snapshot db in
      let u = Undo.create () in
      let w = inc 99 in
      List.iter
        (fun (k, v) ->
          match v with
          | Some v ->
              Undo.record u ~table:"X" ~key:k ~before:(Database.write db ~table:"X" ~key:k (Row.make ~value:v ~writer:w))
          | None -> Undo.record u ~table:"X" ~key:k ~before:(Database.delete db ~table:"X" ~key:k))
        ops;
      Undo.rollback u db;
      Database.snapshot db = snapshot_before)

(* [Database.keys_in_range] as it was before range probes: fold every
   row, keep those in range, sort. *)
let keys_in_range_reference db ~table ~lo ~hi =
  Database.snapshot db
  |> List.filter_map (fun (item, _) ->
         let k = Item.key item in
         if Item.table item = table && lo <= k && k <= hi then Some k else None)
  |> List.sort Int.compare

(* Property: probing the range and folding the table agree, on tables
   that are empty, have deleted rows, and are narrower or wider than the
   range, including ranges with [lo > hi] and ranges whose width
   overflows. *)
let prop_range_probe_matches_fold =
  let bound = QCheck.Gen.(oneof [ int_range (-5) 45; oneofl [ min_int; max_int; -1; 0 ] ]) in
  QCheck.Test.make ~name:"range probe = fold and sort" ~count:1000
    QCheck.(
      make
        ~print:
          Print.(
            fun (ws, ds, (lo, hi)) ->
              Printf.sprintf "writes %s, deletes %s, [%d, %d]" (list int ws) (list int ds) lo hi)
        Gen.(
          triple
            (list_size (int_bound 60) (int_range (-5) 40))
            (list_size (int_bound 20) (int_range (-5) 40))
            (pair bound bound)))
    (fun (writes, deletes, (lo, hi)) ->
      let db = Database.create ~site:site0 in
      List.iter (fun k -> ignore (Database.write db ~table:"X" ~key:k (Row.initial k))) writes;
      List.iter (fun k -> ignore (Database.delete db ~table:"X" ~key:k)) deletes;
      ignore (Database.write db ~table:"Y" ~key:lo (Row.initial 0));
      Database.keys_in_range db ~table:"X" ~lo ~hi = keys_in_range_reference db ~table:"X" ~lo ~hi)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "database",
        [
          Alcotest.test_case "read/write/before-image" `Quick test_read_write;
          Alcotest.test_case "delete/restore" `Quick test_delete_restore;
          Alcotest.test_case "writer tags" `Quick test_writer_tag;
          Alcotest.test_case "range scan" `Quick test_range;
          q prop_range_probe_matches_fold;
          Alcotest.test_case "totals and size" `Quick test_total_and_size;
        ] );
      ( "undo",
        [
          Alcotest.test_case "rollback" `Quick test_undo_rollback;
          Alcotest.test_case "reverse-order restore" `Quick test_undo_reverse_order;
          Alcotest.test_case "discard" `Quick test_undo_discard;
          q prop_rollback_restores;
        ] );
    ]
