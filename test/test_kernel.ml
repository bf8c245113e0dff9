(* Unit and property tests for hermes.kernel. *)

open Hermes_kernel

let site n = Site.of_int n
let t n = Time.of_int n

(* ------------------------------------------------------------------ *)
(* Site                                                                *)
(* ------------------------------------------------------------------ *)

let test_site_names () =
  Alcotest.(check string) "site 0 is a" "a" (Site.name (site 0));
  Alcotest.(check string) "site 1 is b" "b" (Site.name (site 1));
  Alcotest.(check string) "site 25 is z" "z" (Site.name (site 25));
  Alcotest.(check string) "site 26 overflows" "s26" (Site.name (site 26))

let test_site_of_int_negative () =
  Alcotest.check_raises "negative site" (Invalid_argument "Site.of_int: negative site id") (fun () ->
      ignore (Site.of_int (-1)))

let test_site_order () =
  Alcotest.(check bool) "0 < 1" true (Site.compare (site 0) (site 1) < 0);
  Alcotest.(check bool) "equal" true (Site.equal (site 3) (site 3))

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let test_time_arith () =
  Alcotest.(check int) "add" 15 (Time.to_int (Time.add (t 10) 5));
  Alcotest.(check int) "diff" 7 (Time.diff (t 10) (t 3));
  Alcotest.(check bool) "lt" true Time.(t 1 < t 2);
  Alcotest.(check bool) "le refl" true Time.(t 2 <= t 2);
  Alcotest.(check bool) "gt" false Time.(t 1 > t 2)

let test_time_pp () =
  Alcotest.(check string) "us" "42us" (Time.show (t 42));
  Alcotest.(check string) "ms" "3ms" (Time.show (t 3_000));
  Alcotest.(check string) "s" "2.500s" (Time.show (t 2_500_000))

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let test_interval_intersects () =
  let i a b = Interval.make ~lo:(t a) ~hi:(t b) in
  Alcotest.(check bool) "overlap" true (Interval.intersects (i 0 10) (i 5 15));
  Alcotest.(check bool) "disjoint" false (Interval.intersects (i 0 4) (i 5 15));
  Alcotest.(check bool) "touching endpoints intersect" true (Interval.intersects (i 0 5) (i 5 9));
  Alcotest.(check bool) "containment" true (Interval.intersects (i 0 100) (i 40 60));
  Alcotest.(check bool) "points" true (Interval.intersects (Interval.point (t 5)) (i 5 5))

let test_interval_make_invalid () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Interval.make: hi < lo") (fun () ->
      ignore (Interval.make ~lo:(t 5) ~hi:(t 4)))

let test_interval_extend () =
  let i = Interval.make ~lo:(t 2) ~hi:(t 4) in
  let j = Interval.extend_to i ~hi:(t 9) in
  Alcotest.(check int) "lo unchanged" 2 (Time.to_int (Interval.lo j));
  Alcotest.(check int) "hi moved" 9 (Time.to_int (Interval.hi j))

let test_interval_intersection () =
  let i a b = Interval.make ~lo:(t a) ~hi:(t b) in
  (match Interval.intersection (i 0 10) (i 5 15) with
  | Some x ->
      Alcotest.(check int) "lo" 5 (Time.to_int (Interval.lo x));
      Alcotest.(check int) "hi" 10 (Time.to_int (Interval.hi x))
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "none" true (Interval.intersection (i 0 1) (i 2 3) = None)

let prop_interval_intersects_comm =
  QCheck.Test.make ~name:"interval intersection is commutative" ~count:500
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let i = Interval.make ~lo:(t (min a b)) ~hi:(t (max a b)) in
      let j = Interval.make ~lo:(t (min c d)) ~hi:(t (max c d)) in
      Interval.intersects i j = Interval.intersects j i)

let prop_interval_intersection_consistent =
  QCheck.Test.make ~name:"intersection is Some iff intersects" ~count:500
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let i = Interval.make ~lo:(t (min a b)) ~hi:(t (max a b)) in
      let j = Interval.make ~lo:(t (min c d)) ~hi:(t (max c d)) in
      Interval.intersects i j = Option.is_some (Interval.intersection i j))

(* ------------------------------------------------------------------ *)
(* Txn / Incarnation                                                   *)
(* ------------------------------------------------------------------ *)

let test_txn_pp () =
  Alcotest.(check string) "global" "T7" (Txn.show (Txn.global 7));
  Alcotest.(check string) "local" "L4a" (Txn.show (Txn.local ~site:(site 0) ~n:4))

let test_txn_classify () =
  Alcotest.(check bool) "global" true (Txn.is_global (Txn.global 1));
  Alcotest.(check bool) "local" true (Txn.is_local (Txn.local ~site:(site 1) ~n:2));
  Alcotest.(check bool) "not both" false (Txn.is_local (Txn.global 1))

let test_incarnation_validation () =
  let l = Txn.local ~site:(site 0) ~n:1 in
  Alcotest.check_raises "local resubmission"
    (Invalid_argument "Incarnation.make: local txns are never resubmitted") (fun () ->
      ignore (Txn.Incarnation.make ~txn:l ~site:(site 0) ~inc:1));
  Alcotest.check_raises "foreign site" (Invalid_argument "Incarnation.make: local txn at foreign site")
    (fun () -> ignore (Txn.Incarnation.make ~txn:l ~site:(site 1) ~inc:0))

let test_incarnation_pp () =
  let i = Txn.Incarnation.make ~txn:(Txn.global 1) ~site:(site 0) ~inc:2 in
  Alcotest.(check string) "incarnation" "Ta12" (Txn.Incarnation.show i)

(* ------------------------------------------------------------------ *)
(* Sn                                                                  *)
(* ------------------------------------------------------------------ *)

let test_sn_order () =
  let sn ts s seq = Sn.make ~ts:(t ts) ~site:(site s) ~seq in
  Alcotest.(check bool) "ts dominates" true Sn.(sn 1 5 9 < sn 2 0 0);
  Alcotest.(check bool) "site breaks ties" true Sn.(sn 1 0 9 < sn 1 1 0);
  Alcotest.(check bool) "seq breaks ties" true Sn.(sn 1 0 0 < sn 1 0 1);
  Alcotest.(check bool) "equal" true (Sn.equal (sn 1 0 0) (sn 1 0 0))

let prop_sn_total_order =
  QCheck.Test.make ~name:"sn compare is antisymmetric" ~count:500
    QCheck.(pair (triple small_nat small_nat small_nat) (triple small_nat small_nat small_nat))
    (fun ((a, b, c), (d, e, f)) ->
      let x = Sn.make ~ts:(t a) ~site:(site b) ~seq:c in
      let y = Sn.make ~ts:(t d) ~site:(site e) ~seq:f in
      Sn.compare x y = -Sn.compare y x)

(* ------------------------------------------------------------------ *)
(* Item / Command                                                      *)
(* ------------------------------------------------------------------ *)

let test_item_pp () =
  Alcotest.(check string) "key0" "Xa" (Item.show (Item.make ~site:(site 0) ~table:"X" ~key:0));
  Alcotest.(check string) "keyed" "X3b" (Item.show (Item.make ~site:(site 1) ~table:"X" ~key:3))

let test_command_read_only () =
  Alcotest.(check bool) "select" true (Command.is_read_only (Select { table = "X"; keys = [ 1 ] }));
  Alcotest.(check bool) "range" true (Command.is_read_only (Select_range { table = "X"; lo = 0; hi = 9 }));
  Alcotest.(check bool) "update" false (Command.is_read_only (Update { table = "X"; key = 1; delta = 2 }));
  Alcotest.(check bool) "delete" false (Command.is_read_only (Delete { table = "X"; key = 1 }))

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_perfect () =
  Alcotest.(check int) "identity" 1234 (Time.to_int (Clock.read Clock.perfect ~real:(t 1234)))

let test_clock_offset () =
  let c = Clock.make ~offset:500 () in
  Alcotest.(check int) "offset" 1500 (Time.to_int (Clock.read c ~real:(t 1000)));
  let c = Clock.make ~offset:(-2000) () in
  Alcotest.(check int) "clamped at zero" 0 (Time.to_int (Clock.read c ~real:(t 1000)))

let test_clock_skew () =
  let c = Clock.make ~skew_ppm:1000 () in
  (* +1000 ppm = +1ms per second *)
  Alcotest.(check int) "skew at 1s" 1_001_000 (Time.to_int (Clock.read c ~real:(t 1_000_000)))

let prop_clock_monotone =
  QCheck.Test.make ~name:"clock is monotone for moderate skew" ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_range (-1000) 1000))
    (fun (a, b, skew_ppm) ->
      let c = Clock.make ~skew_ppm () in
      let lo = min a b and hi = max a b in
      Time.(Clock.read c ~real:(t lo) <= Clock.read c ~real:(t hi)))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 20 (fun _ -> Rng.int a ~bound:1000) in
  let ys = List.init 20 (fun _ -> Rng.int b ~bound:1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create ~seed:42 in
  let c1 = Rng.split a ~label:"x" in
  let c2 = Rng.split a ~label:"y" in
  let xs = List.init 10 (fun _ -> Rng.int c1 ~bound:1_000_000) in
  let ys = List.init 10 (fun _ -> Rng.int c2 ~bound:1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"int_in stays in bounds" ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, a, b) ->
      let rng = Rng.create ~seed in
      let lo = min a b and hi = max a b in
      let x = Rng.int_in rng ~lo ~hi in
      lo <= x && x <= hi)

let prop_rng_exponential_positive =
  QCheck.Test.make ~name:"exponential is at least 1" ~count:500
    QCheck.(pair small_nat (int_range 1 100_000))
    (fun (seed, mean) ->
      let rng = Rng.create ~seed in
      Rng.exponential rng ~mean >= 1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:7 in
  let input = Array.init 50 Fun.id in
  let out = Rng.shuffle rng input in
  Alcotest.(check (list int)) "same multiset" (Array.to_list input)
    (List.sort Int.compare (Array.to_list out));
  Alcotest.(check (list int)) "input untouched" (List.init 50 Fun.id) (Array.to_list input)

(* ------------------------------------------------------------------ *)
(* Comparators                                                         *)
(* ------------------------------------------------------------------ *)

(* Random kernel values from small ranges, so that equal values and
   every tie-break are common. *)
let gen_time = QCheck.Gen.(map Time.of_int (int_bound 3))
let gen_site = QCheck.Gen.(map Site.of_int (int_bound 2))

let gen_sn =
  QCheck.Gen.(
    map3 (fun ts site seq -> Sn.make ~ts ~site ~seq) gen_time gen_site (int_bound 2))

let gen_interval =
  QCheck.Gen.(
    map2
      (fun lo len -> Interval.make ~lo ~hi:(Time.add lo len))
      gen_time (int_bound 2))

let gen_item =
  QCheck.Gen.(
    map3
      (fun site table key -> Item.make ~site ~table ~key)
      gen_site (oneofl [ ""; "X"; "XY"; "Y" ]) (int_bound 2))

let gen_txn =
  QCheck.Gen.(
    oneof
      [
        map Txn.global (int_bound 3);
        map2 (fun site n -> Txn.local ~site ~n) gen_site (int_bound 2);
      ])

let gen_incarnation =
  QCheck.Gen.(
    gen_txn >>= fun txn ->
    match txn with
    | Txn.Local { site; _ } -> return (Txn.Incarnation.make ~txn ~site ~inc:0)
    | Txn.Global _ ->
        map2 (fun site inc -> Txn.Incarnation.make ~txn ~site ~inc) gen_site (int_bound 2))

let sign c = if c < 0 then -1 else if c > 0 then 1 else 0

(* A hand-written comparator orders like [Stdlib.compare] (so every
   [Map]/[Set] iterates, and every history comes out, as before), and its
   [equal] agrees with that order. *)
let prop_agrees_with_stdlib name gen ~compare ~equal =
  QCheck.Test.make ~name:(name ^ " orders as Stdlib") ~count:1000
    (QCheck.make QCheck.Gen.(pair gen gen))
    (fun (x, y) ->
      sign (compare x y) = sign (Stdlib.compare x y) && equal x y = (Stdlib.compare x y = 0))

let comparator_props =
  [
    prop_agrees_with_stdlib "Time" gen_time ~compare:Time.compare ~equal:Time.equal;
    prop_agrees_with_stdlib "Site" gen_site ~compare:Site.compare ~equal:Site.equal;
    prop_agrees_with_stdlib "Sn" gen_sn ~compare:Sn.compare ~equal:Sn.equal;
    prop_agrees_with_stdlib "Interval" gen_interval ~compare:Interval.compare ~equal:Interval.equal;
    prop_agrees_with_stdlib "Item" gen_item ~compare:Item.compare ~equal:Item.equal;
    prop_agrees_with_stdlib "Txn" gen_txn ~compare:Txn.compare ~equal:Txn.equal;
    prop_agrees_with_stdlib "Incarnation" gen_incarnation ~compare:Txn.Incarnation.compare
      ~equal:Txn.Incarnation.equal;
  ]

(* Minor-heap words allocated by 1 000 calls of [f]. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor_words () -. before

let test_comparators_do_not_allocate () =
  (* The engine's heap merges and the certifier's table operations call
     these on every event. Each pair is equal but not physically equal,
     so every field is compared; [Sys.opaque_identity] keeps the integer
     comparisons from being folded away. *)
  let opaque = Sys.opaque_identity in
  let iv = Interval.make ~lo:(t 1) ~hi:(t 5) and iv' = Interval.make ~lo:(t 1) ~hi:(t 5) in
  let sn = Sn.make ~ts:(t 7) ~site:(site 1) ~seq:2 and sn' = Sn.make ~ts:(t 7) ~site:(site 1) ~seq:2 in
  let item = Item.make ~site:(site 1) ~table:"X" ~key:3 in
  let item' = Item.make ~site:(site 1) ~table:(String.concat "" [ "X" ]) ~key:3 in
  let local = Txn.local ~site:(site 1) ~n:4 and local' = Txn.local ~site:(site 1) ~n:4 in
  let inc = Txn.Incarnation.make ~txn:(Txn.global 9) ~site:(site 1) ~inc:2 in
  let inc' = Txn.Incarnation.make ~txn:(Txn.global 9) ~site:(site 1) ~inc:2 in
  let cases =
    [
      ("Time.compare", fun () -> Time.compare (opaque (t 3)) (t 3));
      ("Time.equal", fun () -> Bool.to_int (Time.equal (opaque (t 3)) (t 3)));
      ("Site.compare", fun () -> Site.compare (opaque (site 1)) (site 1));
      ("Site.equal", fun () -> Bool.to_int (Site.equal (opaque (site 1)) (site 1)));
      ("Sn.compare", fun () -> Sn.compare sn sn');
      ("Sn.equal", fun () -> Bool.to_int (Sn.equal sn sn'));
      ("Interval.compare", fun () -> Interval.compare iv iv');
      ("Interval.equal", fun () -> Bool.to_int (Interval.equal iv iv'));
      ("Item.compare", fun () -> Item.compare item item');
      ("Item.equal", fun () -> Bool.to_int (Item.equal item item'));
      ("Txn.compare", fun () -> Txn.compare local local');
      ("Txn.equal", fun () -> Bool.to_int (Txn.equal local local'));
      ("Incarnation.compare", fun () -> Txn.Incarnation.compare inc inc');
      ("Incarnation.equal", fun () -> Bool.to_int (Txn.Incarnation.equal inc inc'));
    ]
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0. (minor_words_of f))
    cases

(* Shard x of k allocates the gids x + 1 + k * c. The 128 gids of every
   shard must spread over a 128-bucket table (the hash masked to its low
   7 bits, as [Hashtbl.Make] does) with at most 8 in any bucket; with the
   hash [gid * 3] a shard of 64 put all 128 into 2 buckets. *)
let test_hash_address_spreads_strided_gids () =
  List.iter
    (fun k ->
      for x = 0 to k - 1 do
        let buckets = Array.make 128 0 in
        for c = 0 to 127 do
          let b = Wire.hash_address (Wire.Coordinator (x + 1 + (k * c))) land 127 in
          buckets.(b) <- buckets.(b) + 1
        done;
        let worst = Array.fold_left max 0 buckets in
        if worst > 8 then Alcotest.failf "k = %d, shard %d: %d gids in one bucket" k x worst
      done)
    [ 1; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* Int_tbl                                                             *)
(* ------------------------------------------------------------------ *)

type int_tbl_op =
  | Add of int * int
  | Replace of int * int
  | Remove of int
  | Find_opt of int
  | Find_all of int
  | Mem of int
  | Length
  | Reset

(* Keys from a small pool, so that operations meet the same keys, with
   the extremes and negatives always in it. *)
let gen_int_tbl_key =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ];
        int_range (-20) 20;
        map (fun c -> 1 + (64 * c)) (int_bound 20);
      ])

let gen_int_tbl_op =
  QCheck.Gen.(
    let k = gen_int_tbl_key and v = int_bound 1000 in
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) k v);
        (4, map2 (fun k v -> Replace (k, v)) k v);
        (3, map (fun k -> Remove k) k);
        (3, map (fun k -> Find_opt k) k);
        (2, map (fun k -> Find_all k) k);
        (2, map (fun k -> Mem k) k);
        (1, return Length);
        (1, return Reset);
      ])

let pp_int_tbl_op ppf = function
  | Add (k, v) -> Fmt.pf ppf "add %d %d" k v
  | Replace (k, v) -> Fmt.pf ppf "replace %d %d" k v
  | Remove k -> Fmt.pf ppf "remove %d" k
  | Find_opt k -> Fmt.pf ppf "find_opt %d" k
  | Find_all k -> Fmt.pf ppf "find_all %d" k
  | Mem k -> Fmt.pf ppf "mem %d" k
  | Length -> Fmt.string ppf "length"
  | Reset -> Fmt.string ppf "reset"

(* Every answer, on the same operation sequence, equals the polymorphic
   table's: bindings stack and unstack per key the same way. *)
let prop_int_tbl_agrees_with_hashtbl =
  QCheck.Test.make ~name:"Int_tbl answers as Stdlib.Hashtbl" ~count:1000
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list ~sep:semi pp_int_tbl_op))
       QCheck.Gen.(list_size (int_range 1 200) gen_int_tbl_op))
    (fun ops ->
      let t = Int_tbl.create 4 and r = Hashtbl.create 4 in
      List.for_all
        (function
          | Add (k, v) ->
              Int_tbl.add t k v;
              Hashtbl.add r k v;
              true
          | Replace (k, v) ->
              Int_tbl.replace t k v;
              Hashtbl.replace r k v;
              true
          | Remove k ->
              Int_tbl.remove t k;
              Hashtbl.remove r k;
              true
          | Find_opt k -> Int_tbl.find_opt t k = Hashtbl.find_opt r k
          | Find_all k -> Int_tbl.find_all t k = Hashtbl.find_all r k
          | Mem k -> Int_tbl.mem t k = Hashtbl.mem r k
          | Length -> Int_tbl.length t = Hashtbl.length r
          | Reset ->
              Int_tbl.reset t;
              Hashtbl.reset r;
              true)
        ops)

(* A shard's gids are x + 1 + k * c. Masked to a table's low bits, an
   identity hash stacks them up to 79 deep at k = 64 and 157 at k = 128;
   the mixing hash keeps every bucket short. *)
let test_int_tbl_spreads_strided_gids () =
  List.iter
    (fun k ->
      List.iter
        (fun x ->
          let t = Int_tbl.create 16 in
          for c = 0 to 9_999 do
            Int_tbl.replace t (x + 1 + (k * c)) ()
          done;
          let worst = (Int_tbl.stats t).Hashtbl.max_bucket_length in
          if worst > 10 then Alcotest.failf "k = %d, shard %d: %d gids in one bucket" k x worst)
        [ 0; k / 2; k - 1 ])
    [ 1; 16; 64; 128 ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kernel"
    [
      ( "site",
        [
          Alcotest.test_case "names" `Quick test_site_names;
          Alcotest.test_case "negative rejected" `Quick test_site_of_int_negative;
          Alcotest.test_case "order" `Quick test_site_order;
        ] );
      ( "time",
        [
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "interval",
        [
          Alcotest.test_case "intersects" `Quick test_interval_intersects;
          Alcotest.test_case "invalid make" `Quick test_interval_make_invalid;
          Alcotest.test_case "extend_to" `Quick test_interval_extend;
          Alcotest.test_case "intersection" `Quick test_interval_intersection;
          q prop_interval_intersects_comm;
          q prop_interval_intersection_consistent;
        ] );
      ( "txn",
        [
          Alcotest.test_case "pp" `Quick test_txn_pp;
          Alcotest.test_case "classify" `Quick test_txn_classify;
          Alcotest.test_case "incarnation validation" `Quick test_incarnation_validation;
          Alcotest.test_case "incarnation pp" `Quick test_incarnation_pp;
        ] );
      ( "sn",
        [ Alcotest.test_case "lexicographic order" `Quick test_sn_order; q prop_sn_total_order ] );
      ( "item-command",
        [
          Alcotest.test_case "item pp" `Quick test_item_pp;
          Alcotest.test_case "command read-only" `Quick test_command_read_only;
        ] );
      ( "comparators",
        Alcotest.test_case "no allocation" `Quick test_comparators_do_not_allocate
        :: List.map q comparator_props );
      ( "clock",
        [
          Alcotest.test_case "perfect" `Quick test_clock_perfect;
          Alcotest.test_case "offset" `Quick test_clock_offset;
          Alcotest.test_case "skew" `Quick test_clock_skew;
          q prop_clock_monotone;
        ] );
      ( "wire",
        [ Alcotest.test_case "strided gids spread over buckets" `Quick test_hash_address_spreads_strided_gids ]
      );
      ( "int-tbl",
        [
          q prop_int_tbl_agrees_with_hashtbl;
          Alcotest.test_case "strided gids spread over buckets" `Quick test_int_tbl_spreads_strided_gids;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          q prop_rng_int_in_bounds;
          q prop_rng_exponential_positive;
        ] );
    ]
