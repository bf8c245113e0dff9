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

(* Shard x of k allocates the gids x + 1 + k * c. Packed, the 10 000
   coordinator addresses of a shard, and the acceptor addresses of its
   gids, must spread over an [Int_tbl]'s buckets as the gids themselves
   do: no bucket holds more than 10. *)
let test_address_keys_spread_strided_gids () =
  let addresses =
    [
      ("coordinator", fun gid -> Wire.Coordinator gid);
      ("acceptor 0", fun gid -> Wire.Acceptor { gid; idx = 0 });
      ("acceptor 2", fun gid -> Wire.Acceptor { gid; idx = 2 });
    ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun x ->
          List.iter
            (fun (what, address) ->
              let t = Int_tbl.create 16 in
              for c = 0 to 9_999 do
                Int_tbl.replace t (Wire.address_key (address (x + 1 + (k * c)))) ()
              done;
              let worst = Int_tbl.max_bucket_length t in
              if worst > 10 then Alcotest.failf "%s, k = %d, shard %d: %d in one bucket" what k x worst)
            addresses)
        [ 0; k / 2; k - 1 ])
    [ 1; 16; 64; 128 ]

(* Addresses in range, including the largest each field allows. *)
let gen_address =
  let max_gid = (1 lsl 29) - 1 and max_acceptor_gid = (1 lsl 25) - 1 in
  let field bound = QCheck.Gen.(oneof [ int_bound 40; int_range (bound - 40) bound ]) in
  QCheck.Gen.(
    oneof
      [
        map (fun gid -> Wire.Coordinator gid) (field max_gid);
        map (fun s -> Wire.Agent (Site.of_int s)) (field max_gid);
        map2
          (fun gid idx -> Wire.Acceptor { gid; idx })
          (field max_acceptor_gid)
          (int_bound (Wire.max_acceptors - 1));
      ])

let print_address = Fmt.str "%a" Wire.pp_address

(* Distinct addresses get distinct keys, and distinct links distinct
   link keys: a shared key would merge two handlers or two links' FIFO
   clamps. *)
let prop_address_keys_injective =
  QCheck.Test.make ~name:"address and link keys are injective" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(quad print_address print_address print_address print_address)
       QCheck.Gen.(quad gen_address gen_address gen_address gen_address))
    (fun (a, b, c, d) ->
      let key = Wire.address_key in
      let link s d = Wire.link_key ~src:(key s) ~dst:(key d) in
      let same_links = Wire.equal_address a c && Wire.equal_address b d in
      Bool.equal (Wire.equal_address a b) (key a = key b)
      && key a >= 0
      && key a < 1 lsl 31
      && Bool.equal same_links (link a b = link c d)
      && link a b >= 0)

let test_address_key_range () =
  let refused a =
    match Wire.address_key a with
    | _ -> Alcotest.failf "%a: key given" Wire.pp_address a
    | exception Invalid_argument _ -> ()
  in
  List.iter refused
    [
      Wire.Coordinator (-1);
      Wire.Coordinator (1 lsl 29);
      Wire.Coordinator max_int;
      Wire.Agent (Site.of_int (1 lsl 29));
      Wire.Acceptor { gid = 1 lsl 25; idx = 0 };
      Wire.Acceptor { gid = -1; idx = 0 };
      Wire.Acceptor { gid = 1; idx = Wire.max_acceptors };
      Wire.Acceptor { gid = 1; idx = -1 };
    ]

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

(* Against the functor instance Int_tbl used to be. Beyond the answers,
   the layout: both tables start from the same size, grow past the same
   loads and keep each bucket in the same order, so every traversal
   visits the bindings in the same order. Runs of strided keys force
   resizes; [Add_in_fold] adds keys from inside a traversal, where a
   resize must copy the buckets the traversal is walking. *)
module R = Int_tbl_reference

type layout_op =
  | L_add of int * int
  | L_replace of int * int
  | L_remove of int
  | L_find of int
  | L_find_all of int
  | L_mem of int
  | L_run of int * int * int  (* [n] keys from [first], [stride] apart, each added *)
  | L_fold
  | L_iter
  | L_filter of int  (* keep the bindings whose key + data is not a multiple of it, data + 1 *)
  | L_add_in_fold of int  (* add this many keys at the first binding visited *)
  | L_reset

let gen_layout_op =
  QCheck.Gen.(
    let k = gen_int_tbl_key and v = int_bound 1000 in
    frequency
      [
        (4, map2 (fun k v -> L_add (k, v)) k v);
        (4, map2 (fun k v -> L_replace (k, v)) k v);
        (3, map (fun k -> L_remove k) k);
        (2, map (fun k -> L_find k) k);
        (2, map (fun k -> L_find_all k) k);
        (1, map (fun k -> L_mem k) k);
        (2, map3 (fun n first stride -> L_run (n, first, stride)) (int_range 1 80) (int_bound 1000) (oneofl [ 1; 2; 64; 128; 1 lsl 20 ]));
        (2, return L_fold);
        (1, return L_iter);
        (1, map (fun m -> L_filter m) (int_range 2 5));
        (1, map (fun n -> L_add_in_fold n) (int_range 1 70));
        (1, return L_reset);
      ])

let pp_layout_op ppf = function
  | L_add (k, v) -> Fmt.pf ppf "add %d %d" k v
  | L_replace (k, v) -> Fmt.pf ppf "replace %d %d" k v
  | L_remove k -> Fmt.pf ppf "remove %d" k
  | L_find k -> Fmt.pf ppf "find %d" k
  | L_find_all k -> Fmt.pf ppf "find_all %d" k
  | L_mem k -> Fmt.pf ppf "mem %d" k
  | L_run (n, first, stride) -> Fmt.pf ppf "run %d from %d by %d" n first stride
  | L_fold -> Fmt.string ppf "fold"
  | L_iter -> Fmt.string ppf "iter"
  | L_filter m -> Fmt.pf ppf "filter %d" m
  | L_add_in_fold n -> Fmt.pf ppf "add %d in fold" n
  | L_reset -> Fmt.string ppf "reset"

let prop_int_tbl_layout =
  QCheck.Test.make ~name:"Int_tbl lays out and traverses as its functor instance" ~count:1000
    (QCheck.make
       ~print:(fun (n, ops) -> Fmt.str "create %d; %a" n Fmt.(list ~sep:semi pp_layout_op) ops)
       QCheck.Gen.(pair (int_range 1 40) (list_size (int_range 1 300) gen_layout_op)))
    (fun (n, ops) ->
      let t = Int_tbl.create n and r = R.create n in
      let find f tbl k = match f tbl k with v -> Some v | exception Not_found -> None in
      let visits fold tbl = List.rev (fold (fun k v acc -> (k, v) :: acc) tbl []) in
      let iter_visits iter tbl =
        let l = ref [] in
        iter (fun k v -> l := (k, v) :: !l) tbl;
        List.rev !l
      in
      let adding_fold fold add tbl m =
        let added = ref false in
        List.rev
          (fold
             (fun k v acc ->
               if not !added then begin
                 added := true;
                 for i = 1 to m do
                   add tbl (k + (i * 17)) i
                 done
               end;
               (k, v) :: acc)
             tbl [])
      in
      let filter m k v = if (k + v) mod m = 0 then None else Some (v + 1) in
      List.for_all
        (fun op ->
          (match op with
          | L_add (k, v) ->
              Int_tbl.add t k v;
              R.add r k v;
              true
          | L_replace (k, v) ->
              Int_tbl.replace t k v;
              R.replace r k v;
              true
          | L_remove k ->
              Int_tbl.remove t k;
              R.remove r k;
              true
          | L_find k -> find Int_tbl.find t k = find R.find r k && Int_tbl.find_opt t k = R.find_opt r k
          | L_find_all k -> Int_tbl.find_all t k = R.find_all r k
          | L_mem k -> Int_tbl.mem t k = R.mem r k
          | L_run (n, first, stride) ->
              for i = 0 to n - 1 do
                Int_tbl.add t (first + (i * stride)) i;
                R.add r (first + (i * stride)) i
              done;
              true
          | L_fold -> visits Int_tbl.fold t = visits R.fold r
          | L_iter -> iter_visits Int_tbl.iter t = iter_visits R.iter r
          | L_filter m ->
              Int_tbl.filter_map_inplace (filter m) t;
              R.filter_map_inplace (filter m) r;
              true
          | L_add_in_fold m -> adding_fold Int_tbl.fold Int_tbl.add t m = adding_fold R.fold R.add r m
          | L_reset ->
              Int_tbl.reset t;
              R.reset r;
              true)
          && Int_tbl.length t = R.length r
          && Int_tbl.max_bucket_length t = (R.stats r).Hashtbl.max_bucket_length)
        ops
      && visits Int_tbl.fold t = visits R.fold r)

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
          let worst = Int_tbl.max_bucket_length t in
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
        [
          Alcotest.test_case "strided gids spread over buckets" `Quick test_address_keys_spread_strided_gids;
          q prop_address_keys_injective;
          Alcotest.test_case "out-of-range addresses refused" `Quick test_address_key_range;
        ] );
      ( "int-tbl",
        [
          q prop_int_tbl_agrees_with_hashtbl;
          Alcotest.test_case "strided gids spread over buckets" `Quick test_int_tbl_spreads_strided_gids;
          q prop_int_tbl_layout;
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
