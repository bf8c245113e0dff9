(* Tests for hermes.sim: the discrete-event engine (ordering,
   determinism, timers, cancellation, the event budget, the key bounds),
   checked against the engine as it was over a persistent leftist heap
   and as it was over a binary heap of three int arrays. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine

(* The purely functional leftist min-heap the engine's queue used to be,
   kept verbatim as the reference engine's queue. *)
module Pqueue = struct
  module type ORDERED = sig
    type t

    val compare : t -> t -> int
  end

  module type S = sig
    type elt
    type t

    val empty : t
    val is_empty : t -> bool
    val insert : t -> elt -> t
    val min : t -> elt option
    val pop : t -> (elt * t) option
    val size : t -> int
    val of_list : elt list -> t
    val to_sorted_list : t -> elt list
  end

  module Make (E : ORDERED) : S with type elt = E.t = struct
    type elt = E.t

    (* No cached size: every insert and pop allocates a node per level of
       the merge path, and a field less per node is a word less each. *)
    type t =
      | Leaf
      | Node of { rank : int; v : elt; l : t; r : t }

    let empty = Leaf
    let is_empty = function Leaf -> true | Node _ -> false
    let rank = function Leaf -> 0 | Node { rank; _ } -> rank
    let rec size = function Leaf -> 0 | Node { l; r; _ } -> 1 + size l + size r

    let node v l r =
      if rank l >= rank r then Node { rank = rank r + 1; v; l; r }
      else Node { rank = rank l + 1; v; l = r; r = l }

    let rec merge a b =
      match (a, b) with
      | Leaf, t | t, Leaf -> t
      | Node na, Node nb ->
          if E.compare na.v nb.v <= 0 then node na.v na.l (merge na.r b)
          else node nb.v nb.l (merge a nb.r)

    let insert t v = merge t (Node { rank = 1; v; l = Leaf; r = Leaf })
    let min = function Leaf -> None | Node { v; _ } -> Some v
    let pop = function Leaf -> None | Node { v; l; r; _ } -> Some (v, merge l r)
    let of_list l = List.fold_left insert empty l

    let to_sorted_list t =
      let rec go acc t = match pop t with None -> List.rev acc | Some (v, t') -> go (v :: acc) t' in
      go [] t
  end
end

module Q = Pqueue.Make (struct
  type t = int

  let compare = Int.compare
end)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_pq_basic () =
  let q = Q.of_list [ 5; 1; 4; 1; 3 ] in
  Alcotest.(check int) "size" 5 (Q.size q);
  Alcotest.(check (option int)) "min" (Some 1) (Q.min q);
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] (Q.to_sorted_list q)

let test_pq_empty () =
  Alcotest.(check bool) "empty" true (Q.is_empty Q.empty);
  Alcotest.(check (option int)) "min of empty" None (Q.min Q.empty);
  Alcotest.(check bool) "pop of empty" true (Q.pop Q.empty = None)

let prop_pq_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:300
    QCheck.(list int)
    (fun xs -> Q.to_sorted_list (Q.of_list xs) = List.sort Int.compare xs)

let prop_pq_size =
  QCheck.Test.make ~name:"pqueue size tracks inserts" ~count:300
    QCheck.(list int)
    (fun xs -> Q.size (Q.of_list xs) = List.length xs)

let prop_pq_persistent =
  QCheck.Test.make ~name:"pqueue is persistent (pop does not mutate)" ~count:100
    QCheck.(list int)
    (fun xs ->
      QCheck.assume (xs <> []);
      let q = Q.of_list xs in
      let _ = Q.pop q in
      Q.size q = List.length xs)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

(* The engine as it was over the leftist heap, kept verbatim (its stats
   in {!Engine.stats}) as the reference for the int-keyed heap. *)
module Engine_reference = struct
  type event = { at : Time.t; seq : int; run : unit -> unit; mutable cancelled : bool }
  type timer = event

  module Eq = Pqueue.Make (struct
    type t = event

    let compare a b =
      match Time.compare a.at b.at with 0 -> Int.compare a.seq b.seq | c -> c
  end)

  type t = {
    mutable now : Time.t;
    mutable queue : Eq.t;
    mutable seq : int;
    mutable executed : int;
    mutable halted : bool;
    mutable last_fired : Time.t;
    mutable live : int;
    mutable max_pending : int;
    mutable cancelled_fired : int;
  }

  exception Stuck of string

  let create () =
    {
      now = Time.zero;
      queue = Eq.empty;
      seq = 0;
      executed = 0;
      halted = false;
      last_fired = Time.zero;
      live = 0;
      max_pending = 0;
      cancelled_fired = 0;
    }

  let now t = t.now
  let last_event_at t = t.last_fired

  let schedule t ~delay run =
    if delay < 0 then invalid_arg "Engine.schedule: negative delay";
    let ev = { at = Time.add t.now delay; seq = t.seq; run; cancelled = false } in
    t.queue <- Eq.insert t.queue ev;
    t.seq <- t.seq + 1;
    t.live <- t.live + 1;
    if t.live > t.max_pending then t.max_pending <- t.live;
    ev

  let cancel timer = timer.cancelled <- true
  let fire_at timer = timer.at
  let halt t = t.halted <- true

  let step t =
    match Eq.pop t.queue with
    | None -> false
    | Some (ev, rest) ->
        t.queue <- rest;
        t.live <- t.live - 1;
        if Time.(ev.at < t.now) then invalid_arg "Engine.step: time went backwards";
        t.now <- ev.at;
        if ev.cancelled then t.cancelled_fired <- t.cancelled_fired + 1
        else begin
          t.executed <- t.executed + 1;
          t.last_fired <- ev.at;
          ev.run ()
        end;
        true

  let next_at t = Option.map (fun ev -> ev.at) (Eq.min t.queue)

  let stats t =
    {
      Engine.events = t.executed;
      max_pending = t.max_pending;
      cancelled = t.cancelled_fired;
      live = t.live;
    }

  let run ?until ?(max_events = 50_000_000) t =
    let continue () =
      (not t.halted)
      && t.executed < max_events
      &&
      match until with
      | None -> true
      | Some limit -> ( match Eq.min t.queue with Some ev -> Time.(ev.at <= limit) | None -> true)
    in
    while continue () && step t do
      ()
    done;
    if t.executed >= max_events then raise (Stuck "Engine.run: event budget exhausted (livelock?)");
    match until with Some limit when not t.halted -> t.now <- Time.max t.now limit | _ -> ()
end

(* The engine as it was over a binary heap of three int arrays (time,
   sequence number, slot), read two at a time per comparison: the
   reference for the heap of packed keys. Kept verbatim, plus
   [first_seq]. *)
module Engine_three_arrays = struct
  type event = { at : Time.t; run : unit -> unit; mutable cancelled : bool }
  type timer = event

  let vacant = { at = Time.zero; run = ignore; cancelled = true }

  type t = {
    mutable now : Time.t;
    mutable times : int array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable size : int;
    mutable table : event array;
    mutable free : int array;
    mutable next_seq : int;
    mutable executed : int;
    mutable halted : bool;
    mutable last_fired : Time.t;
    mutable max_pending : int;
    mutable cancelled_fired : int;
  }

  exception Stuck of string

  let initial_capacity = 16

  let create ?(first_seq = 0) () =
    let n = initial_capacity in
    {
      now = Time.zero;
      times = Array.make n 0;
      seqs = Array.make n 0;
      slots = Array.make n 0;
      size = 0;
      table = Array.make n vacant;
      free = Array.init n (fun i -> n - 1 - i);
      next_seq = first_seq;
      executed = 0;
      halted = false;
      last_fired = Time.zero;
      max_pending = 0;
      cancelled_fired = 0;
    }

  let now t = t.now
  let last_event_at t = t.last_fired

  let grow t =
    let n = Array.length t.times in
    let extend a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.times <- extend t.times 0;
    t.seqs <- extend t.seqs 0;
    t.slots <- extend t.slots 0;
    t.table <- extend t.table vacant;
    t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i)

  let before t i ~at ~seq = t.times.(i) < at || (t.times.(i) = at && t.seqs.(i) < seq)

  let put t i ~at ~seq ~slot =
    t.times.(i) <- at;
    t.seqs.(i) <- seq;
    t.slots.(i) <- slot

  let move t ~src ~dst = put t dst ~at:t.times.(src) ~seq:t.seqs.(src) ~slot:t.slots.(src)

  let rec sift_up t i ~at ~seq ~slot =
    let parent = (i - 1) / 2 in
    if i > 0 && not (before t parent ~at ~seq) then begin
      move t ~src:parent ~dst:i;
      sift_up t parent ~at ~seq ~slot
    end
    else put t i ~at ~seq ~slot

  let rec sift_down t i ~at ~seq ~slot =
    let l = (2 * i) + 1 in
    let c = if l + 1 < t.size && before t (l + 1) ~at:t.times.(l) ~seq:t.seqs.(l) then l + 1 else l in
    if c < t.size && before t c ~at ~seq then begin
      move t ~src:c ~dst:i;
      sift_down t c ~at ~seq ~slot
    end
    else put t i ~at ~seq ~slot

  let schedule t ~delay run =
    if delay < 0 then invalid_arg "Engine.schedule: negative delay";
    let ev = { at = Time.add t.now delay; run; cancelled = false } in
    if t.size = Array.length t.times then grow t;
    let slot = t.free.(Array.length t.free - t.size - 1) in
    t.table.(slot) <- ev;
    sift_up t t.size ~at:(ev.at :> int) ~seq:t.next_seq ~slot;
    t.next_seq <- t.next_seq + 1;
    t.size <- t.size + 1;
    if t.size > t.max_pending then t.max_pending <- t.size;
    ev

  let cancel timer = timer.cancelled <- true
  let fire_at timer = timer.at
  let halt t = t.halted <- true

  let pop t =
    let slot = t.slots.(0) in
    let ev = t.table.(slot) in
    t.table.(slot) <- vacant;
    t.size <- t.size - 1;
    t.free.(Array.length t.free - t.size - 1) <- slot;
    let last = t.size in
    if last > 0 then sift_down t 0 ~at:t.times.(last) ~seq:t.seqs.(last) ~slot:t.slots.(last);
    ev

  let step t =
    if t.size = 0 then false
    else begin
      let ev = pop t in
      if Time.(ev.at < t.now) then invalid_arg "Engine.step: time went backwards";
      t.now <- ev.at;
      if ev.cancelled then t.cancelled_fired <- t.cancelled_fired + 1
      else begin
        t.executed <- t.executed + 1;
        t.last_fired <- ev.at;
        ev.run ()
      end;
      true
    end

  let next_at t = if t.size = 0 then None else Some (Time.of_int t.times.(0))

  let stats t =
    { Engine.events = t.executed; max_pending = t.max_pending; cancelled = t.cancelled_fired; live = t.size }

  let run ?until ?(max_events = 50_000_000) t =
    let due () =
      t.size > 0 && match until with None -> true | Some limit -> t.times.(0) <= (limit : Time.t :> int)
    in
    while (not t.halted) && t.executed < max_events && due () do
      ignore (step t)
    done;
    if (not t.halted) && due () then raise (Stuck "Engine.run: event budget exhausted (livelock?)");
    match until with Some limit when not t.halted -> t.now <- Time.max t.now limit | _ -> ()
end

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_unit e ~delay:30 (fun () -> log := 30 :: !log);
  Engine.schedule_unit e ~delay:10 (fun () -> log := 10 :: !log);
  Engine.schedule_unit e ~delay:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Time.to_int (Engine.now e))

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule_unit e ~delay:5 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order breaks ties" (List.init 10 Fun.id) (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_unit e ~delay:10 (fun () ->
      log := "a" :: !log;
      Engine.schedule_unit e ~delay:5 (fun () -> log := "c" :: !log);
      Engine.schedule_unit e ~delay:0 (fun () -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "final time" 15 (Time.to_int (Engine.now e))

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Engine.schedule_unit e ~delay:5 (fun () -> Engine.cancel t);
  Engine.run e;
  Alcotest.(check bool) "cancelled timer does not fire" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule_unit e ~delay:10 tick
  in
  Engine.schedule_unit e ~delay:10 tick;
  Engine.run ~until:(Time.of_int 100) e;
  Alcotest.(check int) "ten ticks" 10 !count;
  Alcotest.(check int) "clock advanced to limit" 100 (Time.to_int (Engine.now e))

let test_engine_halt () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule_unit e ~delay:10 (fun () ->
        incr count;
        if !count = 3 then Engine.halt e)
  done;
  Engine.run e;
  Alcotest.(check int) "halted after third" 3 !count

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule_unit e ~delay:(-1) (fun () -> ()))

let test_engine_livelock_guard () =
  let e = Engine.create () in
  let rec spin () = Engine.schedule_unit e ~delay:0 spin in
  Engine.schedule_unit e ~delay:0 spin;
  Alcotest.(check bool) "raises Stuck" true
    (try
       Engine.run ~max_events:1000 e;
       false
     with Engine.Stuck _ -> true)

let test_engine_stats () =
  let e = Engine.create () in
  let t = Engine.schedule e ~delay:10 (fun () -> Alcotest.fail "cancelled timer fired") in
  Engine.schedule_unit e ~delay:5 (fun () -> Engine.cancel t);
  Engine.schedule_unit e ~delay:20 (fun () -> Engine.schedule_unit e ~delay:1 (fun () -> ()));
  Engine.run e;
  let s = Engine.stats e in
  (* The cancelled timer pops from the queue but only counts as
     [cancelled], never as an executed event. *)
  Alcotest.(check int) "executed" 3 s.Engine.events;
  Alcotest.(check int) "cancelled" 1 s.Engine.cancelled;
  Alcotest.(check int) "high-water pending" 3 s.Engine.max_pending;
  Alcotest.(check int) "quiesced queue is empty" 0 s.Engine.live

(* The event budget counts executed events: a queue that drains on its
   last budgeted event is not a livelock. *)
let budgeted_run ~events ~max_events =
  let e = Engine.create () in
  for _ = 1 to events do
    Engine.schedule_unit e ~delay:1 ignore
  done;
  match Engine.run ~max_events e with
  | () -> (false, Engine.stats e)
  | exception Engine.Stuck _ -> (true, Engine.stats e)

let test_engine_budget_drains () =
  let stuck, s = budgeted_run ~events:3 ~max_events:3 in
  Alcotest.(check bool) "no Stuck" false stuck;
  Alcotest.(check int) "all ran" 3 s.Engine.events;
  Alcotest.(check int) "nothing pending" 0 s.Engine.live

let test_engine_budget_exhausted () =
  let stuck, s = budgeted_run ~events:4 ~max_events:3 in
  Alcotest.(check bool) "Stuck" true stuck;
  Alcotest.(check int) "budget ran" 3 s.Engine.events;
  Alcotest.(check int) "one still due" 1 s.Engine.live

(* Random programs against the reference engine. A program is a list of
   commands from outside the engine; an event, when it fires, performs
   its body of actions. *)
type action =
  | Schedule of int * action list  (* delay, and what the event does when it fires *)
  | Cancel of int  (* the (k mod n)-th of the n timers scheduled so far, fired or not *)
  | Halt

type command =
  | Act of action
  | Run of int option  (* [run], or [run ~until:(now + d)] *)
  | Step

type observation =
  | Scheduled of int * Time.t  (* timer, its fire_at *)
  | Fired of int * Time.t  (* timer, now *)
  | Stepped of bool
  | State of Time.t * Time.t option * Time.t * Engine.stats
      (* now, next_at, last_event_at, stats: after every command *)

module type ENGINE = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> Time.t
  val last_event_at : t -> Time.t
  val stats : t -> Engine.stats
  val schedule : t -> delay:int -> (unit -> unit) -> timer
  val cancel : timer -> unit
  val fire_at : timer -> Time.t
  val halt : t -> unit
  val step : t -> bool
  val next_at : t -> Time.t option
  val run : ?until:Time.t -> ?max_events:int -> t -> unit
end

module Exec (E : ENGINE) = struct
  let observe program =
    let e = E.create () in
    let timers = Hashtbl.create 64 and log = ref [] in
    let note o = log := o :: !log in
    let rec act = function
      | Schedule (delay, body) ->
          let id = Hashtbl.length timers in
          let timer =
            E.schedule e ~delay (fun () ->
                note (Fired (id, E.now e));
                List.iter act body)
          in
          Hashtbl.add timers id timer;
          note (Scheduled (id, E.fire_at timer))
      | Cancel k ->
          let n = Hashtbl.length timers in
          if n > 0 then E.cancel (Hashtbl.find timers (k mod n))
      | Halt -> E.halt e
    in
    List.iter
      (fun command ->
        (match command with
        | Act a -> act a
        | Run None -> E.run e
        | Run (Some d) -> E.run ~until:(Time.add (E.now e) d) e
        | Step -> note (Stepped (E.step e)));
        note (State (E.now e, E.next_at e, E.last_event_at e, E.stats e)))
      program;
    List.rev !log
end

module Exec_engine = Exec (struct
  include Engine

  let create () = Engine.create ()
end)

module Exec_reference = Exec (Engine_reference)

module Exec_three_arrays = Exec (struct
  include Engine_three_arrays

  let create () = Engine_three_arrays.create ()
end)

(* Near both key bounds: the first event gets one of the last 2^16
   sequence numbers (no program schedules that many), and [near_time]
   leaves 2^20 ticks below [Engine.max_time] (no program advances the
   clock that far). *)
let high_seq = Engine.max_seq + 1 - (1 lsl 16)
let near_time = Run (Some (Time.to_int Engine.max_time - (1 lsl 20)))

module Exec_engine_high = Exec (struct
  include Engine

  let create () = Engine.create ~first_seq:high_seq ()
end)

module Exec_three_arrays_high = Exec (struct
  include Engine_three_arrays

  let create () = Engine_three_arrays.create ~first_seq:high_seq ()
end)

(* Delays bunch on a few values, so many events share an instant, and
   are often 0, so events schedule more at the instant they fire. Only a
   third of the programs halt, since a halt stops every later [run].
   About one program in ten outgrows the heap's first arrays. *)
let gen_program =
  let open QCheck.Gen in
  let delay = frequency [ (4, return 0); (3, int_range 1 3); (2, return 10); (1, int_bound 100) ] in
  let rec action ~halts depth =
    frequency
      ([
         ( 12,
           map2
             (fun d body -> Schedule (d, body))
             delay
             (if depth = 0 then return [] else list_size (int_bound 3) (action ~halts (depth - 1))) );
         (5, map (fun k -> Cancel k) nat);
       ]
      @ if halts then [ (1, return Halt) ] else [])
  in
  let command ~halts =
    frequency
      [
        (6, map (fun a -> Act a) (action ~halts 3));
        (1, return (Run None));
        (2, map (fun d -> Run (Some d)) (int_bound 20));
        (3, return Step);
      ]
  in
  let* halts = frequency [ (2, return false); (1, return true) ] in
  let* len = frequency [ (5, int_range 1 40); (1, int_range 100 300) ] in
  list_repeat len (command ~halts)

let rec print_action = function
  | Schedule (d, body) -> Printf.sprintf "S%d[%s]" d (String.concat " " (List.map print_action body))
  | Cancel k -> Printf.sprintf "C%d" k
  | Halt -> "H"

let print_command = function
  | Act a -> print_action a
  | Run None -> "run"
  | Run (Some d) -> Printf.sprintf "run~%d" d
  | Step -> "step"

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine = leftist-heap reference engine" ~count:1000
    (QCheck.make ~print:QCheck.Print.(list print_command) gen_program)
    (fun program -> Exec_engine.observe program = Exec_reference.observe program)

(* The same programs fire the same events in the same order on both
   heaps, from time 0 and sequence number 0, and near both key bounds. *)
let prop_engine_matches_three_arrays =
  QCheck.Test.make ~name:"engine = three-array heap reference engine" ~count:1000
    (QCheck.make ~print:QCheck.Print.(list print_command) gen_program)
    (fun program ->
      Exec_engine.observe program = Exec_three_arrays.observe program
      && Exec_engine_high.observe (near_time :: program)
         = Exec_three_arrays_high.observe (near_time :: program))

(* Fire times up to [Engine.max_time] are taken, and keep their order
   with early ones; one tick past it, or a sequence number past
   [Engine.max_seq], is refused. *)
let test_engine_key_bounds () =
  let e = Engine.create ~first_seq:(Engine.max_seq - 2) () in
  let log = ref [] in
  let last = Time.to_int Engine.max_time in
  Engine.schedule_unit e ~delay:last (fun () -> log := "last" :: !log);
  Engine.schedule_unit e ~delay:(last - 1) (fun () -> log := "before" :: !log);
  Engine.schedule_unit e ~delay:1 (fun () -> log := "first" :: !log);
  Alcotest.check_raises "past max_seq" (Invalid_argument "Engine.schedule: sequence numbers exhausted")
    (fun () -> Engine.schedule_unit e ~delay:0 ignore);
  Engine.run e;
  Alcotest.(check (list string)) "order at the bound" [ "first"; "before"; "last" ] (List.rev !log);
  Alcotest.(check int) "clock at the bound" last (Time.to_int (Engine.now e));
  let e = Engine.create () in
  Engine.schedule_unit e ~delay:1000 ignore;
  Engine.run e;
  let refused delay =
    Alcotest.check_raises
      (Fmt.str "delay %d" delay)
      (Invalid_argument "Engine.schedule: fire time past Engine.max_time")
      (fun () -> Engine.schedule_unit e ~delay ignore)
  in
  refused (last - 999);
  refused max_int;
  Engine.schedule_unit e ~delay:(last - 1000) ignore;
  Alcotest.(check (option int)) "at the bound" (Some last) (Option.map Time.to_int (Engine.next_at e))

let prop_engine_deterministic =
  QCheck.Test.make ~name:"same schedule, same execution order" ~count:100
    QCheck.(list (int_bound 50))
    (fun delays ->
      let exec delays =
        let e = Engine.create () in
        let log = ref [] in
        List.iteri (fun i d -> Engine.schedule_unit e ~delay:d (fun () -> log := i :: !log)) delays;
        Engine.run e;
        List.rev !log
      in
      exec delays = exec delays)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "basics" `Quick test_pq_basic;
          Alcotest.test_case "empty" `Quick test_pq_empty;
          q prop_pq_sorts;
          q prop_pq_size;
          q prop_pq_persistent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "tie-break by scheduling order" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancellation" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "halt" `Quick test_engine_halt;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
          Alcotest.test_case "livelock guard" `Quick test_engine_livelock_guard;
          Alcotest.test_case "stats" `Quick test_engine_stats;
          Alcotest.test_case "budget: queue drains on the last event" `Quick test_engine_budget_drains;
          Alcotest.test_case "budget: exhausted with an event due" `Quick
            test_engine_budget_exhausted;
          q prop_engine_deterministic;
          q prop_engine_matches_reference;
          q prop_engine_matches_three_arrays;
          Alcotest.test_case "key bounds" `Quick test_engine_key_bounds;
        ] );
    ]
