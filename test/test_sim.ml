(* Tests for hermes.sim: the discrete-event engine (ordering,
   determinism, timers, cancellation, the event budget), checked against
   the engine as it was over a persistent leftist heap. *)

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

module Exec_engine = Exec (Engine)
module Exec_reference = Exec (Engine_reference)

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
        ] );
    ]
