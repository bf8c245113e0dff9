(* Conservative parallel discrete-event execution.

   Each shard owns one {!Engine} (a site's whole component stack
   schedules only on it) plus an inbox of cross-shard messages. Domains
   execute shards through bounded virtual-time windows:

     1. serial phase (coordinator only): drain every shard's inbox into
        its engine, find the globally earliest pending event m, and set
        the window bound to m + lookahead - 1;
     2. parallel phase: every domain runs its shards' engines up to the
        bound, pushing any cross-shard sends into the destination inbox;
     3. barrier, repeat.

   Safety argument: the lookahead is the minimum cross-shard latency, so
   an event executing at time t >= m can only cause a remote event at
   t + lookahead > m + lookahead - 1 — strictly after the current
   window. Every remote event is therefore enqueued before the barrier
   preceding the window that executes it, and each engine still fires
   its own events in (time, seq) order; virtual time stays coherent
   without any global event ordering.

   Determinism: the serial phase drains inboxes in deterministic
   (arrival, sender, sender-seq) order (see {!Mailbox}), shards share no
   mutable state within a window, and window bounds are a function of
   virtual time only — so results are independent of the domain count
   and of wall-clock interleaving. [run ~domains:1] executes the same
   windowed schedule on the calling domain alone: the same loop, behind a
   one-party barrier.

   A single shard needs no windows at all: nothing can cross a shard
   boundary, so its engine runs straight to the cap. *)

open Hermes_kernel

type shard = {
  engine : Engine.t;
  drain : unit -> unit;
      (* move the shard's inbox into its engine; called only in the
         serial phase, when every producer has quiesced *)
}

(* Sense-reversing barrier. *)
module Barrier = struct
  type t = {
    mutex : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable count : int;
    mutable sense : bool;
  }

  let create parties =
    { mutex = Mutex.create (); cond = Condition.create (); parties; count = 0; sense = false }

  let wait b =
    Mutex.lock b.mutex;
    let s = b.sense in
    b.count <- b.count + 1;
    if b.count = b.parties then begin
      b.count <- 0;
      b.sense <- not s;
      Condition.broadcast b.cond
    end
    else
      while b.sense = s do
        Condition.wait b.cond b.mutex
      done;
    Mutex.unlock b.mutex
end

type stats = { windows : int; domains : int }

(* The serial phase: drain, then the earliest pending event anywhere. *)
let global_min shards =
  Array.iter (fun s -> s.drain ()) shards;
  Array.fold_left
    (fun acc s ->
      match (Engine.next_at s.engine, acc) with
      | None, acc -> acc
      | Some t, None -> Some t
      | Some t, Some m -> Some (Time.min t m))
    None shards

let run ?(max_events = 50_000_000) ~domains ~lookahead ~until shards =
  let n = Array.length shards in
  if n = 1 then begin
    shards.(0).drain ();
    Engine.run ~until ~max_events shards.(0).engine;
    { windows = 1; domains = 1 }
  end
  else begin
    if lookahead < 1 then invalid_arg "Parallel.run: lookahead must be >= 1";
    let domains = max 1 (min domains n) in
    let windows = ref 0 in
    let run_mine d ~w_end =
      for i = 0 to n - 1 do
        if i mod domains = d then Engine.run ~until:w_end ~max_events shards.(i).engine
      done
    in
    (* One round of the serial phase: [Some w_end] to execute, [None] when
       the system has quiesced or passed the cap. *)
    let next_window () =
      match global_min shards with
      | None -> None
      | Some m when Time.(m > until) -> None
      | Some m ->
          incr windows;
          Some (Time.min (Time.add m (lookahead - 1)) until)
    in
    let start_b = Barrier.create domains and end_b = Barrier.create domains in
    let stop = Atomic.make false in
    let w_end = ref Time.zero in
    let error : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
    let run_window d w =
      try run_mine d ~w_end:w
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, bt)))
    in
    let worker d () =
      let rec loop () =
        Barrier.wait start_b;
        if not (Atomic.get stop) then begin
          run_window d !w_end;
          Barrier.wait end_b;
          loop ()
        end
      in
      loop ()
    in
    let others = List.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    let rec loop () =
      match if Atomic.get error <> None then None else next_window () with
      | None ->
          Atomic.set stop true;
          Barrier.wait start_b (* release workers into their exit branch *)
      | Some w ->
          w_end := w;
          Barrier.wait start_b;
          run_window 0 w;
          Barrier.wait end_b;
          loop ()
    in
    loop ();
    List.iter Domain.join others;
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    { windows = !windows; domains }
  end
