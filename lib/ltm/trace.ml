(* The global trace: every component appends timestamped history
   operations (elementary reads/writes from the LTMs, local terminations,
   Prepare records from the 2PC Agents, global decisions from the
   Coordinators). The offline checkers consume the resulting history.

   One trace is shared by the whole simulated HMDBS — it is the omniscient
   observer's view, which no component in the system itself has.

   Storage is two append-only columns, the operations and their
   timestamps, in chunks of [chunk] slots. A chunk that small is allocated
   on the minor heap, so a record is two stores and growth never copies a
   major array: only the short spine of chunk pointers is reallocated.
   The recording position is each operation's sequence number. *)

open Hermes_kernel
open Hermes_history

let chunk_bits = 8
let chunk = 1 lsl chunk_bits (* 256 words: still a minor-heap allocation *)

(* Fills the unused slots of a chunk; never read. *)
let blank = Op.Global_abort (Txn.global 0)

type t = {
  mutable ops : Op.t array array;  (* the chunks; [chunks - 1] is the current one *)
  mutable ats : int array array;
  mutable chunks : int;
  mutable cur_ops : Op.t array;
  mutable cur_ats : int array;
  mutable fill : int;  (* slots used in the current chunk *)
  mutable last : int;  (* the latest timestamp *)
  mutable monotone : bool;  (* no timestamp was ever below its predecessor *)
}

let create () =
  {
    ops = [||];
    ats = [||];
    chunks = 0;
    cur_ops = [||];
    cur_ats = [||];
    fill = chunk;
    last = min_int;
    monotone = true;
  }

let grow t =
  if t.chunks = Array.length t.ops then begin
    let n = max 8 (2 * t.chunks) in
    let extend a = Array.append a (Array.make (n - t.chunks) [||]) in
    t.ops <- extend t.ops;
    t.ats <- extend t.ats
  end;
  t.cur_ops <- Array.make chunk blank;
  t.cur_ats <- Array.make chunk 0;
  t.ops.(t.chunks) <- t.cur_ops;
  t.ats.(t.chunks) <- t.cur_ats;
  t.chunks <- t.chunks + 1;
  t.fill <- 0

let record t ~at op =
  if t.fill = chunk then grow t;
  let at = Time.to_int at in
  if at < t.last then t.monotone <- false;
  t.last <- at;
  Array.unsafe_set t.cur_ops t.fill op;
  Array.unsafe_set t.cur_ats t.fill at;
  t.fill <- t.fill + 1

let count t = ((t.chunks - 1) * chunk) + t.fill
let op t i = t.ops.(i lsr chunk_bits).(i land (chunk - 1))
let at t i = t.ats.(i lsr chunk_bits).(i land (chunk - 1))

(* The events of a trace in recording order, sequence numbers re-tagged
   by [seq]: the input of the one (at, seq) sort, {!History.of_events}. *)
let events ~seq t = List.init (count t) (fun i -> { History.op = op t i; at = Time.of_int (at t i); seq = seq i })

(* The engine fires in time order, so a trace's timestamps never
   decrease and its recording order is already the history's (at, seq)
   order: one copy of the chunks, which the history owns, so a later
   record cannot change it. Only a hand-built trace goes through the
   sort. *)
let history t =
  if not t.monotone then History.of_events (events ~seq:Fun.id t)
  else
    History.of_array
      (Array.concat
         (List.init t.chunks (fun c -> if c < t.chunks - 1 then t.ops.(c) else Array.sub t.ops.(c) 0 t.fill)))

(* Execution over several shards keeps one trace per shard; the
   omniscient history is their merge in (at, seq, shard) order: each
   shard's recording order is kept, and same-instant events of different
   shards interleave by sequence number, then shard index — a
   deterministic, if arbitrary, tie-break. Every shard's columns are
   already in that order, so a binary heap of the shards keyed by their
   next event merges them in one pass. A shard whose timestamps decrease
   sends all of them through the sort, with [seq * shards + shard] as the
   sequence number, which is the same order. *)
let merged = function
  | [ t ] -> history t
  | ts when not (List.for_all (fun t -> t.monotone) ts) ->
      let n = List.length ts in
      History.of_events (List.concat (List.mapi (fun x t -> events ~seq:(fun i -> (i * n) + x) t) ts))
  | ts ->
      let shards = Array.of_list ts in
      let k = Array.length shards in
      let out = Array.make (Array.fold_left (fun acc t -> acc + count t) 0 shards) blank in
      (* Per shard: its next position and that event's timestamp. The
         heap holds the shards with events left, least (at, seq, shard)
         first. *)
      let pos = Array.make k 0 and head = Array.make k 0 in
      let heap = Array.make k 0 and size = ref 0 in
      let before x y =
        let ax = head.(x) and ay = head.(y) in
        ax < ay || (ax = ay && (pos.(x) < pos.(y) || (pos.(x) = pos.(y) && x < y)))
      in
      let rec sift_down i =
        let l = (2 * i) + 1 in
        if l < !size then begin
          let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
          if before heap.(c) heap.(i) then begin
            let x = heap.(i) in
            heap.(i) <- heap.(c);
            heap.(c) <- x;
            sift_down c
          end
        end
      in
      Array.iteri
        (fun x t ->
          if count t > 0 then begin
            head.(x) <- at t 0;
            heap.(!size) <- x;
            incr size
          end)
        shards;
      for i = (!size / 2) - 1 downto 0 do
        sift_down i
      done;
      for o = 0 to Array.length out - 1 do
        let x = heap.(0) in
        let t = shards.(x) and p = pos.(x) in
        out.(o) <- op t p;
        pos.(x) <- p + 1;
        if p + 1 < count t then head.(x) <- at t (p + 1)
        else begin
          decr size;
          heap.(0) <- heap.(!size)
        end;
        sift_down 0
      done;
      History.of_array out
