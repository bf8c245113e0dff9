(* The commit order graph CG(H) of paper §5.1: nodes are transactions with
   at least one local commit; there is an arc T_k -> T_i iff some local
   commit of T_k precedes some local commit of T_i at the *same site*
   (the paper writes C^x_kj <_H C^x_ig for some x — under rigorousness the
   order of local commits at one site is the unique local serialization
   order of conflicting transactions there). Local view distortion is
   possible only if CG(C(H)) is cyclic; if it is acyclic, a topological
   order is a global view serialization order.

   CG is the union of one *total order per site*, so materializing its
   O(n^2) arcs is both wasteful and, for histories with many local
   transactions, prohibitive. Acyclicity, cycle extraction and topological
   sorting are instead done directly on the per-site commit sequences by
   greedy emission: a transaction can be emitted when it is at the
   unemitted head of every site sequence it appears in; a stall with
   transactions remaining proves a cycle, which is extracted by following
   blocked heads. Everything runs on the history's transaction ids. *)

(* Per-site commit sequences of transaction ids, in history order (first
   committer first). A transaction commits at most once per site in any
   run the simulator produces; hand-built histories are deduplicated
   defensively (first commit wins — later duplicates add no new ordering
   constraints given the transitive per-site total order).

   Everything is dense. A (transaction, site) pair is one run of the
   index's incarnations, so each incarnation gets its run's first
   incarnation from the index's site slot column, and "first commit
   wins" is one flag per run. Two scans of the code column then lay the accepted
   commits out by site slot, in history order. Sequence [q]'s
   transactions are [seq_txn.(seq_off.(q))] .. [seq_txn.(seq_off.(q + 1)
   - 1)], and transaction [x]'s sequences, ascending, are
   [mem_seq.(mem_off.(x))] .. [mem_seq.(mem_off.(x + 1) - 1)].

   The sequences come in the order a [Hashtbl.fold] visits a table of
   the sites, created with 8 buckets and filled in the order of each
   site's first local commit: which cycle a cyclic CG reports depends on
   this order, and pinned reports print that cycle. The table holds the
   distinct sites only; it is filled and folded once. *)
type sequences = { seq_off : int array; seq_txn : int array; mem_off : int array; mem_seq : int array }

let commit_sequences (ix : History.index) =
  let n_txns = Array.length ix.txns and n_incs = Array.length ix.incs in
  let run = Array.make n_incs 0 and slot = ix.slot_of_inc in
  for x = 0 to n_txns - 1 do
    for j = ix.txn_incs.(x) to ix.txn_incs.(x + 1) - 1 do
      run.(j) <- (if j > ix.txn_incs.(x) && slot.(j) = slot.(j - 1) then run.(j - 1) else j)
    done
  done;
  (* Two scans of the code column. The first flags each run's first
     local commit, counts the flagged commits per slot and ranks the
     slots by their first local commit; the second lays the flagged
     commits out in history order, clearing each run's flag as it
     takes its commit, so later commits of the run are skipped again. *)
  let site_of_slot = ix.sites and code = ix.code_of_op in
  let n_slots = Array.length site_of_slot in
  let ranked = Array.make n_slots false and by_rank = Array.make n_slots 0 and n_sites = ref 0 in
  let taken = Array.make n_incs false and count = Array.make n_slots 0 in
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Op.Local_commit ->
        let j = ix.inc_of_op.(i) in
        if not taken.(run.(j)) then begin
          taken.(run.(j)) <- true;
          let s = slot.(j) in
          if not ranked.(s) then begin
            ranked.(s) <- true;
            by_rank.(!n_sites) <- s;
            incr n_sites
          end;
          count.(s) <- count.(s) + 1
        end
    | _ -> ()
  done;
  let by_site = Hashtbl.create 8 in
  for r = 0 to !n_sites - 1 do
    Hashtbl.add by_site site_of_slot.(by_rank.(r)) by_rank.(r)
  done;
  let seq_slots = Array.of_list (Hashtbl.fold (fun _ s acc -> s :: acc) by_site []) in
  let n_seqs = Array.length seq_slots in
  let seq_off = Array.make (n_seqs + 1) 0 and fill = Array.make n_slots 0 in
  Array.iteri
    (fun q s ->
      fill.(s) <- seq_off.(q);
      seq_off.(q + 1) <- seq_off.(q) + count.(s))
    seq_slots;
  let m = seq_off.(n_seqs) in
  let seq_txn = Array.make m 0 and mem_off = Array.make (n_txns + 1) 0 in
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Op.Local_commit ->
        let j = ix.inc_of_op.(i) in
        if taken.(run.(j)) then begin
          taken.(run.(j)) <- false;
          let s = slot.(j) and x = ix.txn_of_op.(i) in
          seq_txn.(fill.(s)) <- x;
          fill.(s) <- fill.(s) + 1;
          mem_off.(x + 1) <- mem_off.(x + 1) + 1
        end
    | _ -> ()
  done;
  for x = 0 to n_txns - 1 do
    mem_off.(x + 1) <- mem_off.(x + 1) + mem_off.(x)
  done;
  let mem_seq = Array.make m 0 and fill = Array.sub mem_off 0 n_txns in
  for q = 0 to n_seqs - 1 do
    for p = seq_off.(q) to seq_off.(q + 1) - 1 do
      let x = seq_txn.(p) in
      mem_seq.(fill.(x)) <- q;
      fill.(x) <- fill.(x) + 1
    done
  done;
  { seq_off; seq_txn; mem_off; mem_seq }

(* Greedy emission over the site sequences. Returns either a topological
   order of CG(H) or a cycle, as transaction ids. [heads.(q)] is the
   position in [seq_txn] of sequence q's unemitted head. *)
let emit h =
  let ix = History.index h in
  let { seq_off; seq_txn; mem_off; mem_seq } = commit_sequences ix in
  let n = Array.length ix.txns and n_seqs = Array.length seq_off - 1 in
  let heads = Array.sub seq_off 0 n_seqs in
  (* How many sequences each transaction heads. A transaction becomes
     the head of each of its sequences once, so it reaches all of them
     once: [ready] queues each transaction at most once, and the order
     it is taken off in is the emission order. *)
  let at_head = Array.make n 0 and ready = Array.make n 0 and emitted = ref 0 and queued = ref 0 in
  let total = ref 0 in
  for x = 0 to n - 1 do
    if mem_off.(x + 1) > mem_off.(x) then incr total
  done;
  let reach_head x =
    at_head.(x) <- at_head.(x) + 1;
    if at_head.(x) = mem_off.(x + 1) - mem_off.(x) then begin
      ready.(!queued) <- x;
      incr queued
    end
  in
  for q = 0 to n_seqs - 1 do
    if seq_off.(q) < seq_off.(q + 1) then reach_head seq_txn.(seq_off.(q))
  done;
  while !emitted < !queued do
    let x = ready.(!emitted) in
    incr emitted;
    (* x heads every sequence it is in and no other sequence's head has
       been emitted, so only x's sequences move, each by one. *)
    for p = mem_off.(x) to mem_off.(x + 1) - 1 do
      let q = mem_seq.(p) in
      heads.(q) <- heads.(q) + 1;
      if heads.(q) < seq_off.(q + 1) then reach_head seq_txn.(heads.(q))
    done
  done;
  if !queued = !total then Ok (Array.sub ready 0 !queued)
  else begin
    (* Stalled: every unemitted head waits for the unemitted head of some
       other sequence. Follow "waits for the head of a sequence where I am
       not at the head" until a transaction repeats — that is a CG cycle
       (h before x at that site means arc h -> x; the walk follows arcs
       backwards, so reverse it before returning). A sequence that holds
       an unemitted transaction is not exhausted. *)
    let head_of q = seq_txn.(heads.(q)) in
    (* The first sequence still containing x whose unemitted head is not
       x: that head must commit before x can. *)
    let blocker x =
      let p = ref mem_off.(x) in
      while head_of mem_seq.(!p) = x do
        incr p
      done;
      head_of mem_seq.(!p)
    in
    (* Start from the first unemitted head. *)
    let start =
      let rec find q = if heads.(q) < seq_off.(q + 1) then head_of q else find (q + 1) in
      find 0
    in
    let seen = Array.make n false in
    (* The walk visits v0, v1 = blocker(v0), ... with edges v_{i+1} -> v_i,
       so [path] (newest first) is already in forward-edge order; when the
       blocker of the newest element is an already-seen vk, the cycle is
       the path segment down to vk, in that same order. *)
    let rec walk path x =
      if seen.(x) then begin
        let rec take acc = function
          | [] -> acc
          | y :: rest -> if y = x then List.rev (y :: acc) else take (y :: acc) rest
        in
        take [] path
      end
      else begin
        seen.(x) <- true;
        walk (x :: path) (blocker x)
      end
    in
    Error (walk [] start)
  end

let txns h = List.map (Array.get (History.index h).txns)
let find_cycle h = match emit h with Ok _ -> None | Error cycle -> Some (txns h cycle)
let is_acyclic h = find_cycle h = None

(* A global view serialization order, when CG is acyclic (paper §5.1). *)
let serialization_order h =
  match emit h with Ok order -> Some (txns h (Array.to_list order)) | Error _ -> None
