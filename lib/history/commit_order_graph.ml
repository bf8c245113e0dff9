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

   The sequences come in the order a [Hashtbl.fold] over [by_site]
   visits them. Which cycle a cyclic CG reports depends on this order,
   and pinned reports print that cycle. *)
let commit_sequences h (ix : History.index) =
  let by_site = Hashtbl.create 8 in
  let committed_at = Array.make (Array.length ix.txns) [] in
  History.iteri
    (fun i op ->
      match op with
      | Op.Local_commit { site; _ } ->
          let seq =
            match Hashtbl.find_opt by_site site with
            | Some seq -> seq
            | None ->
                let seq = ref [] in
                Hashtbl.add by_site site seq;
                seq
          in
          let x = ix.txn_of_op.(i) in
          if not (List.memq seq committed_at.(x)) then begin
            committed_at.(x) <- seq :: committed_at.(x);
            seq := x :: !seq
          end
      | _ -> ())
    h;
  Hashtbl.fold (fun _ seq acc -> Array.of_list (List.rev !seq) :: acc) by_site [] |> Array.of_list

(* Greedy emission over the site sequences. Returns either a topological
   order of CG(H) or a cycle, as transaction ids. *)
let emit h =
  let ix = History.index h in
  let seqs = commit_sequences h ix in
  let n = Array.length ix.txns in
  let heads = Array.make (Array.length seqs) 0 in
  (* The sequences each transaction appears in, ascending, and in how
     many it is currently at the (unemitted) head. *)
  let member_of = Array.make n [] in
  for i = Array.length seqs - 1 downto 0 do
    Array.iter (fun x -> member_of.(x) <- i :: member_of.(x)) seqs.(i)
  done;
  let appears = Array.map List.length member_of in
  let at_head = Array.make n 0 in
  let total = Array.fold_left (fun acc k -> if k > 0 then acc + 1 else acc) 0 appears in
  let ready = Queue.create () in
  let reach_head x =
    at_head.(x) <- at_head.(x) + 1;
    if at_head.(x) = appears.(x) then Queue.add x ready
  in
  Array.iter (fun seq -> if Array.length seq > 0 then reach_head seq.(0)) seqs;
  let emitted = Array.make n false in
  let n_emitted = ref 0 and order = ref [] in
  while not (Queue.is_empty ready) do
    let x = Queue.pop ready in
    if not emitted.(x) then begin
      emitted.(x) <- true;
      incr n_emitted;
      order := x :: !order;
      (* x heads every sequence it is in and no other sequence's head has
         been emitted, so only x's sequences move, each by one. *)
      List.iter
        (fun i ->
          heads.(i) <- heads.(i) + 1;
          if heads.(i) < Array.length seqs.(i) then reach_head seqs.(i).(heads.(i)))
        member_of.(x)
    end
  done;
  if !n_emitted = total then Ok (List.rev !order)
  else begin
    (* Stalled: every unemitted head waits for the unemitted head of some
       other sequence. Follow "waits for the head of a sequence where I am
       not at the head" until a transaction repeats — that is a CG cycle
       (h before x at that site means arc h -> x; the walk follows arcs
       backwards, so reverse it before returning). *)
    let head_of i = seqs.(i).(heads.(i)) in
    (* The first sequence still containing x whose unemitted head is not
       x: that head must commit before x can. *)
    let blocker x = head_of (List.find (fun i -> head_of i <> x) member_of.(x)) in
    (* Start from the first unemitted head. *)
    let start =
      let rec find i = if heads.(i) < Array.length seqs.(i) then head_of i else find (i + 1) in
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
let serialization_order h = match emit h with Ok order -> Some (txns h order) | Error _ -> None
