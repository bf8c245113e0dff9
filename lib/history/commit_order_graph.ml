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
   blocked heads. *)

open Hermes_kernel

(* Per-site commit sequences, in history order (first committer first).
   A transaction commits at most once per site in any run the simulator
   produces; hand-built histories are deduplicated defensively (first
   commit wins — later duplicates add no new ordering constraints given
   the transitive per-site total order). *)
let commit_sequences h =
  let per_site : (Site.t, Txn.t list ref) Hashtbl.t = Hashtbl.create 8 in
  History.iteri
    (fun _ op ->
      match op with
      | Op.Local_commit inc -> (
          let s = inc.Txn.Incarnation.site in
          match Hashtbl.find_opt per_site s with
          | Some l -> l := inc.txn :: !l
          | None -> Hashtbl.add per_site s (ref [ inc.txn ]))
      | _ -> ())
    h;
  Hashtbl.fold
    (fun _ l acc ->
      let seen = Hashtbl.create 8 in
      let dedup =
        List.filter
          (fun x ->
            if Hashtbl.mem seen x then false
            else begin
              Hashtbl.add seen x ();
              true
            end)
          (List.rev !l)
      in
      Array.of_list dedup :: acc)
    per_site []

(* Greedy emission over the site sequences. Returns either a topological
   order of CG(H) or a cycle. *)
let emit h =
  let seqs = Array.of_list (commit_sequences h) in
  let n_seqs = Array.length seqs in
  let heads = Array.make n_seqs 0 in
  (* How many sequences each transaction appears in, and in how many it is
     currently at the (unemitted) head. *)
  let appears : (Txn.t, int) Hashtbl.t = Hashtbl.create 64 in
  let at_head : (Txn.t, int) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl x d = Hashtbl.replace tbl x (d + Option.value ~default:0 (Hashtbl.find_opt tbl x)) in
  Array.iter (fun seq -> Array.iter (fun x -> bump appears x 1) seq) seqs;
  let total = Hashtbl.length appears in
  let ready = Queue.create () in
  let check_ready x = if Hashtbl.find at_head x = Hashtbl.find appears x then Queue.add x ready in
  Array.iter
    (fun seq ->
      if Array.length seq > 0 then begin
        bump at_head seq.(0) 1;
        check_ready seq.(0)
      end)
    seqs;
  let emitted : (Txn.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let advance i =
    (* Move past emitted transactions; a new head may become ready. *)
    let seq = seqs.(i) in
    while heads.(i) < Array.length seq && Hashtbl.mem emitted seq.(heads.(i)) do
      heads.(i) <- heads.(i) + 1;
      if heads.(i) < Array.length seq then begin
        let x = seq.(heads.(i)) in
        bump at_head x 1;
        check_ready x
      end
    done
  in
  while not (Queue.is_empty ready) do
    let x = Queue.pop ready in
    if not (Hashtbl.mem emitted x) then begin
      Hashtbl.add emitted x ();
      order := x :: !order;
      for i = 0 to n_seqs - 1 do
        advance i
      done
    end
  done;
  if Hashtbl.length emitted = total then Ok (List.rev !order)
  else begin
    (* Stalled: every unemitted head waits for the unemitted head of some
       other sequence. Follow "waits for the head of a sequence where I am
       not at the head" until a transaction repeats — that is a CG cycle
       (h before x at that site means arc h -> x; the walk follows arcs
       backwards, so reverse it before returning). *)
    let head_of i = seqs.(i).(heads.(i)) in
    let contains_unemitted i x =
      let seq = seqs.(i) in
      let rec go j = j < Array.length seq && (Txn.equal seq.(j) x || go (j + 1)) in
      go heads.(i)
    in
    let blocker x =
      (* A sequence still containing x whose unemitted head is not x: that
         head must commit before x can. *)
      let rec find i =
        if i >= n_seqs then assert false (* a stalled txn is blocked somewhere *)
        else if
          heads.(i) < Array.length seqs.(i)
          && (not (Txn.equal (head_of i) x))
          && contains_unemitted i x
        then head_of i
        else find (i + 1)
      in
      find 0
    in
    (* Start from any unemitted head. *)
    let start =
      let rec find i =
        if i >= n_seqs then assert false
        else if heads.(i) < Array.length seqs.(i) then head_of i
        else find (i + 1)
      in
      find 0
    in
    let seen = Hashtbl.create 16 in
    (* The walk visits v0, v1 = blocker(v0), ... with edges v_{i+1} -> v_i,
       so [path] (newest first) is already in forward-edge order; when the
       blocker of the newest element is an already-seen vk, the cycle is
       the path segment down to vk, in that same order. *)
    let rec walk path x =
      if Hashtbl.mem seen x then begin
        let rec take acc = function
          | [] -> acc
          | y :: rest -> if Txn.equal y x then List.rev (y :: acc) else take (y :: acc) rest
        in
        take [] path
      end
      else begin
        Hashtbl.add seen x ();
        walk (x :: path) (blocker x)
      end
    in
    Error (walk [] start)
  end

let find_cycle h = match emit h with Ok _ -> None | Error cycle -> Some cycle
let is_acyclic h = find_cycle h = None

(* A global view serialization order, when CG is acyclic (paper §5.1). *)
let serialization_order h = match emit h with Ok order -> Some order | Error _ -> None

