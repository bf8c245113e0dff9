(* The deciders as first written, against the public API. The library
   keeps only the fast versions; these are their references. *)

open Hermes_kernel
open Hermes_history
open Hermes_protocol

(* The exact view-serializability decision: enumerate serial orders
   lazily, replaying the whole serial history per candidate, and stop at
   the first witness. The pruned DFS of [View.view_serializable] must
   reach the same decisions (witness orders may differ). *)
let rec insertions x = function
  | [] -> [ [ x ] ]
  | y :: rest as l -> (x :: l) :: List.map (fun r -> y :: r) (insertions x rest)

let rec permutations = function
  | [] -> Seq.return []
  | x :: rest -> Seq.concat_map (fun p -> List.to_seq (insertions x p)) (permutations rest)

let view_serializable_naive ?(limit = 8) h =
  let txns = History.txns h in
  if txns = [] then View.Serializable []
  else if List.length txns > limit then View.Too_large
  else begin
    let target = View.view_data h in
    let witness =
      Seq.find (fun order -> Stdlib.( = ) (View.view_data (View.serial_of_order h order)) target) (permutations txns)
    in
    match witness with Some order -> View.Serializable order | None -> View.Not_serializable
  end

(* The alive table as it would be kept without the array: an
   association list from gid to (serial number, interval), newest first,
   and every query a fold over it. [Alive_table] must answer as this
   model does after any sequence of inserts, removals, interval updates
   and extensions. Equal serial numbers break ties on the smaller gid,
   and the smallest gid is the intersection witness, so no answer depends
   on the order of the entries. *)
module Alive_model = struct
  type t = { mutable entries : (int * (Sn.t * Interval.t)) list }

  let create () = { entries = [] }
  let mem t ~gid = List.mem_assoc gid t.entries
  let size t = List.length t.entries

  let insert t ~gid ~sn ~interval =
    if mem t ~gid then invalid_arg "Alive_table.insert: duplicate entry";
    t.entries <- (gid, (sn, interval)) :: t.entries

  let remove t ~gid = t.entries <- List.remove_assoc gid t.entries

  let set_interval t ~gid f =
    t.entries <- List.map (fun (g, (sn, iv)) -> if g = gid then (g, (sn, f iv)) else (g, (sn, iv))) t.entries

  let update_interval t ~gid interval = set_interval t ~gid (fun _ -> interval)

  let extend_interval t ~gid ~hi =
    set_interval t ~gid (fun iv -> if Time.(Interval.lo iv <= hi) then Interval.extend_to iv ~hi else iv)

  (* (gid, serial number, interval), by gid *)
  let sorted t = List.sort compare (List.map (fun (g, (sn, iv)) -> (g, sn, iv)) t.entries)
  let find t ~gid = List.assoc_opt gid t.entries
  let all_intersect t candidate = List.for_all (fun (_, (_, iv)) -> Interval.intersects candidate iv) t.entries

  let first_non_intersecting t candidate =
    List.fold_left
      (fun acc (g, (_, iv)) ->
        if Interval.intersects candidate iv then acc
        else match acc with Some b when b < g -> acc | _ -> Some g)
      None t.entries

  let min_sn_holds t ~gid ~sn = List.for_all (fun (g, (s, _)) -> g = gid || Sn.(s > sn)) t.entries

  let min_sn_blocker t ~gid ~sn =
    List.fold_left
      (fun acc (g, (s, _)) ->
        if g = gid || Sn.(s > sn) then acc
        else
          match acc with
          | Some (bg, bs) when Sn.compare bs s < 0 || (Sn.compare bs s = 0 && bg < g) -> acc
          | _ -> Some (g, s))
      None t.entries
    |> Option.map fst
end

(* The commit certification and the Alive Time Intersection Rule as
   folds over the table's entries: the baselines M13 and M11 time
   against the table's own scans. *)
let min_sn_holds_fold t ~gid ~sn =
  List.for_all (fun (e : Alive_table.entry) -> e.gid = gid || Sn.(e.sn > sn)) (Alive_table.entries t)

let all_intersect_fold t candidate =
  List.for_all
    (fun (e : Alive_table.entry) -> Interval.intersects candidate e.interval)
    (Alive_table.entries t)

(* CG(H)'s greedy emission as it was when the commit sequences were
   lists built through a [Hashtbl] keyed by site, one lookup per local
   commit: [commit_sequences] and [emit] verbatim. The dense sequences
   of [Commit_order_graph] must find the same cycle and the same order. *)
module Commit_order_graph = struct
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
  let serialization_order h = match emit h with Ok order -> Some (txns h order) | Error _ -> None
end
