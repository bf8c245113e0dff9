(* Detectors for the paper's two anomaly classes.

   Global view distortion (§4): a resubmitted local subtransaction T^i_kj
   (j > 0) gets another view — reads the same item from a different
   transaction — or, in the worst case, another decomposition than the
   original T^i_k0. Detected by comparing, per (transaction, site), the
   footprints and reads-from of all incarnations. The reads-from come
   from the replay kernel ({!Replay.replay}), asked only about the reads
   of resubmitted subtransactions.

   Local view distortion (§5): local transactions get non-serializable
   views because local commits of global transactions occur in opposite
   orders at different sites. Possible only if the commit order graph of
   the committed projection is cyclic, so the detector reports CG cycles;
   an exact view-serializability refutation is available for small
   histories through {!View}. *)

open Hermes_kernel

type global_distortion = {
  txn : Txn.t;
  site : Site.t;
  inc_base : int;  (* the original incarnation compared against *)
  inc_other : int;  (* the diverging resubmission *)
  reason : [ `Different_view of Item.t | `Different_decomposition ];
}

let pp_global ppf d =
  let reason ppf = function
    | `Different_view item -> Fmt.pf ppf "reads %a from a different transaction" Item.pp item
    | `Different_decomposition -> Fmt.string ppf "has a different decomposition"
  in
  Fmt.pf ppf "global view distortion: %a at site %a, incarnation %d %a than incarnation %d" Txn.pp d.txn
    Site.pp d.site d.inc_other reason d.reason d.inc_base

(* The footprint of an incarnation: its DML operations in order, reads
   annotated with the logical transaction they read from. The replay
   kernel gives the writer of each read of a [wanted] incarnation, in
   history order; one scan of the index's incarnation column then lays
   out those incarnations' steps, and notes which of them locally
   committed. The scan branches on the index's columns and takes each
   step's item from its items. Footprints are kept by incarnation id
   (newest step first). *)
type step = { kind : Op.kind; item : Item.t; from : Txn.t option }

let footprint_table h (wanted : bool array) =
  let ix = History.index h in
  let froms = ref [] in
  ignore
    (Replay.replay h ~on_read:(fun i w _ ->
         if wanted.(ix.inc_of_op.(i)) then froms := (if w < 0 then None else Some ix.incs.(w).txn) :: !froms));
  let froms = ref (List.rev !froms) in
  let foot = Array.make (Array.length ix.incs) [] and committed = Array.make (Array.length ix.incs) false in
  Array.iteri
    (fun i j ->
      if j >= 0 && wanted.(j) then
        match ix.code_of_op.(i) with
        | Op.Read ->
            let from =
              match !froms with
              | from :: rest ->
                  froms := rest;
                  from
              | [] -> invalid_arg "Anomaly.footprints: replay lost a read"
            in
            foot.(j) <- { kind = Read; item = ix.items.(ix.item_of_op.(i)); from } :: foot.(j)
        | Op.Write -> foot.(j) <- { kind = Write; item = ix.items.(ix.item_of_op.(i)); from = None } :: foot.(j)
        | Op.Local_commit -> committed.(j) <- true
        | Op.Local_abort | Op.Prepare | Op.Global_commit | Op.Global_abort -> ())
    ix.inc_of_op;
  (foot, committed)

let footprints h =
  let ix = History.index h in
  let foot, _ = footprint_table h (Array.make (Array.length ix.incs) true) in
  List.filter_map
    (fun j -> match foot.(j) with [] -> None | steps -> Some (ix.incs.(j), List.rev steps))
    (List.init (Array.length foot) Fun.id)

(* Compare all resubmissions against the first incarnation present.

   A resubmission that was itself unilaterally aborted partway replayed
   only a *prefix* of the subtransaction's commands; that is not a
   distortion as long as the prefix's decomposition and views agree with
   the original. A *committed* incarnation, by contrast, replayed
   everything and must agree exactly.

   Only subtransactions with two or more incarnations can diverge. The
   index holds each subtransaction's incarnations consecutively, in
   ascending order, with subtransactions in (transaction, site) order, so
   they are read off it as runs; a history without any skips the
   replay. *)
let global_view_distortions h =
  let ix = History.index h in
  let runs = ref [] in
  Array.iteri
    (fun x txn ->
      if Txn.is_global txn then begin
        let j = ref ix.txn_incs.(x) in
        while !j < ix.txn_incs.(x + 1) do
          let first = !j in
          while !j + 1 < ix.txn_incs.(x + 1) && Site.equal ix.incs.(!j + 1).site ix.incs.(first).site do
            incr j
          done;
          if !j > first then runs := (first, !j) :: !runs;
          incr j
        done
      end)
    ix.txns;
  match List.rev !runs with
  | [] -> []
  | runs ->
      let wanted = Array.make (Array.length ix.incs) false in
      List.iter (fun (first, last) -> Array.fill wanted first (last - first + 1) true) runs;
      let foot, committed = footprint_table h wanted in
      let shapes l = List.map (fun s -> (s.kind, s.item)) l in
      (* l1 a prefix of l2 *)
      let rec is_prefix = function
        | [], _ -> true
        | _, [] -> false
        | x :: xs, y :: ys -> Stdlib.( = ) x y && is_prefix (xs, ys)
      in
      List.concat_map
        (fun (first, last) ->
          let base = ix.incs.(first) in
          match List.rev foot.(first) with
          | [] -> []
          | base_steps ->
              let base_shapes = shapes base_steps in
              List.concat_map
                (fun j ->
                  let distortion reason =
                    { txn = base.txn; site = base.site; inc_base = base.inc; inc_other = ix.incs.(j).inc; reason }
                  in
                  let steps = List.rev foot.(j) in
                  let shape_ok =
                    if committed.(j) then shapes steps = base_shapes else is_prefix (shapes steps, base_shapes)
                  in
                  if not shape_ok then [ distortion `Different_decomposition ]
                  else
                    (* Views must agree on the common (prefix) length: walk
                       both footprints in step. *)
                    let rec views acc = function
                      | (s : step) :: ss, (b : step) :: bs ->
                          let acc =
                            if s.kind = Op.Read && not (Stdlib.( = ) s.from b.from) then
                              distortion (`Different_view s.item) :: acc
                            else acc
                          in
                          views acc (ss, bs)
                      | _ -> List.rev acc
                    in
                    views [] (steps, base_steps))
                (List.init (last - first) (fun k -> first + 1 + k)))
        runs

(* Local view distortion is *possible* only if CG(C(H)) is cyclic
   (paper §5.1); the cycle is the diagnostic. *)
let commit_order_cycle h = Commit_order_graph.find_cycle h
