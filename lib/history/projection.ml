(* Projections of a history (paper §3): the local history H(i) is the
   projection of H onto the operations of the i-th site. Global
   commit/abort operations occur at no site and are dropped. *)

open Hermes_kernel

let site h s = History.filter (fun op -> match Op.site op with Some s' -> Site.equal s s' | None -> false) h

(* The projection the LTM actually schedules: elementary operations and
   local terminations at one site (no Prepare — prepares live in the 2PCA,
   above the local interface). *)
let ltm h s =
  History.filter
    (fun op ->
      match op with
      | Op.Dml { inc; _ } | Op.Local_commit inc | Op.Local_abort inc -> Site.equal inc.Txn.Incarnation.site s
      | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> false)
    h
