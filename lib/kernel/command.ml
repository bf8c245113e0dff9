(* The DML command language visible at the local interface (LI).

   The paper assumes each LDBS offers high-level data manipulation commands
   (it uses SQL) which the LTM decomposes into elementary Read/Write
   operations by a deterministic, state-dependent decomposition function
   D(O, S) (the DDF assumption, §2). This module defines a small such
   language over integer-keyed, integer-valued rows. It is expressive
   enough to reproduce the paper's phenomena: [Update]/[Delete] of an
   existing row decompose into R;W of that row, of a missing row into
   nothing — which is exactly how a resubmitted subtransaction can obtain a
   *different decomposition* than its original (history H1: T2 deletes Y^a,
   so resubmitted T11 decomposes to a lone read).

   Commands are pure descriptions; execution lives in the LTM. The update
   forms are arithmetic (v := v + delta, or v := const) so that the
   application-specific computation stays at the coordinating site and
   resubmitted commands are textually identical to the originals, as the
   2PCA method requires. *)

type t =
  | Select of { table : string; keys : int list }  (* read the listed rows (missing keys read nothing) *)
  | Select_range of { table : string; lo : int; hi : int }  (* read every existing row with lo <= key <= hi *)
  | Update_range of { table : string; lo : int; hi : int; delta : int }  (* v := v + delta for every existing row in range *)
  | Update of { table : string; key : int; delta : int }  (* v := v + delta if the row exists *)
  | Assign of { table : string; key : int; value : int }  (* v := value if the row exists *)
  | Insert of { table : string; key : int; value : int }  (* create or overwrite the row *)
  | Delete of { table : string; key : int }  (* remove the row if it exists *)

type result =
  | Rows of (int * int) list  (* (key, value) pairs returned by a select *)
  | Count of int  (* rows affected by an update/insert/delete *)

let table = function
  | Select { table; _ }
  | Select_range { table; _ }
  | Update_range { table; _ }
  | Update { table; _ }
  | Assign { table; _ }
  | Insert { table; _ }
  | Delete { table; _ } -> table

let is_read_only = function
  | Select _ | Select_range _ -> true
  | Update _ | Update_range _ | Assign _ | Insert _ | Delete _ -> false

let pp ppf = function
  | Select { table; keys } -> Fmt.pf ppf "SELECT %s[%a]" table Fmt.(list ~sep:comma int) keys
  | Select_range { table; lo; hi } -> Fmt.pf ppf "SELECT %s[%d..%d]" table lo hi
  | Update_range { table; lo; hi; delta } -> Fmt.pf ppf "UPDATE %s[%d..%d] += %d" table lo hi delta
  | Update { table; key; delta } -> Fmt.pf ppf "UPDATE %s[%d] += %d" table key delta
  | Assign { table; key; value } -> Fmt.pf ppf "UPDATE %s[%d] := %d" table key value
  | Insert { table; key; value } -> Fmt.pf ppf "INSERT %s[%d] = %d" table key value
  | Delete { table; key } -> Fmt.pf ppf "DELETE %s[%d]" table key

let show t = Fmt.str "%a" pp t

let pp_result ppf = function
  | Rows rows ->
      let pp_row ppf (k, v) = Fmt.pf ppf "%d=%d" k v in
      Fmt.pf ppf "rows(%a)" Fmt.(list ~sep:comma pp_row) rows
  | Count n -> Fmt.pf ppf "count(%d)" n

let show_result r = Fmt.str "%a" pp_result r
