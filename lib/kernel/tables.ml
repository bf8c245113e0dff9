type 'a t = { rows : int; mutable tables : (string * 'a Int_tbl.t) list }

let create ~rows = { rows; tables = [] }

let rec find_in tables name =
  match tables with
  | [] -> raise Not_found
  | (name', tbl) :: rest -> if String.equal name name' then tbl else find_in rest name

let find t name = find_in t.tables name

let find_or_add t name =
  match find_in t.tables name with
  | tbl -> tbl
  | exception Not_found ->
      let tbl = Int_tbl.create t.rows in
      t.tables <- (name, tbl) :: t.tables;
      tbl

let fold f t acc = List.fold_left (fun acc (name, tbl) -> f name tbl acc) acc t.tables
