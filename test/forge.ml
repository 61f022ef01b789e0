module Row = Mdds_kvstore.Row
module Store = Mdds_kvstore.Store

let mangle_checksum row =
  match Row.chain row with
  | Row.Version v ->
      Row.restore row
        (Row.Version
           { v with value = ("#sum", "00000000") :: List.remove_assoc "#sum" v.value })
  | Row.Nil -> Alcotest.fail "no versions to mangle"

let family_row store ~prefix pos =
  match Store.row_handle_at (Store.family store ~prefix) pos with
  | Some row -> row
  | None -> Alcotest.failf "no row at %s%d" prefix pos
