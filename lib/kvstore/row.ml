type value = (string * string) list

(* Versions kept as a list sorted by decreasing timestamp; rows have few
   versions relative to accesses and reads want the newest first.
   [epoch] belongs to {!Mdds_kvstore.Store}'s write-buffer journal: it
   marks the last sync epoch in which the row was journaled, so the store
   snapshots each row at most once per epoch with one integer compare. *)
type t = { mutable versions : (int * value) list; mutable epoch : int }

let create () = { versions = []; epoch = 0 }

let epoch t = t.epoch
let set_epoch t e = t.epoch <- e

(* Keys strictly increasing: already normalized. *)
let rec strictly_sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && strictly_sorted rest
  | _ -> true

let normalize value =
  (* Later bindings win: keep the last occurrence of each attribute.
     Writers almost always pass sorted, duplicate-free attributes, which
     one allocation-free pass confirms. Otherwise [Hashtbl.replace] in list
     order leaves exactly the last binding per key, and the final sort
     fixes the order, so this is O(n log n) where the old
     [List.mem]-over-a-growing-seen-list walk was O(n²). *)
  if strictly_sorted value then value
  else begin
    let tbl = Hashtbl.create (List.length value) in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) value;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  end

let latest t = match t.versions with [] -> None | v :: _ -> Some v

let read t ?timestamp () =
  match timestamp with
  | None -> latest t
  | Some ts -> List.find_opt (fun (vts, _) -> vts <= ts) t.versions

let write t ?timestamp value =
  let value = normalize value in
  match timestamp with
  | None ->
      let ts = match t.versions with [] -> 1 | (vts, _) :: _ -> vts + 1 in
      t.versions <- (ts, value) :: t.versions;
      Ok ts
  | Some ts -> (
      match t.versions with
      | (vts, _) :: _ when vts > ts -> Error `Stale
      | (vts, _) :: rest when vts = ts ->
          t.versions <- (ts, value) :: rest;
          Ok ts
      | _ ->
          t.versions <- (ts, value) :: t.versions;
          Ok ts)

let attribute value name = List.assoc_opt name value

let versions t = t.versions

let restore t versions = t.versions <- versions

let version_count t = List.length t.versions
