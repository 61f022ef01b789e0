type value = (string * string) list

(* Versions newest first, one immutable four-word node per version.
   Rows have few versions relative to accesses and reads want the newest
   first. Being immutable, a chain is its own snapshot: the store's
   write-buffer journal keeps the chain a row had, not a copy.
   [epoch] belongs to that journal: it marks the last sync epoch in
   which the row was journaled, so the store snapshots each row at most
   once per epoch with one integer compare. *)
type chain = Nil | Version of { ts : int; value : value; next : chain }

type t = { mutable chain : chain; mutable epoch : int }

let create () = { chain = Nil; epoch = 0 }

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

let chain t = t.chain

let rec find chain timestamp =
  match chain with
  | Nil -> Nil
  | Version v -> if v.ts <= timestamp then chain else find v.next timestamp

let at t timestamp = find t.chain timestamp

let pair = function Nil -> None | Version v -> Some (v.ts, v.value)

let latest t = pair t.chain

let read t ?timestamp () =
  match timestamp with None -> latest t | Some ts -> pair (at t ts)

let write t ?timestamp value =
  let value = normalize value in
  match timestamp with
  | None ->
      let ts = match t.chain with Nil -> 1 | Version v -> v.ts + 1 in
      t.chain <- Version { ts; value; next = t.chain };
      Ok ts
  | Some ts -> (
      match t.chain with
      | Version v when v.ts > ts -> Error `Stale
      | Version v when v.ts = ts ->
          t.chain <- Version { ts; value; next = v.next };
          Ok ts
      | _ ->
          t.chain <- Version { ts; value; next = t.chain };
          Ok ts)

let attribute value name = List.assoc_opt name value

let rec to_list = function
  | Nil -> []
  | Version v -> (v.ts, v.value) :: to_list v.next

let versions t = to_list t.chain

let restore t chain = t.chain <- chain

let version_count t =
  let rec count n = function Nil -> n | Version v -> count (n + 1) v.next in
  count 0 t.chain
