(* Names and values alternate: [| k0; v0; k1; v1; ... |]. Never mutated
   once built, so chains and journal snapshots may share blocks. *)
type value = string array

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

(* Top-level loops over the block: a local closure would be allocated
   per call. *)
let rec fill block i = function
  | [] -> block
  | (k, v) :: rest ->
      Array.unsafe_set block i k;
      Array.unsafe_set block (i + 1) v;
      fill block (i + 2) rest

let of_list attrs =
  let attrs = normalize attrs in
  fill (Array.make (2 * List.length attrs) "") 0 attrs

let rec sorted_from value i =
  i + 2 >= Array.length value
  || String.compare (Array.unsafe_get value i) (Array.unsafe_get value (i + 2)) < 0
     && sorted_from value (i + 2)

let rec bindings_to value i acc =
  if i < 0 then acc else bindings_to value (i - 2) ((value.(i), value.(i + 1)) :: acc)

let bindings value = bindings_to value (Array.length value - 2) []

let of_array value =
  if Array.length value land 1 = 1 || not (sorted_from value 0) then
    invalid_arg "Row.of_array: not name/value pairs with increasing names";
  value

let prepend name v value =
  let n = Array.length value in
  if n = 0 || String.compare name (Array.unsafe_get value 0) < 0 then begin
    let block = Array.make (n + 2) name in
    Array.unsafe_set block 1 v;
    Array.blit value 0 block 2 n;
    block
  end
  else of_list ((name, v) :: bindings value)

let rec scan value name i =
  if i >= Array.length value then None
  else if String.equal (Array.unsafe_get value i) name then
    Some (Array.unsafe_get value (i + 1))
  else scan value name (i + 2)

let attribute value name = scan value name 0

let length value = Array.length value / 2

let prefix value n = Array.sub value 0 (2 * n)

let rec fold_from f value i acc =
  if i >= Array.length value then acc
  else
    fold_from f value (i + 2)
      (f (Array.unsafe_get value i) (Array.unsafe_get value (i + 1)) acc)

let fold f value init = fold_from f value 0 init

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

let rec to_list = function
  | Nil -> []
  | Version v -> (v.ts, v.value) :: to_list v.next

let versions t = to_list t.chain

let restore t chain = t.chain <- chain

let version_count t =
  let rec count n = function Nil -> n | Version v -> count (n + 1) v.next in
  count 0 t.chain
