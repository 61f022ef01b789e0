module Txn = Mdds_types.Txn

type violation = {
  txn_id : string;
  position : int;
  message : string;
  property : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "txn %s at position %d: %s" v.txn_id v.position v.message

let violation property txn_id position fmt =
  Printf.ksprintf (fun message -> { txn_id; position; message; property }) fmt

(* ------------------------------------------------------------------ *)
(* (L1)/(L2): where each transaction is logged.                         *)

type positions = (string, int) Hashtbl.t

let positions log =
  let seen = Hashtbl.create 256 in
  let rec go = function
    | [] -> Ok seen
    | (pos, entry) :: rest ->
        let rec records = function
          | [] -> go rest
          | (r : Txn.record) :: more -> (
              match Hashtbl.find_opt seen r.txn_id with
              | Some first ->
                  Error
                    (violation "L2" r.txn_id pos
                       "also appears at position %d (L2 violation)" first)
              | None ->
                  Hashtbl.add seen r.txn_id pos;
                  records more)
        in
        records entry
  in
  go log

let committed_at positions ~txn_id ~pos =
  match Hashtbl.find_opt positions txn_id with
  | None ->
      Error
        (violation "L1" txn_id pos "reported committed but absent from the log (L1)")
  | Some p when p <> pos ->
      Error
        (violation "L1" txn_id pos "reported committed at %d but logged at %d" pos p)
  | Some _ -> Ok ()

let aborted positions ~txn_id =
  match Hashtbl.find_opt positions txn_id with
  | Some p ->
      Error (violation "L1" txn_id p "reported aborted but present in the log (L1)")
  | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* (L3), replay and read-only: one walk in serial order.                *)

(* A key's last write in serial order: its position, writer and value. *)
type cell = {
  mutable wpos : int;
  mutable writer : string;
  mutable value : string;
}

let show = function None -> "<none>" | Some v -> Printf.sprintf "%S" v

let check_log ?(observed = fun _ -> None) ?(readers = []) log =
  let cells : (Txn.key, cell) Hashtbl.t = Hashtbl.create 256 in
  let current key =
    match Hashtbl.find_opt cells key with Some c -> Some c.value | None -> None
  in
  let mismatch pairs =
    List.find_opt (fun (key, seen) -> current key <> seen) pairs
  in
  (* Checked before any record at a later position applies. *)
  let readers =
    ref (List.stable_sort (fun (_, a, _) (_, b, _) -> Int.compare a b) readers)
  in
  let replay_found = ref None and read_only_found = ref None in
  let rec check_readers upto =
    match !readers with
    | (txn_id, rp, pairs) :: rest when rp < upto ->
        readers := rest;
        (if Option.is_none !read_only_found then
           match mismatch pairs with
           | None -> ()
           | Some (key, seen) ->
               read_only_found :=
                 Some
                   (violation "read-only" txn_id rp
                      "read-only txn read %s = %s but position %d holds %s" key
                      (show seen) rp (show (current key))));
        check_readers upto
    | _ -> ()
  in
  let write pos (r : Txn.record) (w : Txn.write) =
    match Hashtbl.find_opt cells w.key with
    | Some c ->
        c.wpos <- pos;
        c.writer <- r.txn_id;
        c.value <- w.value
    | None ->
        Hashtbl.add cells w.key { wpos = pos; writer = r.txn_id; value = w.value }
  in
  (* The first of [keys] from [i] on written after [rp]. *)
  let rec stale keys rp i =
    if i = Array.length keys then None
    else
      match Hashtbl.find cells keys.(i) with
      | c when c.wpos > rp -> Some (keys.(i), c)
      | _ | (exception Not_found) -> stale keys rp (i + 1)
  in
  (* A record must see no write to its read set after its read position
     (the footprint's sorted read keys, so the first stale key found is
     always the same one), and must have observed the values the serial
     execution holds at this point. *)
  let rec entries = function
    | [] -> None
    | (pos, entry) :: rest ->
        check_readers pos;
        let rec records = function
          | [] -> entries rest
          | (r : Txn.record) :: more -> (
              match stale (Txn.read_keys r) r.read_position 0 with
              | Some (key, c) ->
                  Some
                    (violation "L3" r.txn_id pos
                       "stale read of %s: wrote at position %d by %s, read \
                        position %d"
                       key c.wpos c.writer r.read_position)
              | None ->
                  (if Option.is_none !replay_found then
                     match observed r.txn_id with
                     | None -> ()
                     | Some pairs -> (
                         match mismatch pairs with
                         | None -> ()
                         | Some (key, seen) ->
                             replay_found :=
                               Some
                                 (violation "replay" r.txn_id pos
                                    "read %s = %s but the serial execution \
                                     holds %s"
                                    key (show seen) (show (current key)))));
                  List.iter (write pos r) r.writes;
                  records more)
        in
        records entry
  in
  match entries log with
  | Some v -> Error v
  | None -> (
      check_readers max_int;
      match (!replay_found, !read_only_found) with
      | Some v, _ | None, Some v -> Error v
      | None, None -> Ok ())
