type value = Row.value

type mode = Sync_always | Sync_explicit

(* Named rows: one table keyed by the full key. *)
module Rows = Strtbl

(* A positional row family: rows kept in slots indexed by position — no
   key string and no bucket per row. [absent] marks an empty slot. *)
type family = { owner : t; prefix : string; slots : Row.t Slots.t }

(* Where a row lives, as the undo journal records it. *)
and loc = Key of string | Slot of family * int

(* Undo log for the volatile write buffer: each record captures the state
   of one row *before* the first buffered operation that touched it, so
   replaying the journal newest-first rewinds the store to exactly its
   state at the last sync point. *)
and undo =
  | Mutated of Row.t * Row.chain  (* row existed: restore its chain *)
  | Created of loc  (* row did not exist: remove it *)
  | Deleted of loc * Row.t * Row.chain  (* row removed: re-insert *)

and t = {
  rows : Row.t Rows.t;  (* every row outside a family *)
  mutable families : family list;  (* a few per group *)
  mode : mode;
  mutable journal : undo list;  (* newest first; empty in Sync_always *)
  mutable epoch : int;  (* bumped at each sync point (journal dedup) *)
  mutable inflight : Row.t option;  (* most recent buffered row write *)
}

let create ?(mode = Sync_always) () =
  {
    rows = Rows.create 256;
    families = [];
    mode;
    journal = [];
    epoch = 1;
    inflight = None;
  }

let mode t = t.mode

(* ------------------------------------------------------------------ *)
(* Checksums. Every version written in [Sync_explicit] mode carries a
   ["#sum"] attribute — an FNV-1a digest of the other attributes — so a
   torn write (a version that persisted only a prefix of its attributes)
   is detectable on read. '#' sorts before every attribute name the
   transaction tier uses, so ["#sum"] is always the first attribute of a
   normalized value and survives in any non-empty torn prefix. *)

let checksum_attr = "#sum"

(* FNV-1a (32-bit constants) over [s], then a sentinel byte so ("ab","c")
   and ("a","bc") digest differently. *)
let feed h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xffffffff
  done;
  (!h lxor 0xff) * 0x01000193 land 0xffffffff

let hex_digits = "0123456789abcdef"

(* The 32-bit digest as 8 lowercase hex digits, as [%08x] prints it. *)
let hex8 h =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set b i hex_digits.[(h lsr (28 - (4 * i))) land 0xf]
  done;
  Bytes.unsafe_to_string b

let digest k v h = if String.equal k checksum_attr then h else feed (feed h k) v
let checksum_body value = hex8 (Row.fold digest value 0x811c9dc5)

let checksum_valid value =
  match Row.attribute value checksum_attr with
  | None -> true (* written in Sync_always mode: no torn-write arm *)
  | Some sum -> String.equal sum (checksum_body value)

(* The block a write stores: in [Sync_explicit], a copy with the
   checksum in front. *)
let stamp t value =
  match t.mode with
  | Sync_always -> value
  | Sync_explicit ->
      Row.prepend checksum_attr (checksum_body value) value

(* ------------------------------------------------------------------ *)
(* Row families. A family's rows live only in its slots: a string key
   always names a row of [rows], whatever it spells. *)

(* One row stands for every empty slot; it is never written nor handed
   out. *)
let absent = Row.create ()

let checked pos =
  if pos < 0 || pos >= Slots.limit then
    invalid_arg (Printf.sprintf "Store: family position %d out of range" pos);
  pos

let slot f pos = Slots.get f.slots pos

(* The named row [key], [absent] if none. *)
let lookup t key =
  match Rows.find_opt t.rows key with Some row -> row | None -> absent

let insert t loc row =
  match loc with
  | Key key -> Rows.replace t.rows key row
  | Slot (f, pos) -> Slots.set f.slots pos row

let remove t loc =
  match loc with
  | Key key -> Rows.remove t.rows key
  | Slot (f, pos) -> Slots.clear f.slots pos

let family t ~prefix =
  match List.find_opt (fun f -> String.equal f.prefix prefix) t.families with
  | Some f -> f
  | None ->
      let n = String.length prefix in
      if n = 0 || prefix.[n - 1] <> '/' then
        invalid_arg ("Store.family: prefix " ^ prefix ^ " does not end in '/'");
      let f = { owner = t; prefix; slots = Slots.create absent } in
      t.families <- f :: t.families;
      f

(* ------------------------------------------------------------------ *)
(* Journaling. Each row is snapshotted at most once per epoch: rows carry
   the epoch of their last journal entry, so the hot path pays one integer
   compare. [Created]/[Deleted] records name the row's location (they
   change the row table or a family slot); [Mutated] records are matched
   by row handle, which is what lets the WAL's handle-based fast path
   write through the buffer without rebuilding key strings. *)

let note_mutation t row =
  if t.mode <> Sync_always && Row.epoch row <> t.epoch then begin
    Row.set_epoch row t.epoch;
    t.journal <- Mutated (row, Row.chain row) :: t.journal
  end

(* A new, empty row at [loc]. *)
let create_row t loc =
  let row = Row.create () in
  if t.mode <> Sync_always then begin
    Row.set_epoch row t.epoch;
    t.journal <- Created loc :: t.journal
  end;
  insert t loc row;
  row

let handle row = if row == absent then None else Some row
let row_handle t ~key = handle (lookup t key)
let row_handle_at f pos = handle (slot f (checked pos))

let row t ~key =
  let row = lookup t key in
  if row != absent then row else create_row t (Key key)

let row_at f pos =
  let row = slot f pos in
  if row != absent then row else create_row f.owner (Slot (f, pos))

let read t ~key ?timestamp () =
  let row = lookup t key in
  if row == absent then None else Row.read row ?timestamp ()

let read_at f pos =
  let row = slot f (checked pos) in
  if row == absent then None else Row.latest row

let latest_attribute row name =
  match Row.chain row with
  | Row.Nil -> None
  | Row.Version v -> Row.attribute v.value name

let attribute t ~key name = latest_attribute (lookup t key) name
let attribute_at f pos name = latest_attribute (slot f (checked pos)) name

(* Retention. A timestamped write is an MVCC data version and joins the
   row's history, which [read ~timestamp] serves. An auto-stamped write is
   a register update (WAL metadata and log rows, acceptor state, claims,
   quarantine): every reader wants the newest version, so it replaces the
   history. [Sync_explicit] keeps one predecessor, the version a damaged
   newest one scrubs back to; older versions are unreachable, since the
   undo journal holds its own snapshot of the row. When the row holds
   only the predecessor its node is reused, so the write allocates one
   node. *)
let replace t row value =
  match Row.chain row with
  | Row.Nil ->
      Row.restore row (Row.Version { ts = 1; value; next = Row.Nil });
      1
  | Row.Version prev as chain ->
      let ts = prev.ts + 1 in
      let next =
        match (t.mode, prev.next) with
        | Sync_always, _ -> Row.Nil
        | Sync_explicit, Row.Nil -> chain
        | Sync_explicit, Row.Version _ -> Row.Version { prev with next = Row.Nil }
      in
      Row.restore row (Row.Version { ts; value; next });
      ts

let put t row ?timestamp value =
  match timestamp with
  | None -> Ok (replace t row value)
  | Some timestamp -> Row.write row ~timestamp value

(* Write through a row handle: the same per-row atomic write as {!write},
   used by the WAL fast path. A stale write is refused before the row is
   journaled, so it leaves no undo record for a dirty crash to replay. *)
let write_row t row ?timestamp value =
  if t.mode = Sync_always then put t row ?timestamp value
  else
    match timestamp with
    | Some ts when Row.stale row ts -> Error `Stale
    | _ ->
        note_mutation t row;
        let result = put t row ?timestamp (stamp t value) in
        t.inflight <- Some row;
        result

let write t ~key ?timestamp attrs =
  write_row t (row t ~key) ?timestamp (Row.of_list attrs)

let write_at f pos value =
  match write_row f.owner (row_at f (checked pos)) value with
  | Ok _ -> ()
  | Error `Stale -> assert false (* auto-stamped writes cannot be stale *)

let check_and_write t ~key ~test_attribute ~test_value attrs =
  Option.equal String.equal
    (latest_attribute (lookup t key) test_attribute)
    test_value
  && match write t ~key attrs with Ok _ -> true | Error `Stale -> false

let check_and_write_at f pos ~test_attribute ~test_value value =
  Option.equal String.equal
    (latest_attribute (slot f (checked pos)) test_attribute)
    test_value
  && (write_at f pos value; true)

let forget t loc row =
  if t.mode <> Sync_always then begin
    Row.set_epoch row t.epoch;
    t.journal <- Deleted (loc, row, Row.chain row) :: t.journal
  end;
  remove t loc

let delete t ~key =
  let row = lookup t key in
  if row != absent then forget t (Key key) row

let delete_at f pos =
  let row = slot f (checked pos) in
  if row != absent then forget f.owner (Slot (f, pos)) row

let positions f = Slots.positions f.slots

let keys ?(prefix = "") t =
  Rows.fold
    (fun key _ acc -> if String.starts_with ~prefix key then key :: acc else acc)
    t.rows []

let family_prefixes t =
  List.filter_map
    (fun f -> if Slots.live f.slots > 0 then Some f.prefix else None)
    t.families

let row_count t =
  List.fold_left (fun n f -> n + Slots.live f.slots) (Rows.length t.rows) t.families

let reset t =
  Rows.reset t.rows;
  List.iter (fun f -> Slots.reset f.slots) t.families;
  t.journal <- [];
  t.inflight <- None;
  t.epoch <- t.epoch + 1

(* ------------------------------------------------------------------ *)
(* Sync points and crashes.                                            *)

let sync t =
  if t.mode <> Sync_always then begin
    t.journal <- [];
    t.inflight <- None;
    t.epoch <- t.epoch + 1
  end

let unsynced t = List.length t.journal

(* Rewind to the state at the last sync point: replay the undo journal
   newest-first. *)
let rollback t =
  List.iter
    (function
      | Mutated (row, chain) -> Row.restore row chain
      | Created loc -> remove t loc
      | Deleted (loc, row, chain) ->
          Row.restore row chain;
          insert t loc row)
    t.journal

(* Tear the in-flight write: its newest version keeps only a prefix of its
   (sorted) attributes. The checksum attribute sorts first, so any
   non-empty strict prefix keeps ["#sum"] while losing body attributes —
   the mismatch is what {!checksum_valid} detects. The prefix length is a
   fixed function of the attribute count, keeping chaos runs a pure
   function of (seed, schedule). *)
let tear row =
  match Row.chain row with
  | Row.Nil -> ()
  | Row.Version v ->
      let n = Row.length v.value in
      if n >= 2 then
        Row.restore row (Row.Version { v with value = Row.prefix v.value (max 1 (n / 2)) })

let crash ?(torn = false) t ~lose_unsynced =
  if t.mode <> Sync_always then begin
    let inflight = t.inflight in
    if lose_unsynced then begin
      (* The torn victim is the most recent buffered write: record what it
         would have written, rewind, then persist the torn prefix. *)
      let victim =
        if not torn then None
        else
          match inflight with
          | None -> None
          | Some row -> (
              match Row.chain row with
              | Row.Version v -> Some (row, v.ts, v.value)
              | Row.Nil -> None)
      in
      rollback t;
      match victim with
      | None -> ()
      | Some (row, ts, value) -> (
          (* Re-write the in-flight version (as the disk controller did,
             mid-flush), then truncate it to a prefix. Rows rolled back to
             absent stay absent — their key is gone from the table, which
             models the row write itself never reaching the disk. *)
          match Row.write row ~timestamp:ts value with
          | Ok _ -> tear row
          | Error `Stale -> ())
    end;
    t.journal <- [];
    t.inflight <- None;
    t.epoch <- t.epoch + 1
  end

(* ------------------------------------------------------------------ *)
(* Durable view: what a [crash ~lose_unsynced:true] would leave for one
   key — the journal rolled back, checksum-invalid versions dropped. Used
   by the {!Mdds_wal.Wal.durable_coherent} oracle; mutates nothing. *)

let same_loc a b =
  match (a, b) with
  | Key x, Key y -> String.equal x y
  | Slot (f, p), Slot (g, q) -> f == g && p = q
  | Key _, Slot _ | Slot _, Key _ -> false

(* The checksum-valid versions of a chain, as a list. *)
let rec valid_versions = function
  | Row.Nil -> []
  | Row.Version v ->
      if checksum_valid v.value then (v.ts, v.value) :: valid_versions v.next
      else valid_versions v.next

let durable_versions_of t loc row =
  let state = ref (if row == absent then None else Some (row, Row.chain row)) in
  List.iter
    (fun u ->
      match u with
      | Created l when same_loc l loc -> state := None
      | Deleted (l, row, chain) when same_loc l loc -> state := Some (row, chain)
      | Mutated (row, chain) -> (
          match !state with
          | Some (r, _) when r == row -> state := Some (row, chain)
          | _ -> ())
      | Created _ | Deleted _ -> ())
    t.journal;
  match !state with None -> [] | Some (_, chain) -> valid_versions chain

let durable_versions t ~key =
  durable_versions_of t (Key key) (lookup t key)

let durable_versions_at f pos =
  durable_versions_of f.owner (Slot (f, checked pos)) (slot f pos)

(* ------------------------------------------------------------------ *)
(* Recovery-time scrub: drop checksum-invalid versions of a row, deleting
   the row if nothing survives. Runs right after a crash (empty journal);
   the repair is authoritative — it is not journaled, and becomes durable
   at the recovery scan's closing {!sync}. *)

let rec count_invalid n = function
  | Row.Nil -> n
  | Row.Version v -> count_invalid (if checksum_valid v.value then n else n + 1) v.next

let rec keep_valid = function
  | Row.Nil -> Row.Nil
  | Row.Version v ->
      if checksum_valid v.value then Row.Version { v with next = keep_valid v.next }
      else keep_valid v.next

let scrub_row t loc row =
  if row == absent then 0
  else
    let dropped = count_invalid 0 (Row.chain row) in
    if dropped > 0 then begin
      match keep_valid (Row.chain row) with
      | Row.Nil -> remove t loc
      | valid -> Row.restore row valid
    end;
    dropped

let scrub t ~key = scrub_row t (Key key) (lookup t key)

let scrub_at f pos = scrub_row f.owner (Slot (f, checked pos)) (slot f pos)
