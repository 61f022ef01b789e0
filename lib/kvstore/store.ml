type value = Row.value

type mode = Sync_always | Sync_explicit

(* Undo log for the volatile write buffer: each record captures the state
   of one key *before* the first buffered operation that touched it, so
   replaying the journal newest-first rewinds the store to exactly its
   state at the last sync point. *)
type undo =
  | Mutated of Row.t * (int * value) list  (* row existed: restore versions *)
  | Created of string  (* row did not exist: remove it *)
  | Deleted of string * Row.t * (int * value) list  (* row removed: re-insert *)

type t = {
  rows : (string, Row.t) Hashtbl.t;
  mode : mode;
  mutable journal : undo list;  (* newest first; empty in Sync_always *)
  mutable epoch : int;  (* bumped at each sync point (journal dedup) *)
  mutable inflight : Row.t option;  (* most recent buffered row write *)
}

let create ?(mode = Sync_always) () =
  { rows = Hashtbl.create 256; mode; journal = []; epoch = 1; inflight = None }

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

let checksum_body value =
  hex8
    (List.fold_left
       (fun h (k, v) -> if String.equal k checksum_attr then h else feed (feed h k) v)
       0x811c9dc5 value)

let checksum_valid value =
  match Row.attribute value checksum_attr with
  | None -> true (* written in Sync_always mode: no torn-write arm *)
  | Some sum -> String.equal sum (checksum_body value)

let stamp t value =
  match t.mode with
  | Sync_always -> value
  | Sync_explicit ->
      let value = Row.normalize value in
      (checksum_attr, checksum_body value) :: value

(* ------------------------------------------------------------------ *)
(* Journaling. Each key is snapshotted at most once per epoch: rows carry
   the epoch of their last journal entry, so the hot path pays one integer
   compare. [Created]/[Deleted] records need the key (they change the row
   table); [Mutated] records are matched by row handle, which is what lets
   the WAL's handle-based fast path write through the buffer without
   rebuilding key strings. *)

let note_mutation t row =
  if t.mode <> Sync_always && Row.epoch row <> t.epoch then begin
    Row.set_epoch row t.epoch;
    t.journal <- Mutated (row, Row.versions row) :: t.journal
  end

let find_row t key = Hashtbl.find_opt t.rows key

let find_or_create_row t key =
  match Hashtbl.find_opt t.rows key with
  | Some row -> row
  | None ->
      let row = Row.create () in
      if t.mode <> Sync_always then begin
        Row.set_epoch row t.epoch;
        t.journal <- Created key :: t.journal
      end;
      Hashtbl.replace t.rows key row;
      row

let row_handle t ~key = find_row t key

let row t ~key = find_or_create_row t key

let read t ~key ?timestamp () =
  match find_row t key with
  | None -> None
  | Some row -> Row.read row ?timestamp ()

(* Retention. A timestamped write is an MVCC data version and joins the
   row's history, which [read ~timestamp] serves. An auto-stamped write is
   a register update (WAL metadata and log rows, acceptor state, claims,
   quarantine): every reader wants the newest version, so it replaces the
   history. [Sync_explicit] keeps one predecessor, the version a damaged
   newest one scrubs back to; older versions are unreachable, since the
   undo journal holds its own snapshot of the row. When the row holds
   only the predecessor its list is reused, so the write allocates what a
   prepend does. *)
let replace t row value =
  let value = Row.normalize value in
  match Row.versions row with
  | [] ->
      Row.restore row [ (1, value) ];
      1
  | ((ts, _) as prev) :: older as versions ->
      let ts = ts + 1 in
      Row.restore row
        (match t.mode with
        | Sync_always -> [ (ts, value) ]
        | Sync_explicit ->
            (ts, value) :: (match older with [] -> versions | _ -> [ prev ]));
      ts

let put t row ?timestamp value =
  match timestamp with
  | None -> Ok (replace t row value)
  | Some timestamp -> Row.write row ~timestamp value

(* Write through a row handle: the same per-row atomic write as {!write},
   used by the WAL fast path. *)
let write_row t row ?timestamp value =
  if t.mode = Sync_always then put t row ?timestamp value
  else begin
    note_mutation t row;
    let result = put t row ?timestamp (stamp t value) in
    (match result with Ok _ -> t.inflight <- Some row | Error `Stale -> ());
    result
  end

let write t ~key ?timestamp value =
  write_row t (find_or_create_row t key) ?timestamp value

let check_and_write t ~key ~test_attribute ~test_value value =
  let current =
    match find_row t key with
    | None -> None
    | Some row -> (
        match Row.latest row with
        | None -> None
        | Some (_, v) -> Row.attribute v test_attribute)
  in
  if current = test_value then
    match write t ~key value with Ok _ -> true | Error `Stale -> false
  else false

let attribute t ~key name =
  match read t ~key () with
  | None -> None
  | Some (_, v) -> Row.attribute v name

let delete t ~key =
  (if t.mode <> Sync_always then
     match Hashtbl.find_opt t.rows key with
     | None -> ()
     | Some row ->
         Row.set_epoch row t.epoch;
         t.journal <- Deleted (key, row, Row.versions row) :: t.journal);
  Hashtbl.remove t.rows key

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.rows []

let row_count t = Hashtbl.length t.rows

let reset t =
  Hashtbl.reset t.rows;
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
      | Mutated (row, versions) -> Row.restore row versions
      | Created key -> Hashtbl.remove t.rows key
      | Deleted (key, row, versions) ->
          Row.restore row versions;
          Hashtbl.replace t.rows key row)
    t.journal

(* Tear the in-flight write: its newest version keeps only a prefix of its
   (sorted) attributes. The checksum attribute sorts first, so any
   non-empty strict prefix keeps ["#sum"] while losing body attributes —
   the mismatch is what {!checksum_valid} detects. The prefix length is a
   fixed function of the attribute count, keeping chaos runs a pure
   function of (seed, schedule). *)
let tear row =
  match Row.versions row with
  | [] -> ()
  | (ts, value) :: rest ->
      let n = List.length value in
      if n >= 2 then begin
        let keep = max 1 (n / 2) in
        let torn = List.filteri (fun i _ -> i < keep) value in
        Row.restore row ((ts, torn) :: rest)
      end

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
              match Row.versions row with
              | (ts, value) :: _ -> Some (row, ts, value)
              | [] -> None)
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

let durable_versions t ~key =
  let state =
    ref
      (match Hashtbl.find_opt t.rows key with
      | None -> None
      | Some row -> Some (row, Row.versions row))
  in
  List.iter
    (fun u ->
      match u with
      | Created k when String.equal k key -> state := None
      | Deleted (k, row, versions) when String.equal k key ->
          state := Some (row, versions)
      | Mutated (row, versions) -> (
          match !state with
          | Some (r, _) when r == row -> state := Some (row, versions)
          | _ -> ())
      | Created _ | Deleted _ -> ())
    t.journal;
  match !state with
  | None -> []
  | Some (_, versions) -> List.filter (fun (_, v) -> checksum_valid v) versions

(* ------------------------------------------------------------------ *)
(* Recovery-time scrub: drop checksum-invalid versions of a row, deleting
   the row if nothing survives. Runs right after a crash (empty journal);
   the repair is authoritative — it is not journaled, and becomes durable
   at the recovery scan's closing {!sync}. *)

let scrub t ~key =
  match Hashtbl.find_opt t.rows key with
  | None -> 0
  | Some row ->
      let versions = Row.versions row in
      let valid = List.filter (fun (_, v) -> checksum_valid v) versions in
      let dropped = List.length versions - List.length valid in
      if dropped > 0 then
        if valid = [] then Hashtbl.remove t.rows key
        else Row.restore row valid;
      dropped
