module Store = Mdds_kvstore.Store
module Row = Mdds_kvstore.Row
module Slots = Mdds_kvstore.Slots
module Strtbl = Mdds_kvstore.Strtbl
module Txn = Mdds_types.Txn
module Codec = Mdds_codec.Codec

(* The durable representation — encoded rows in the key-value store — is
   the sole source of truth; everything in [group_cache] is a volatile,
   write-through decoded view of it. Every mutation writes the store first
   and then updates the cache, so at any instant the cache equals a fresh
   decode of the store ([coherence] below checks exactly that, and the
   chaos engine checks it after every fault event). [invalidate] drops the
   whole view (a process restart); it is rebuilt lazily from the store. *)
type group_cache = {
  name : string;
  log : Store.family;  (* rows "log/<group>/<pos>", by position *)
  data_prefix : string;  (* "data/<group>/" *)
  meta_key : string;  (* "logmeta/<group>" *)
  entries : Txn.entry Slots.t;  (* decoded log entries by position *)
  txids : int list Strtbl.t;
      (* Transaction id -> the positions in [entries] whose entry holds
         it, so replay detection need not scan the log. Only the leader's
         replay check reads it, so it is built on a group's first
         {!logged_at} and kept write-through from then on. *)
  mutable txids_indexed : bool;  (* [txids] covers every cached entry *)
  mutable contiguous : int;
      (* Watermark: every position in [compacted+1 .. contiguous] is known
         present (decoded in [entries]), so gap scans start after it
         instead of re-probing from position 1. Always >= [compacted]. *)
  mutable last : int;
  mutable applied : int;
  mutable compacted : int;
  mutable meta_loaded : bool;  (* the three ints mirror the store *)
  data_rows : Row.t Strtbl.t;  (* data key -> store row handle *)
  mutable data_indexed : bool;
      (* [data_rows] holds *every* data key of the group, so snapshots and
         negative lookups need not scan [Store.keys]. *)
}

type t = {
  store : Store.t;
  groups : group_cache Strtbl.t;
  mutable recent : group_cache option;
      (* The group resolved last: most accesses repeat it, and the check
         costs one string compare instead of a hash. *)
}

let create store = { store; groups = Strtbl.create 4; recent = None }
let store t = t.store

(* The empty slot of [entries]: a block no decode returns. *)
let absent : Txn.entry =
  [ Txn.make_record ~txn_id:"" ~origin:(-1) ~read_position:0 ~reads:[] ~writes:[] ]

let cache t ~group =
  match t.recent with
  | Some c when String.equal c.name group -> c
  | _ ->
      let c =
        match Strtbl.find_opt t.groups group with
        | Some c -> c
        | None ->
            let c =
              {
                name = group;
                log = Store.family t.store ~prefix:("log/" ^ group ^ "/");
                data_prefix = "data/" ^ group ^ "/";
                meta_key = "logmeta/" ^ group;
                entries = Slots.create absent;
                txids = Strtbl.create 64;
                txids_indexed = false;
                contiguous = 0;
                last = 0;
                applied = 0;
                compacted = 0;
                meta_loaded = false;
                data_rows = Strtbl.create 64;
                data_indexed = false;
              }
            in
            Strtbl.replace t.groups group c;
            c
      in
      t.recent <- Some c;
      c

let invalidate t =
  Strtbl.reset t.groups;
  t.recent <- None

let meta_attr t c name =
  match Store.attribute t.store ~key:c.meta_key name with
  | None -> 0
  | Some s -> int_of_string s

let load_meta t c =
  if not c.meta_loaded then begin
    c.last <- meta_attr t c "last";
    c.applied <- meta_attr t c "applied";
    c.compacted <- meta_attr t c "compacted";
    if c.contiguous < c.compacted then c.contiguous <- c.compacted;
    c.meta_loaded <- true
  end

let flush_meta t c =
  match
    Store.write_row t.store
      (Store.row t.store ~key:c.meta_key)
      (* Sorted by name, so the array is the stored block. *)
      (Row.of_array
         [|
           "applied"; string_of_int c.applied;
           "compacted"; string_of_int c.compacted;
           "last"; string_of_int c.last;
         |])
  with
  | Ok _ -> ()
  | Error `Stale -> assert false (* auto-stamped writes cannot be stale *)

(* Presence discovered through the cache advances the gap-scan watermark. *)
let rec advance c =
  if Slots.mem c.entries (c.contiguous + 1) then begin
    c.contiguous <- c.contiguous + 1;
    advance c
  end

let held c txn_id = Option.value (Strtbl.find_opt c.txids txn_id) ~default:[]

let index_entry c pos e =
  List.iter
    (fun (r : Txn.record) ->
      let held = held c r.Txn.txn_id in
      if not (List.mem pos held) then
        Strtbl.replace c.txids r.Txn.txn_id (pos :: held))
    e

(* Every change to [entries] goes through these two, which keep the
   transaction id index, once built, in step with it. *)
let cache_entry c pos e =
  Slots.set c.entries pos e;
  if c.txids_indexed then index_entry c pos e;
  advance c

let uncache_entry c pos =
  let e = Slots.get c.entries pos in
  if e != absent then begin
    Slots.clear c.entries pos;
    if c.txids_indexed then
      List.iter
        (fun (r : Txn.record) ->
          match List.filter (fun p -> p <> pos) (held c r.Txn.txn_id) with
          | [] -> Strtbl.remove c.txids r.Txn.txn_id
          | rest -> Strtbl.replace c.txids r.Txn.txn_id rest)
        e
  end

let ensure_txids c =
  if not c.txids_indexed then begin
    Slots.iter (index_entry c) c.entries;
    c.txids_indexed <- true
  end

(* The durable entry at a position, decoded; [absent] if none. *)
let decode_at c pos =
  match Store.attribute_at c.log pos "entry" with
  | None -> absent
  | Some encoded -> Codec.decode_exn Txn.entry_codec encoded

(* The entry at a position, decoded and cached on first sight; [absent]
   if the log holds none. *)
let find c pos =
  let e = Slots.get c.entries pos in
  if e != absent then e
  else
    let e = decode_at c pos in
    if e != absent then cache_entry c pos e;
    e

let entry t ~group ~pos =
  let e = find (cache t ~group) pos in
  if e == absent then None else Some e

let append t ~group ~pos ?encoded e =
  let c = cache t ~group in
  load_meta t c;
  let existing = find c pos in
  if existing == absent then begin
    let encoded =
      match encoded with
      | Some bytes -> bytes
      | None -> Codec.encode Txn.entry_codec e
    in
    Store.write_at c.log pos (Row.of_array [| "entry"; encoded |]);
    cache_entry c pos e
  end
  else if not (Txn.equal_entry existing e) then
    failwith
      (Printf.sprintf
         "Wal.append: conflicting entry for %s position %d (R1 violation)"
         group pos);
  (* else a duplicate apply: idempotent *)
  if pos > c.last then begin
    c.last <- pos;
    flush_meta t c
  end;
  (* Log entries are where the paper requires durability (L1): a decided
     entry must survive any crash, so the append is a sync point. *)
  Store.sync t.store

let last_position t ~group =
  let c = cache t ~group in
  load_meta t c;
  c.last

let first_gap t ~group ~upto =
  let c = cache t ~group in
  load_meta t c;
  let rec go pos =
    if pos > upto then None
    else if pos > c.compacted && pos <= c.contiguous then
      (* Known-present prefix: skip to the first unknown position. *)
      go (c.contiguous + 1)
    else if find c pos == absent then Some pos
    else go (pos + 1)
  in
  go 1

(* Lowest position in [max from (compacted+1) .. upto] holding [txn_id],
   exactly what a position-by-position scan would return, with the same
   store probes. Everything up to [contiguous] is cached, so the index
   answers for it; above it an uncached position may still hold the id,
   so those below the index's answer are probed in order. *)
let logged_at t ~group ~txn_id ~from ~upto =
  let c = cache t ~group in
  load_meta t c;
  ensure_txids c;
  let from = max from (c.compacted + 1) in
  let indexed =
    List.fold_left
      (fun best pos ->
        if pos >= from && pos <= upto && pos < best then pos else best)
      (upto + 1) (held c txn_id)
  in
  let rec probe pos =
    if pos >= indexed then None
    else if Slots.mem c.entries pos then probe (pos + 1)
    else
      let e = find c pos in
      if e != absent && Txn.mem_entry ~txn_id e then Some pos
      else probe (pos + 1)
  in
  match probe (max from (c.contiguous + 1)) with
  | Some _ as hit -> hit
  | None -> if indexed <= upto then Some indexed else None

let applied_position t ~group =
  let c = cache t ~group in
  load_meta t c;
  c.applied

let compacted_position t ~group =
  let c = cache t ~group in
  load_meta t c;
  c.compacted

(* Write path for data rows: resolves (and indexes) the row handle, so the
   per-write cost is one small-hashtable probe instead of key sprintf +
   store lookup. *)
let data_row t c key =
  match Strtbl.find_opt c.data_rows key with
  | Some row -> row
  | None ->
      let row = Store.row t.store ~key:(c.data_prefix ^ key) in
      Strtbl.replace c.data_rows key row;
      row

(* Read path: must not create rows for absent keys. Once the group is
   fully indexed, negative lookups are answered from the index alone. *)
let find_data_row t c key =
  match Strtbl.find_opt c.data_rows key with
  | Some _ as hit -> hit
  | None ->
      if c.data_indexed then None
      else (
        match Store.row_handle t.store ~key:(c.data_prefix ^ key) with
        | Some row ->
            Strtbl.replace c.data_rows key row;
            Some row
        | None -> None)

let ensure_data_index t c =
  if not c.data_indexed then begin
    let n = String.length c.data_prefix in
    List.iter
      (fun key ->
        let data_key = String.sub key n (String.length key - n) in
        if not (Strtbl.mem c.data_rows data_key) then
          match Store.row_handle t.store ~key with
          | Some row -> Strtbl.replace c.data_rows data_key row
          | None -> ())
      (Store.keys ~prefix:c.data_prefix t.store);
    c.data_indexed <- true
  end

(* Multi-shot commit markers (keys under {!Txn.reserved_prefix}) are
   write-once: the first record in log order to write a given marker
   applies in full; any later record carrying the same marker (a racing
   resolver's duplicate outcome or decision) is skipped *entirely*, real
   writes included, so apply stays all-or-nothing per record. Log order is
   identical on every replica and under {!recover}'s replay, so all
   copies agree on which record applied. *)
let marker_applied t c (record : Txn.record) =
  List.exists
    (fun (w : Txn.write) ->
      Txn.is_reserved w.Txn.key
      &&
      match find_data_row t c w.Txn.key with
      | Some row -> Row.chain row != Row.Nil
      | None -> false)
    record.Txn.writes

(* Data-row applies are lazy: they go through the store's write buffer
   (so a dirty crash can lose them) and are re-derived from the log by
   {!recover} — the log entry, not the data row, is the durable truth. *)
let apply_entry t c ~pos e =
  List.iter
    (fun (record : Txn.record) ->
      if marker_applied t c record then ()
      else
      List.iter
        (fun (w : Txn.write) ->
          match
            Store.write_row t.store (data_row t c w.key) ~timestamp:pos
              (Row.of_array [| "v"; w.value |])
          with
          | Ok _ -> ()
          | Error `Stale ->
              (* A higher-versioned write exists: this entry was already
                 applied past this point; per-position overwrite keeps the
                 operation idempotent, stale means a *later* position wrote
                 the key, which only happens on re-apply. Safe to skip. *)
              ())
        record.writes)
    e

let apply t ~group ~upto =
  let c = cache t ~group in
  load_meta t c;
  let rec go pos =
    if pos > upto then Ok ()
    else
      let e = find c pos in
      if e == absent then Error (`Gap pos)
      else begin
        apply_entry t c ~pos e;
        c.applied <- pos;
        go (pos + 1)
      end
  in
  let from = max c.applied c.compacted + 1 in
  let result = go from in
  if c.applied >= from then flush_meta t c;
  result

(* Advance the apply watermark as far as contiguity allows and report it.
   The throughput-mode batcher calls this between pipelined proposals: a
   gap is expected there (one of its own in-flight positions, or a rival's
   out-of-order apply) and must not trigger the learner — learning one of
   our own undecided positions would have this manager racing itself. *)
let apply_available t ~group =
  (match apply t ~group ~upto:(last_position t ~group) with
  | Ok () | Error (`Gap _) -> ());
  applied_position t ~group

let compact t ~group ~upto =
  let c = cache t ~group in
  load_meta t c;
  if upto > c.applied then Error `Not_applied
  else begin
    for pos = c.compacted + 1 to upto do
      Store.delete_at c.log pos;
      uncache_entry c pos
    done;
    if upto > c.compacted then begin
      c.compacted <- upto;
      if c.contiguous < c.compacted then c.contiguous <- c.compacted;
      flush_meta t c
    end;
    (* Compaction discards the only durable source of the applied prefix,
       so the data rows it checkpoints into must be durable first. *)
    Store.sync t.store;
    Ok ()
  end

let snapshot t ~group =
  let c = cache t ~group in
  load_meta t c;
  ensure_data_index t c;
  let rows =
    Strtbl.fold
      (fun data_key row acc ->
        match Row.chain row with
        | Row.Version v -> (
            match Row.attribute v.value "v" with
            | Some value -> (data_key, v.ts, value) :: acc
            | None -> acc)
        | Row.Nil -> acc)
      c.data_rows []
  in
  (c.applied, rows)

let install_snapshot t ~group ~applied rows =
  let c = cache t ~group in
  load_meta t c;
  List.iter
    (fun (key, version, value) ->
      match
        Store.write_row t.store (data_row t c key) ~timestamp:version
          (Row.of_array [| "v"; value |])
      with
      | Ok _ | Error `Stale -> () (* local state already newer: keep it *))
    rows;
  if applied > c.applied || applied > c.compacted || applied > c.last then begin
    if applied > c.applied then c.applied <- applied;
    if applied > c.compacted then begin
      c.compacted <- applied;
      if c.contiguous < c.compacted then c.contiguous <- c.compacted
    end;
    if applied > c.last then c.last <- applied;
    flush_meta t c
  end;
  (* The snapshot replaces log entries this replica can never learn: it
     must not be lost to a crash, so installation is a sync point. *)
  Store.sync t.store

let read_data t ~group ~key ~at =
  let c = cache t ~group in
  match find_data_row t c key with
  | None -> None
  | Some row -> (
      match Row.at row at with
      | Row.Nil -> None
      | Row.Version v -> Row.attribute v.value "v")

let data_version t ~group ~key ~at =
  let c = cache t ~group in
  match find_data_row t c key with
  | None -> None
  | Some row -> (
      match Row.at row at with Row.Nil -> None | Row.Version v -> Some v.ts)

let dump t ~group =
  let c = cache t ~group in
  load_meta t c;
  let rec go pos acc =
    if pos < 1 then acc
    else
      let e = find c pos in
      if e == absent then go (pos - 1) acc else go (pos - 1) ((pos, e) :: acc)
  in
  go c.last []

(* ------------------------------------------------------------------ *)
(* Cache-coherence oracle: cache = decode(durable store).               *)

exception Incoherent of string

let coherence t ~group =
  match Strtbl.find_opt t.groups group with
  | None -> Ok () (* no cached view: trivially coherent *)
  | Some c -> (
      let fail fmt =
        Printf.ksprintf (fun m -> raise (Incoherent ("wal/" ^ group ^ ": " ^ m))) fmt
      in
      try
        if c.meta_loaded then begin
          let check name cached =
            let stored = meta_attr t c name in
            if stored <> cached then
              fail "meta %s: cached %d, store %d" name cached stored
          in
          check "last" c.last;
          check "applied" c.applied;
          check "compacted" c.compacted
        end;
        if c.contiguous < c.compacted then
          fail "contiguous %d below compacted %d" c.contiguous c.compacted;
        for pos = c.compacted + 1 to c.contiguous do
          if not (Slots.mem c.entries pos) then
            fail "position %d inside the contiguous watermark is not cached" pos
        done;
        Slots.iter
          (fun pos cached ->
            let stored = decode_at c pos in
            if stored == absent then fail "cached entry at %d has no durable row" pos
            else if not (Txn.equal_entry cached stored) then
              fail "cached entry at %d differs from durable decode" pos)
          c.entries;
        if c.txids_indexed then begin
        Slots.iter
          (fun pos cached ->
            List.iter
              (fun (r : Txn.record) ->
                if not (List.mem pos (held c r.Txn.txn_id)) then
                  fail "txid %s at cached position %d is not indexed"
                    r.Txn.txn_id pos)
              cached)
          c.entries;
        Strtbl.iter
          (fun txn_id positions ->
            if positions = [] then fail "txid %s indexed at no position" txn_id;
            List.iter
              (fun pos ->
                let e = Slots.get c.entries pos in
                if e == absent then
                  fail "txid %s indexed at uncached position %d" txn_id pos
                else if not (Txn.mem_entry ~txn_id e) then
                  fail "txid %s indexed at %d, not in its entry" txn_id pos)
              positions)
          c.txids
        end;
        Strtbl.iter
          (fun data_key row ->
            match Store.row_handle t.store ~key:(c.data_prefix ^ data_key) with
            | Some stored when stored == row -> ()
            | Some _ -> fail "data index for %s aliases a replaced row" data_key
            | None -> fail "data index for %s has no durable row" data_key)
          c.data_rows;
        if c.data_indexed then begin
          let n = String.length c.data_prefix in
          List.iter
            (fun key ->
              let data_key = String.sub key n (String.length key - n) in
              if not (Strtbl.mem c.data_rows data_key) then
                fail "durable data row %s missing from the index" data_key)
            (Store.keys ~prefix:c.data_prefix t.store)
        end;
        Ok ()
      with Incoherent msg -> Error msg)

let coherent t =
  Strtbl.fold
    (fun group _ acc ->
      match acc with Ok () -> coherence t ~group | Error _ -> acc)
    t.groups (Ok ())

(* ------------------------------------------------------------------ *)
(* Durable-coherence oracle: the decoded view never claims an entry the
   durable store cannot re-produce. "Durable" is what a dirty crash would
   leave: the write buffer rolled back and checksum-invalid versions
   dropped ([Store.durable_versions]). Every cached log entry, and the
   cached [last]/[compacted] watermarks, must be re-derivable from that
   state — [applied] is exempt because data applies are lazy by design
   and re-derived from the log on recovery. *)

let durable_coherent t ~group =
  match Strtbl.find_opt t.groups group with
  | None -> Ok ()
  | Some c -> (
      let fail fmt =
        Printf.ksprintf
          (fun m -> raise (Incoherent ("wal-durable/" ^ group ^ ": " ^ m)))
          fmt
      in
      try
        if c.meta_loaded then begin
          let durable = Store.durable_versions t.store ~key:c.meta_key in
          let attr name =
            match durable with
            | [] -> 0
            | (_, v) :: _ -> (
                match Row.attribute v name with
                | None -> 0
                | Some s -> int_of_string s)
          in
          if attr "last" <> c.last then
            fail "meta last: cached %d, durable %d" c.last (attr "last");
          if attr "compacted" <> c.compacted then
            fail "meta compacted: cached %d, durable %d" c.compacted
              (attr "compacted")
        end;
        Slots.iter
          (fun pos cached ->
            let durable = Store.durable_versions_at c.log pos in
            let reproducible =
              List.exists
                (fun (_, v) ->
                  match Row.attribute v "entry" with
                  | None -> false
                  | Some encoded ->
                      Txn.equal_entry cached
                        (Codec.decode_exn Txn.entry_codec encoded))
                durable
            in
            if not reproducible then
              fail "entry at %d is not re-producible from durable state" pos)
          c.entries;
        Ok ()
      with Incoherent msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Crash-recovery scan (PROTOCOL §7, step 0): scrub checksum-invalid
   versions from the group's rows, re-derive the watermarks from what
   survived, truncate the decoded view to the longest valid durable
   prefix, and re-apply it to the data rows (lazy applies may have been
   lost with the write buffer; the log is the durable truth they are
   re-derived from). Runs on the post-crash store, before the service
   serves anything for the group. *)

type recovery = {
  scrubbed : int;  (* checksum-invalid versions dropped *)
  truncated : int option;
      (* First position the durable log cannot produce, if the log
         claimed (or still holds entries past) such a position. *)
  reapplied : int;  (* entries re-applied to the data rows *)
}

let recover t ~group =
  (* Decode from scratch: recovery must trust nothing volatile. *)
  Strtbl.remove t.groups group;
  t.recent <- None;
  let c = cache t ~group in
  let scrubbed = ref (Store.scrub t.store ~key:c.meta_key) in
  let scrub key = scrubbed := !scrubbed + Store.scrub t.store ~key in
  List.iter scrub (Store.keys ~prefix:c.data_prefix t.store);
  List.iter
    (fun pos -> scrubbed := !scrubbed + Store.scrub_at c.log pos)
    (Store.positions c.log);
  load_meta t c;
  let claimed = c.last in
  (* [last] re-derived from the surviving entries: a torn meta row may
     over- or under-state it. *)
  let last = List.fold_left max c.compacted (Store.positions c.log) in
  c.last <- last;
  (* Longest valid durable prefix, and the lazy data state re-derived
     from it (idempotent per-position overwrites). The surviving applied
     watermark is a safe starting point, not just a hint: every sync
     flushes the whole write buffer, so the meta version that survived
     the crash was flushed together with the data rows it counts — the
     replay only has to cover what was applied after the last sync. In
     [Sync_always] mode that makes the scan a no-op. *)
  c.applied <- max c.compacted (min c.applied last);
  let reapplied = ref 0 in
  let rec go pos =
    if pos <= last then
      let e = find c pos in
      if e != absent then begin
        apply_entry t c ~pos e;
        c.applied <- pos;
        incr reapplied;
        go (pos + 1)
      end
  in
  go (c.applied + 1);
  flush_meta t c;
  (* Recovery's repairs are themselves durable from here on. *)
  Store.sync t.store;
  let truncated =
    if c.applied < max last claimed then Some (c.applied + 1) else None
  in
  { scrubbed = !scrubbed; truncated; reapplied = !reapplied }
