(** Per-datacenter multi-version key-value store.

    Implements exactly the three-operation contract the paper requires of
    the underlying store (§2.2): atomic per-row [read], [write] and
    [check_and_write]. The transaction tier builds everything else —
    write-ahead log, Paxos acceptor state, data versions — on top of these.

    Atomicity note: within the simulator each operation runs without
    interleaving (processes only yield at blocking points), which models
    the per-row atomicity of HBase/BigTable.

    {b Durability model.} The store has a write-buffer/sync-point layer:
    in [Sync_explicit] mode, writes land in a volatile buffer (they are
    visible to reads immediately, like an OS page cache) and become
    durable only when {!sync} is called — the transaction tier syncs
    where the paper requires durability: after acceptor writes and WAL
    appends, while data-row applies remain lazy. {!crash} models losing
    power: with [~lose_unsynced:true] the buffer is discarded (the store
    rewinds to its state at the last sync point) and the torn arm
    additionally persists only a prefix of the attributes of the
    in-flight row write. Every version written in [Sync_explicit] mode
    carries a checksum attribute so torn writes are detectable on read
    ({!checksum_valid}, {!scrub}). The default mode [Sync_always] makes
    the whole layer a no-op — every write is durable as it lands, exactly
    the pre-existing behaviour, so ordinary experiments are unaffected.

    {b Retention.} A row is one of two kinds, by how it is written.
    - A {e versioned} row takes timestamped writes ([~timestamp]): the
      WAL's data applies and snapshot installs. Every version is kept, so
      [read ~timestamp] serves any snapshot (§3.2).
    - A {e register} row takes auto-stamped writes (no [~timestamp]): WAL
      metadata and log rows, acceptor state, claims, the catch-up
      quarantine. Every reader wants its newest version, so a write
      replaces the row's history instead of growing it. In [Sync_always]
      the row keeps only the new version. In [Sync_explicit] it also keeps
      the version it replaced: that predecessor is what a damaged newest
      version scrubs back to ({!scrub}). Older versions are unreachable —
      a dirty crash rewinds to the write buffer's own snapshot of the row,
      not to the row's history — so they are dropped.

    HBase bounds cell versions per column family the same way. *)

type t

type value = Row.value

type mode = Sync_always | Sync_explicit

val create : ?mode:mode -> unit -> t
(** Default mode is [Sync_always]. *)

val mode : t -> mode

val read : t -> key:string -> ?timestamp:int -> unit -> (int * value) option
(** Most recent version of the row with timestamp ≤ [timestamp] (latest if
    omitted); [None] if the row does not exist or has no such version. *)

val write : t -> key:string -> ?timestamp:int -> value -> (int, [ `Stale ]) result
(** Create a new version of the row (see {!Row.write}). Without
    [timestamp] the version is stamped [latest + 1] and replaces the
    row's history (see {e Retention} above). *)

val check_and_write :
  t ->
  key:string ->
  test_attribute:string ->
  test_value:string option ->
  value ->
  bool
(** Atomic conditional write: if the latest version's [test_attribute]
    equals [test_value] ([None] means "attribute absent or row missing"),
    write [value] as a new auto-stamped version and return [true];
    otherwise return [false] and write nothing. This is the primitive that
    lets stateless service processes update Paxos state safely
    (Algorithm 1, lines 9 and 18). The write is auto-stamped, so it
    replaces the row's history as {!write} does. *)

val attribute : t -> key:string -> string -> string option
(** Latest version's attribute, if any. Allocates only the answer, unlike
    {!read}. *)

(** {1 Row handles (fast path)}

    A row handle is a stable reference to a row's version chain: reads and
    writes through it are the same per-row atomic operations as
    {!read}/{!write}, minus the key hash on every access. The write-through
    caches of the transaction tier ({!Mdds_wal.Wal}'s data index) hold
    handles so hot-path reads skip both key construction and the store
    lookup. A handle stays valid until the row is {!delete}d or the store
    is {!reset}; holders that cache handles must invalidate with the same
    events that delete rows. *)

val row_handle : t -> key:string -> Row.t option
(** The row's handle, if the row exists. *)

val row : t -> key:string -> Row.t
(** The row's handle, creating an empty row (no versions) if absent. *)

val write_row :
  t -> Row.t -> ?timestamp:int -> value -> (int, [ `Stale ]) result
(** {!write} through a row handle obtained from {!row}/{!row_handle} of
    this store: same per-row atomic semantics, same buffer journaling and
    checksum stamping, minus the key hash. The WAL's data-apply fast path
    uses this so lazy applies still flow through the write buffer. *)

val delete : t -> key:string -> unit
(** Drop a row and all its versions (used by log compaction). *)

val keys : ?prefix:string -> t -> string list
(** The keys of the named rows starting with [prefix] (default: every
    key), unordered. Family rows have no key and are not listed. *)

val family_prefixes : t -> string list
(** The prefixes of the opened families that hold at least one row.
    With {!keys}, this names every row of the store. *)

val row_count : t -> int

val reset : t -> unit
(** Drop all rows (simulates a datacenter losing and re-provisioning its
    store; used by recovery tests). Family handles stay valid, with
    every position empty. *)

(** {1 Positional row families}

    The transaction tier keeps one row per log position and group for
    its log entries, acceptor state and leadership claims. A {e family}
    holds such rows in {!Slots} indexed by position: no key string, no
    hash-table bucket, and an access that neither builds nor hashes a
    key.

    Named rows and family rows are two disjoint namespaces:
    - A string key always names a named row. ["log/g/7"] is an ordinary
      named row, even beside an opened family ["log/g/"], and position 7
      of that family is a different row that only the handle reaches.
    - A family starts empty. Opening it adopts nothing.
    - Every positional operation behaves as its string-key counterpart
      does on a named row: retention, the write buffer's journal, dirty
      and torn crashes, {!scrub} and {!durable_versions}. {!row_count}
      counts family rows; {!keys} does not list them.

    Positional calls raise [Invalid_argument] for a position outside
    [0, 2{^22}). *)

type family

val family : t -> prefix:string -> family
(** The family of [prefix] (which must end in ['/']), opened empty on
    first use and the same handle afterwards. It stays valid across
    {!reset}. *)

val read_at : family -> int -> (int * value) option
(** The latest version at a position ({!read} without [timestamp]). *)

val attribute_at : family -> int -> string -> string option
(** {!attribute} at a position. *)

val write_at : family -> int -> value -> unit
(** An auto-stamped {!write} at a position. *)

val check_and_write_at :
  family ->
  int ->
  test_attribute:string ->
  test_value:string option ->
  value ->
  bool
(** {!check_and_write} at a position. *)

val delete_at : family -> int -> unit
(** {!delete} at a position. *)

val positions : family -> int list
(** The positions that hold a row, ascending. *)

val row_handle_at : family -> int -> Row.t option
(** {!row_handle} at a position. *)

(** {1 Sync points and crashes (crash-consistency model)} *)

val sync : t -> unit
(** Make every buffered write durable (an [fsync] of the whole store).
    No-op in [Sync_always] mode, where writes are durable as they land. *)

val unsynced : t -> int
(** Length of the write buffer's undo journal. A row adds one record
    for its first write after a sync point (its creation, if it is new)
    and one for each deletion, so a row written and then deleted before
    the next sync point counts twice. Always 0 in [Sync_always] mode. *)

val crash : ?torn:bool -> t -> lose_unsynced:bool -> unit
(** Power-loss at the storage level. With [~lose_unsynced:true] the store
    rewinds to its state at the last {!sync}; with [~torn:true] the most
    recent buffered row write additionally persists a strict prefix of
    its attributes (its checksum no longer matches — a {e torn} write,
    detectable by {!scrub}). With [~lose_unsynced:false] the buffer
    survives, as when the OS flushed before the process died. No-op in
    [Sync_always] mode. Callers restart the service process afterwards;
    the recovery scan must run before the store is trusted again. *)

(** {1 Checksums and recovery} *)

val checksum_valid : value -> bool
(** A version value's checksum attribute matches its attributes (values
    without a checksum — written in [Sync_always] mode — are valid). *)

val scrub : t -> key:string -> int
(** Recovery-time repair: drop every checksum-invalid version of the row
    (deleting the row if nothing survives) and return how many versions
    were dropped. The caller syncs once its scan completes. *)

val durable_versions : t -> key:string -> (int * value) list
(** The versions a [crash ~lose_unsynced:true] would leave for this key:
    the write buffer rolled back, checksum-invalid versions dropped,
    newest first. Mutates nothing (the {!Mdds_wal.Wal.durable_coherent}
    oracle). The journal records each row's {!Row.chain} as it stood, so
    only this answer is built as a list. *)

val scrub_at : family -> int -> int
(** {!scrub} at a position. *)

val durable_versions_at : family -> int -> (int * value) list
(** {!durable_versions} at a position. *)
