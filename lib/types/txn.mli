(** Transaction-tier value types shared across the stack.

    A committed read/write transaction is summarized by a {!record}: its
    identity, the datacenter of the client that executed it, the keys it
    read (with the log position each read was served at — property (A2))
    and the writes it performed. A write-ahead-log {!entry} is an ordered
    list of such records: basic Paxos always writes singleton lists, while
    Paxos-CP's combination enhancement writes longer ones (§5).

    Everything here is immutable plain data with codecs, so records can be
    shipped in Paxos messages and persisted in the key-value store.

    Every record also carries a precomputed conflict {!footprint} — its
    deduplicated read and write sets as sorted arrays of interned key ids —
    built once at construction. All conflict predicates run on footprints,
    so a validity probe costs a sorted-array intersection instead of
    re-deriving sets with [List.sort_uniq] and [List.mem] scans. *)

type key = string
(** A data item identifier, unique within its transaction group. *)

val reserved_prefix : string
(** ["__2pc/"]: the cross-group commit protocol's marker keys, which no
    client may read or write. *)

val is_reserved : key -> bool

(** Process-global key interner: data-item name -> dense int id. Ids are
    stable for the lifetime of the process but their numeric values depend
    on first-intern order, which is not deterministic under the domain
    pool — use them only for equality and set membership, never to derive
    output (ordering of printed keys, messages, figures).

    The table is sharded 64 ways by key hash; repeat lookups (the hot
    path) read a frozen snapshot without taking any lock, so concurrent
    [make_record] calls on different domains no longer serialize on one
    mutex. Ids come from a single atomic counter, so a key's id is
    globally consistent: footprints built on different domains compare
    correctly. *)
module Intern : sig
  val id : key -> int
  (** The id of [key], interning it on first use. Safe to call from any
      domain concurrently; lock-free when [key] is already in the calling
      stripe's published snapshot. *)

  val name : int -> key option
  (** Reverse lookup; [None] if the id was never assigned. *)

  val count : unit -> int
  (** Number of distinct keys interned so far. *)

  val slow_lookups : unit -> int
  (** Lookups so far that missed their stripe's published snapshot and
      took the stripe lock (first sightings, and keys still pending a
      merge). *)

  val longest_chain : unit -> int
  (** The longest bucket chain in any stripe's published snapshot: the
      worst probe a lock-free lookup can pay. *)
end

type write = { key : key; value : string }
(** One buffered write operation. *)

type footprint = private {
  read_ids : int array;  (** Interned read set, deduped, sorted ascending. *)
  write_ids : int array;  (** Interned write set, deduped, sorted ascending. *)
  read_keys : key array;  (** Read set, deduped, sorted by name. *)
  write_keys : key array;  (** Write set, deduped, sorted by name. *)
}
(** A record's conflict footprint. [private]: obtained only from
    {!make_record}/the codecs, so the arrays are guaranteed consistent
    with the record's [reads]/[writes] — treat them as read-only. *)

type record = {
  txn_id : string;  (** Globally unique transaction identifier. *)
  origin : int;  (** Datacenter of the client that ran the transaction. *)
  read_position : int;  (** Log position all its reads were served at. *)
  reads : key list;  (** Keys read from the datastore (read set). *)
  writes : write list;  (** Buffered writes applied at commit. *)
  fp : footprint;  (** Precomputed conflict footprint (derived data). *)
}

type entry = record list
(** The value decided for one log position: transactions in serialization
    order. Invariant (enforced by combination): no record reads a key
    written by an earlier record of the same entry. *)

(** {1 Construction and accessors} *)

val make_record :
  txn_id:string -> origin:int -> read_position:int ->
  reads:key list -> writes:write list -> record

val footprint : record -> footprint

val read_set : record -> key list
(** Keys read, deduplicated, sorted by name. *)

val write_set : record -> key list
(** Keys written, deduplicated, sorted by name. *)

val read_keys : record -> key array
(** The footprint's read-set array (deduped, sorted by name). Shared, not
    copied: do not mutate. Allocation-free alternative to {!read_set}. *)

val write_keys : record -> key array
(** The footprint's write-set array; same caveats as {!read_keys}. *)

val entry_write_set : entry -> key list
(** Union of the write sets of all records in the entry. *)

val is_read_only : record -> bool

(** {1 Conflict predicates (the heart of Paxos-CP's admission tests)} *)

val reads_from : record -> record -> bool
(** [reads_from t s] iff [t] read some key that [s] wrote — serializing [t]
    after [s] at a later position would give [t] a stale read. A sorted
    intersection probe over the two footprints: O(|reads| + |writes|). *)

val conflicts_with_any : record -> record list -> bool
(** [conflicts_with_any t winners] iff [t] reads a key written by any
    record in [winners] (the promotion admission test, §5). *)

(** A mutable union of write footprints: the running "everything written by
    the prefix" state threaded through incremental combination checks
    instead of rebuilding the union at every probe. *)
module Write_union : sig
  type t

  val create : unit -> t
  val add : t -> record -> unit
  (** Fold the record's write footprint into the union. *)

  val reads_overlap : t -> record -> bool
  (** Whether the record reads any key currently in the union. *)
end

val valid_combination : entry -> bool
(** Checks the combination invariant: no record reads a key written by any
    record preceding it in the list (§5, Combination). One pass threading
    a {!Write_union} through the entry. *)

val mem_entry : txn_id:string -> entry -> bool
(** Whether the entry contains the transaction with the given id. *)

(** {1 Equality, formatting, codecs}

    All ignore the footprint: it is derived data, equal whenever the
    [reads]/[writes] it came from are equal, and rebuilt on decode. *)

val equal_record : record -> record -> bool
val equal_entry : entry -> entry -> bool

val pp_record : Format.formatter -> record -> unit
val pp_entry : Format.formatter -> entry -> unit

val record_codec : record Mdds_codec.Codec.t
val entry_codec : entry Mdds_codec.Codec.t
