(** A single multi-versioned row.

    A row value is a set of named attributes (columns), as in BigTable or
    HBase. Each write creates a new version stamped with a logical
    timestamp; in the transaction tier, the timestamp of a data write is
    the log position of the committing transaction (§3.2). Versions are
    totally ordered by timestamp and never overwritten. *)

type value
(** One version's attributes as a single immutable flat block: names and
    values alternate ([k0; v0; k1; v1; ...]), sorted by name, one binding
    per name. It costs two words per attribute plus a one-word header,
    where a [(string * string) list] pays six (a cons cell and a pair).
    A block is built by {!of_list} from an attribute list or by
    {!of_array} from an array already in order; only {!bindings} turns
    one back into a list. *)

type chain = Nil | Version of { ts : int; value : value; next : chain }
(** A row's versions, newest first: one immutable node per version.
    Immutability makes a chain its own snapshot, which is how
    {!Mdds_kvstore.Store}'s write-buffer journal records a row's state
    before a buffered write. *)

type t

val create : unit -> t
(** An empty row (no versions). *)

val normalize : (string * string) list -> (string * string) list
(** Sort attributes and drop duplicate names (last binding wins). *)

val of_list : (string * string) list -> value
(** The block of a {!normalize}d attribute list. *)

val of_array : string array -> value
(** An array of alternating names and values, names strictly increasing,
    as the block itself: no copy, so the caller hands it over and must
    not touch it again. Raises [Invalid_argument] on an odd length or a
    name out of order. *)

val prepend : string -> string -> value -> value
(** [prepend name v value] is [of_list ((name, v) :: bindings value)]:
    a binding of [name] already in [value] wins. When [name] sorts
    before every name in [value] it copies the block once and builds no
    list. *)

val attribute : value -> string -> string option
(** Look up one attribute. Scans the block and allocates only the
    answer. *)

val length : value -> int
(** The number of attributes. *)

val prefix : value -> int -> value
(** The first [n] attributes, whole name/value pairs. *)

val fold : (string -> string -> 'a -> 'a) -> value -> 'a -> 'a
(** [fold f value init] folds [f name value] over the attributes in
    order. *)

val bindings : value -> (string * string) list
(** The attributes as a list, in order (for tests and the few readers
    that want every attribute). *)

val chain : t -> chain
(** The whole chain; its head is the most recent version. *)

val at : t -> int -> chain
(** The chain from the most recent version with timestamp ≤ the given
    one ([Nil] if none). Allocates nothing, unlike {!read}. *)

val latest : t -> (int * value) option
(** Most recent version with its timestamp. *)

val read : t -> ?timestamp:int -> unit -> (int * value) option
(** Most recent version with timestamp ≤ [timestamp] (latest if omitted). *)

val stale : t -> int -> bool
(** [stale t ts]: a version with a timestamp strictly greater than [ts]
    exists, so {!write} refuses [ts]. *)

val write : t -> ?timestamp:int -> value -> (int, [ `Stale ]) result
(** Append a version. With an explicit [timestamp], fails with [`Stale] if a
    version with a strictly greater timestamp exists (the key-value-store
    contract of §2.2). Without one, stamps [latest + 1]. Writing the same
    timestamp twice overwrites that version (idempotent re-apply of a log
    entry). Returns the timestamp used. *)

val versions : t -> (int * value) list
(** All versions, newest first, as a list (for debugging and tests). *)

val restore : t -> chain -> unit
(** Replace the whole version chain. Only {!Mdds_kvstore.Store} (and
    tests forging damage) may call this: its crash/recovery machinery
    rewinds a row to a previously captured {!chain}, and its
    auto-stamped writes replace a register row's history. *)

(**/**)

val epoch : t -> int
val set_epoch : t -> int -> unit
(** Sync-epoch mark for {!Mdds_kvstore.Store}'s write-buffer journal;
    not for general use. *)

(**/**)

val version_count : t -> int
