(** Dense tables indexed by log position.

    The per-position state a replica keeps — the store's positional row
    families, the WAL's decoded log entries and the acceptor store's
    decoded Paxos state — lives in arrays indexed by position rather than
    in hash tables: one word per position, no key, no bucket and no
    option box per slot. A designated [absent] value marks an empty slot,
    and presence is physical inequality with it, so [absent] must be a
    value no caller ever stores (a block allocated for the purpose).

    The array is allocated on the first {!set}, so an unused table costs
    one small record, and it grows by doubling. Positions lie in
    [\[0, limit)]. *)

type 'a t

val limit : int
(** 2{^22}: the first position no table holds. *)

val create : 'a -> 'a t
(** An empty table whose empty slots hold the given [absent] value. *)

val get : 'a t -> int -> 'a
(** The value at a position, or [absent] (also for a position outside
    the table, negative ones included). *)

val mem : 'a t -> int -> bool

val set : 'a t -> int -> 'a -> unit
(** Bind a position, growing the array as needed. Raises
    [Invalid_argument] for a position outside [\[0, limit)]. *)

val clear : 'a t -> int -> unit
(** Empty a position (a no-op if it is empty already). *)

val live : 'a t -> int
(** The number of bound positions. *)

val reset : 'a t -> unit
(** Empty every position and drop the array. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** The bound positions with their values, ascending. *)

val positions : 'a t -> int list
(** The bound positions, ascending. *)
