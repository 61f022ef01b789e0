(** Binary min-heap, specialized as the simulator's event queue.

    Elements are ordered by a [float] primary key (simulated time) with an
    [int] tiebreaker (insertion sequence number), so that events scheduled
    for the same instant fire in FIFO order — the property that makes the
    whole simulation deterministic.

    Storage is struct-of-arrays with unboxed times: [push] and [pop] never
    allocate (short of growing the arrays), and no slot past the live
    prefix retains a popped item. *)

type 'a t

val create : filler:'a -> unit -> 'a t
(** An empty heap; allocates nothing until the first [push]. [filler] is
    the value vacated slots are reset to, so the heap never keeps a popped
    item alive. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert an element with the given priority key. *)

val min_time : 'a t -> float
(** Time of the minimum element. Raises [Invalid_argument] if empty. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element. Raises [Invalid_argument] if
    empty. *)

val pop : 'a t -> 'a
(** Remove the minimum element and return its item. Raises
    [Invalid_argument] if empty. *)

val clear : 'a t -> unit
