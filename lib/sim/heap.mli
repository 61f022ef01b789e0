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

val due : 'a t -> float -> bool
(** [due t time]: [t] is not empty and its minimum is due by [time]. *)

val precedes : 'a t -> 'b t -> bool
(** [precedes a b]: [a] is not empty, and its minimum orders before [b]'s
    (or [b] is empty). *)

val top : 'a t -> 'a
(** Item of the minimum element, left in place. Raises [Invalid_argument]
    if empty. *)

val pop : 'a t -> 'a
(** Remove the minimum element and return its item. Raises
    [Invalid_argument] if empty. *)

val filter : 'a t -> ('a -> bool) -> float
(** [filter t keep] removes, in place, every entry whose item fails
    [keep], and returns the latest time among the removed entries
    ([neg_infinity] if none). The surviving entries pop in the same
    [(time, seq)] order as before. O([length t]). *)
