(** Hash tables keyed by string, for the per-group and per-key tables of
    the storage and transaction tiers. Keys compare with [String.equal]
    and hash with [Hashtbl.hash], so a table fills its buckets, resizes
    and iterates exactly as a polymorphic [Hashtbl.t] with the same
    bindings would. *)

include Hashtbl.S with type key = string
