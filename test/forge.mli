(** Storage damage forged behind the store's back, shared by the suites
    that test crash recovery. *)

val mangle_checksum : Mdds_kvstore.Row.t -> unit
(** Rewrite the row's latest version with a checksum that cannot match
    its body, as a disk sector going bad would: the change bypasses the
    write buffer, so callers that cache decoded rows must invalidate.
    Fails the test if the row has no version. *)

val family_row : Mdds_kvstore.Store.t -> prefix:string -> int -> Mdds_kvstore.Row.t
(** The row at [pos] of the family [prefix], through the handle
    {!Mdds_kvstore.Store.family} returns (the one the WAL and the acceptor
    store opened). Fails the test if the position holds no row. *)
