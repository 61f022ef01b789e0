(** The per-group table idiom every service module shares. *)

val find_or_add : ('k, 'v) Hashtbl.t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add tbl key make] is [key]'s binding, created with
    [make ()] and added on first use. *)
