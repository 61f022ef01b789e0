(* Hash tables keyed by string: [String.equal] instead of the polymorphic
   [compare_val], and the polymorphic table's hash, so a table fills its
   buckets, resizes and iterates exactly as a [Hashtbl.t] with the same
   bindings would. *)
include Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)
