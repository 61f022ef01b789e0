module Codec = Mdds_codec.Codec

type key = string

let reserved_prefix = "__2pc/"

(* [String.starts_with] less its closure: this runs on every client read
   and write and on every record the WAL applies. *)
let rec reserved_from key i =
  i = String.length reserved_prefix
  || (key.[i] = reserved_prefix.[i] && reserved_from key (i + 1))

let is_reserved key =
  String.length key >= String.length reserved_prefix && reserved_from key 0

type write = { key : key; value : string }

(* ------------------------------------------------------------------ *)
(* Key interning: data-item names -> dense int ids.

   Conflict predicates are the hottest pure computation in the stack
   (combination admission, promotion admission, the committed-state check,
   the 1SR oracle), and every one of them is ultimately a set operation
   over key names. Interning each distinct key once turns those string
   comparisons into int comparisons over small sorted arrays.

   The table is process-global and *sharded*: records are built on
   whatever domain runs the trial (the harness fans trials out over
   domains), and a footprint must mean the same thing on every domain
   that can observe the record, so ids come from one global atomic counter
   — dense, unique, identical on every domain. The original single
   mutex-protected table serialized every concurrent [make_record]; keys
   now hash to one of 64 stripes, and each stripe serves repeat lookups
   (the overwhelmingly common case — key universes are small and hot)
   from a *frozen snapshot* table read without any lock: the snapshot
   hashtable is never mutated after its pointer is published through an
   [Atomic], so concurrent readers race with nobody. Misses fall back to
   the stripe's small mutex-protected pending table; when the pending
   table reaches a quarter of the snapshot (plus one) it is merged into a
   fresh snapshot and republished (geometric, so total copying is O(K)
   over K keys). A fixed floor on that threshold would keep small key
   universes, which spread a few keys over each stripe, on the locked
   path forever.

   Ids are assigned in first-intern order, so they are not deterministic
   across runs — nothing may ever derive *output* from an id, only set
   membership and equality, which are assignment-independent. Key-name
   iteration happens over the footprint's own sorted string arrays, never
   via reverse lookup, for the same reason. *)
module Intern = struct
  let stripe_count = 64 (* power of two *)

  type stripe = {
    mutex : Mutex.t;
    snapshot : (string, int) Hashtbl.t Atomic.t;
        (* Frozen: never mutated once published. Lock-free read path. *)
    mutable pending : (string, int) Hashtbl.t;  (* under [mutex] *)
  }

  let stripes =
    Array.init stripe_count (fun _ ->
        {
          mutex = Mutex.create ();
          snapshot = Atomic.make (Hashtbl.create 1);
          pending = Hashtbl.create 8;
        })

  let next = Atomic.make 0

  (* Lookups that missed the snapshot and took a stripe lock. *)
  let slow = Atomic.make 0

  (* Reverse table for [name]: ids are dense, so an array, grown under its
     own mutex. Never on the hot path — [name] is diagnostics only. *)
  let names_mutex = Mutex.create ()
  let names : string array ref = ref (Array.make 1024 "")

  let record_name id key =
    Mutex.lock names_mutex;
    if id >= Array.length !names then begin
      let grown = Array.make (max (2 * Array.length !names) (id + 1)) "" in
      Array.blit !names 0 grown 0 (Array.length !names);
      names := grown
    end;
    !names.(id) <- key;
    Mutex.unlock names_mutex

  (* The stripe comes from the hash's high bits: each stripe's tables pick
     their buckets from the low bits of the same hash, so a stripe chosen
     by the low bits would fill only 1/64 of its buckets. *)
  let stripe_of key =
    stripes.((Hashtbl.hash key lsr 24) land (stripe_count - 1))

  let id_slow s key =
    Atomic.incr slow;
    Mutex.lock s.mutex;
    let r =
      match Hashtbl.find_opt s.pending key with
      | Some id -> id
      | None -> (
          (* Re-probe the snapshot under the lock: a merge may have moved
             the key out of pending while we waited. *)
          match Hashtbl.find_opt (Atomic.get s.snapshot) key with
          | Some id -> id
          | None ->
              let id = Atomic.fetch_and_add next 1 in
              Hashtbl.replace s.pending key id;
              record_name id key;
              let snap = Atomic.get s.snapshot in
              if Hashtbl.length s.pending >= 1 + (Hashtbl.length snap / 4)
              then begin
                let merged =
                  Hashtbl.create
                    (2 * (Hashtbl.length snap + Hashtbl.length s.pending))
                in
                Hashtbl.iter (Hashtbl.replace merged) snap;
                Hashtbl.iter (Hashtbl.replace merged) s.pending;
                Atomic.set s.snapshot merged;
                s.pending <- Hashtbl.create 8
              end;
              id)
    in
    Mutex.unlock s.mutex;
    r

  let id key =
    let s = stripe_of key in
    match Hashtbl.find_opt (Atomic.get s.snapshot) key with
    | Some id -> id
    | None -> id_slow s key

  let ids_of_list keys = List.map id keys

  let name id =
    Mutex.lock names_mutex;
    let r =
      if id >= 0 && id < Array.length !names && !names.(id) <> "" then
        Some !names.(id)
      else None
    in
    Mutex.unlock names_mutex;
    r

  let count () = Atomic.get next
  let slow_lookups () = Atomic.get slow

  let longest_chain () =
    Array.fold_left
      (fun acc s ->
        max acc (Hashtbl.stats (Atomic.get s.snapshot)).Hashtbl.max_bucket_length)
      0 stripes
end

(* ------------------------------------------------------------------ *)
(* Conflict footprints: the record's read and write sets, deduplicated
   once at construction, carried both as sorted interned-id arrays (for
   the predicates) and as string arrays sorted by name (so [read_set] and
   every message that names a key keeps the exact pre-footprint order). *)

type footprint = {
  read_ids : int array;  (* deduped, sorted ascending *)
  write_ids : int array;  (* deduped, sorted ascending *)
  read_keys : key array;  (* deduped, sorted by name *)
  write_keys : key array;  (* deduped, sorted by name *)
}

let sorted_ids_of_keys keys =
  let ids = Intern.ids_of_list keys in
  let arr = Array.of_list (List.sort_uniq Int.compare ids) in
  arr

let footprint_of ~reads ~write_keys:wkeys =
  let read_keys = Array.of_list (List.sort_uniq String.compare reads) in
  let write_keys = Array.of_list (List.sort_uniq String.compare wkeys) in
  {
    read_ids = sorted_ids_of_keys reads;
    write_ids = sorted_ids_of_keys wkeys;
    read_keys;
    write_keys;
  }

(* Sorted-array intersection test: O(|a| + |b|). *)
let arrays_intersect (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la || j >= lb then false
    else
      let d = compare a.(i) b.(j) in
      if d = 0 then true else if d < 0 then go (i + 1) j else go i (j + 1)
  in
  go 0 0

type record = {
  txn_id : string;
  origin : int;
  read_position : int;
  reads : key list;
  writes : write list;
  fp : footprint;
}

type entry = record list

let make_record ~txn_id ~origin ~read_position ~reads ~writes =
  let fp =
    footprint_of ~reads ~write_keys:(List.map (fun w -> w.key) writes)
  in
  { txn_id; origin; read_position; reads; writes; fp }

let dedup keys = List.sort_uniq String.compare keys

let footprint r = r.fp
let read_set r = Array.to_list r.fp.read_keys
let write_set r = Array.to_list r.fp.write_keys
let read_keys r = r.fp.read_keys
let write_keys r = r.fp.write_keys

let entry_write_set e = dedup (List.concat_map write_set e)

let is_read_only r = r.writes = []

let reads_from t s = arrays_intersect t.fp.read_ids s.fp.write_ids

let conflicts_with_any t winners = List.exists (reads_from t) winners

(* A mutable union of write footprints, for threading through a prefix of
   an entry instead of rebuilding the union per probe. *)
module Write_union = struct
  type t = (int, unit) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let add t (r : record) = Array.iter (fun id -> Hashtbl.replace t id ()) r.fp.write_ids
  let reads_overlap t (r : record) = Array.exists (Hashtbl.mem t) r.fp.read_ids
end

let valid_combination entry =
  match entry with
  | [] | [ _ ] -> true
  | first :: rest ->
      let preceding = Write_union.create () in
      Write_union.add preceding first;
      let rec go = function
        | [] -> true
        | r :: rest ->
            (not (Write_union.reads_overlap preceding r))
            && begin
                 Write_union.add preceding r;
                 go rest
               end
      in
      go rest

let mem_entry ~txn_id entry = List.exists (fun r -> r.txn_id = txn_id) entry

let equal_write a b = String.equal a.key b.key && String.equal a.value b.value

(* The footprint is derived data: two records with equal reads/writes have
   equal footprints, so equality (and the codec below) ignore it. Replicas
   that learned an entry from the same message hold the same value, so
   physical equality answers most comparisons at once. *)
let equal_record a b =
  a == b
  || String.equal a.txn_id b.txn_id
     && Int.equal a.origin b.origin
     && Int.equal a.read_position b.read_position
     && List.equal String.equal a.reads b.reads
     && List.equal equal_write a.writes b.writes

let equal_entry a b = a == b || List.equal equal_record a b

let pp_write ppf w = Format.fprintf ppf "%s:=%S" w.key w.value

let pp_record ppf r =
  Format.fprintf ppf "@[<h>{%s@@dc%d rp=%d r=[%a] w=[%a]}@]" r.txn_id r.origin
    r.read_position
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") Format.pp_print_string)
    r.reads
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") pp_write)
    r.writes

let pp_entry ppf e =
  Format.fprintf ppf "@[<h>[%a]@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_record)
    e

let write_codec =
  Codec.map
    (fun (key, value) -> { key; value })
    (fun { key; value } -> (key, value))
    Codec.(pair string string)

let record_codec =
  Codec.map
    (fun ((txn_id, origin), (read_position, reads, writes)) ->
      make_record ~txn_id ~origin ~read_position ~reads ~writes)
    (fun { txn_id; origin; read_position; reads; writes; fp = _ } ->
      ((txn_id, origin), (read_position, reads, writes)))
    Codec.(pair (pair string int) (triple int (list string) (list write_codec)))

let entry_codec = Codec.list record_codec
