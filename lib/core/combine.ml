module Txn = Mdds_types.Txn

(* Distinct records by txn id, first-seen order, excluding [own] — the one
   dedup pass shared by [candidates_of_votes] and [best]. *)
let distinct_candidates ~(own : Txn.record) records =
  let seen = Hashtbl.create 8 in
  Hashtbl.replace seen own.Txn.txn_id ();
  List.filter
    (fun (r : Txn.record) ->
      if Hashtbl.mem seen r.txn_id then false
      else begin
        Hashtbl.replace seen r.txn_id ();
        true
      end)
    records

let candidates_of_votes ~own entries =
  distinct_candidates ~own (List.concat entries)

(* Exhaustive search: maximum-length valid ordering of [own] plus any
   subset of [candidates]. Candidate sets are small (the paper observes
   lists of two or three in practice), so enumerating insertions is
   affordable: extend partial orderings one candidate at a time, pruning
   invalid prefixes.

   The search is an incremental planner over record *indices*: the
   pairwise reads-from matrix over own + candidates is computed once, and
   because every ordering reached is already valid, inserting candidate
   [x] at position [p] keeps it valid iff

     (a) [x] reads from nothing before [p]   (prefix scan over the matrix)
     (b) nothing at or after [p] reads from [x]  (suffix scan)

   so one O(len) pass over the ordering prices all len+1 insertion points,
   instead of re-deriving read/write sets per probe. The enumeration order
   — candidates in [remaining] order, insertion positions left to right,
   first strictly-longer ordering wins — is exactly the pre-planner
   order, which keeps the selected ordering (and every figure downstream
   of it) byte-identical. *)
let exhaustive ~own candidates =
  let all = Array.of_list (own :: candidates) in
  let n = Array.length all in
  (* rf.(i).(j): all.(i) reads a key all.(j) wrote. The diagonal is forced
     false (a record never precedes itself in an ordering). *)
  let rf =
    Array.init n (fun i ->
        Array.init n (fun j -> j <> i && Txn.reads_from all.(i) all.(j)))
  in
  let best = ref [ 0 ] in
  let best_len = ref 1 in
  let rec go ordering len remaining =
    if len > !best_len then begin
      best := ordering;
      best_len := len
    end;
    List.iteri
      (fun i x ->
        let rest = List.filteri (fun j _ -> j <> i) remaining in
        let rf_x = rf.(x) in
        (* bad_after.(p): some element at index >= p of [ordering] reads
           from [x] — condition (b) for every position in one backward
           pass. *)
        let bad_after = Array.make (len + 1) false in
        List.iteri
          (fun p y -> if rf.(y).(x) then bad_after.(p) <- true)
          ordering;
        for p = len - 1 downto 0 do
          bad_after.(p) <- bad_after.(p) || bad_after.(p + 1)
        done;
        (* Forward pass: thread condition (a) incrementally, recursing at
           each admissible position in left-to-right order. *)
        let rec probe p prefix suffix =
          if not bad_after.(p) then
            go (List.rev_append prefix (x :: suffix)) (len + 1) rest;
          match suffix with
          | y :: ys when not rf_x.(y) -> probe (p + 1) (y :: prefix) ys
          | _ -> () (* x would read from y: every later position is out *)
        in
        probe 0 [] ordering)
      remaining
  in
  go [ 0 ] 1 (List.init (n - 1) (fun i -> i + 1));
  List.map (fun i -> all.(i)) !best

(* Greedy single pass (§5): append each candidate if the list stays valid.
   The list is valid by construction, so appending [c] keeps it valid iff
   [c] reads nothing the list already writes — one probe against the
   running write union instead of re-validating the whole list. *)
let greedy ~own candidates =
  let union = Txn.Write_union.create () in
  Txn.Write_union.add union own;
  let kept =
    List.fold_left
      (fun acc candidate ->
        if Txn.Write_union.reads_overlap union candidate then acc
        else begin
          Txn.Write_union.add union candidate;
          candidate :: acc
        end)
      [] candidates
  in
  own :: List.rev kept

let best ~own ~candidates ~exhaustive_limit =
  let candidates = distinct_candidates ~own candidates in
  if List.length candidates > exhaustive_limit then greedy ~own candidates
  else exhaustive ~own candidates
