(* Struct-of-arrays storage: entry [i] is [(times.(i), seqs.(i), items.(i))].
   The times live unboxed in a [Float.Array], so no operation allocates
   except growing the arrays. Sifts move a hole rather than swapping, so
   each level costs one write per array instead of three. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable items : 'a array;
  mutable size : int;
  filler : 'a;
      (* Vacated item slots are reset to this, so popped items (executed
         event closures) are not retained until the end of the run. *)
}

let create ~filler () =
  { times = Float.Array.create 0; seqs = [||]; items = [||]; size = 0; filler }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let ncap = max 16 (2 * t.size) in
  let times = Float.Array.create ncap in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let items = Array.make ncap t.filler in
  Array.blit t.items 0 items 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.items <- items

(* Does slot [i] order strictly before the key [(time, seq)]? *)
let[@inline] before t i time seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.items dst (Array.unsafe_get t.items src)

let[@inline] place t i time seq item =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.items i item

let push t ~time ~seq item =
  if t.size = Array.length t.items then grow t;
  let hole = ref t.size in
  t.size <- t.size + 1;
  while
    !hole > 0
    &&
    let parent = (!hole - 1) / 2 in
    not (before t parent time seq)
  do
    let parent = (!hole - 1) / 2 in
    move t ~src:parent ~dst:!hole;
    hole := parent
  done;
  place t !hole time seq item

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty";
  Float.Array.unsafe_get t.times 0

let min_seq t =
  if t.size = 0 then invalid_arg "Heap.min_seq: empty";
  Array.unsafe_get t.seqs 0

let due t time = t.size > 0 && Float.Array.unsafe_get t.times 0 <= time

let precedes a b =
  a.size > 0
  && (b.size = 0
     || before a 0 (Float.Array.unsafe_get b.times 0) (Array.unsafe_get b.seqs 0))

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty";
  Array.unsafe_get t.items 0

(* Sift the entry in slot [src] down from the hole at [hole], among the
   first [size] slots. It takes the slot index rather than the key, so no
   float crosses a call boundary boxed. *)
let sift_down t ~hole ~src ~size =
  let time = Float.Array.unsafe_get t.times src in
  let seq = Array.unsafe_get t.seqs src in
  let item = Array.unsafe_get t.items src in
  let hole = ref hole in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !hole) + 1 in
    if l >= size then sifting := false
    else begin
      let r = l + 1 in
      let child =
        if r < size
           && before t r (Float.Array.unsafe_get t.times l) (Array.unsafe_get t.seqs l)
        then r
        else l
      in
      if before t child time seq then begin
        move t ~src:child ~dst:!hole;
        hole := child
      end
      else sifting := false
    end
  done;
  place t !hole time seq item

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty";
  let top = Array.unsafe_get t.items 0 in
  let last = t.size - 1 in
  t.size <- last;
  (* Sift the former last entry down from the root. *)
  if last > 0 then sift_down t ~hole:0 ~src:last ~size:last;
  Array.unsafe_set t.items last t.filler;
  top

(* Compact the kept entries to the front, in slot order, then restore the
   heap property bottom-up (Floyd): O(size). Keys are unique, so the pop
   order of the kept entries does not depend on the heap's shape. *)
let filter t keep =
  let latest = ref neg_infinity in
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if keep (Array.unsafe_get t.items i) then begin
      if !n < i then move t ~src:i ~dst:!n;
      incr n
    end
    else begin
      let time = Float.Array.unsafe_get t.times i in
      if time > !latest then latest := time
    end
  done;
  Array.fill t.items !n (t.size - !n) t.filler;
  t.size <- !n;
  for i = (!n / 2) - 1 downto 0 do
    sift_down t ~hole:i ~src:i ~size:!n
  done;
  !latest
