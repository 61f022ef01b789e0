type 'a t = { absent : 'a; mutable slots : 'a array; mutable live : int }

let limit = 1 lsl 22

let create absent = { absent; slots = [||]; live = 0 }

let get t pos =
  if pos >= 0 && pos < Array.length t.slots then Array.unsafe_get t.slots pos
  else t.absent

let mem t pos = get t pos != t.absent

let set t pos v =
  if pos < 0 || pos >= limit then
    invalid_arg (Printf.sprintf "Slots.set: position %d out of range" pos);
  let n = Array.length t.slots in
  if pos >= n then begin
    let slots = Array.make (min limit (max (pos + 1) (max 64 (2 * n)))) t.absent in
    Array.blit t.slots 0 slots 0 n;
    t.slots <- slots
  end;
  if Array.unsafe_get t.slots pos == t.absent then t.live <- t.live + 1;
  Array.unsafe_set t.slots pos v

let clear t pos =
  if mem t pos then begin
    Array.unsafe_set t.slots pos t.absent;
    t.live <- t.live - 1
  end

let live t = t.live

let reset t =
  t.slots <- [||];
  t.live <- 0

let iter f t =
  for pos = 0 to Array.length t.slots - 1 do
    let v = Array.unsafe_get t.slots pos in
    if v != t.absent then f pos v
  done

let positions t =
  let acc = ref [] in
  for pos = Array.length t.slots - 1 downto 0 do
    if Array.unsafe_get t.slots pos != t.absent then acc := pos :: !acc
  done;
  !acc
