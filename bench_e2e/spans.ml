(* Spans recorded from the benchmark's side of each layer boundary.

   CPU spans wrap the calls the benchmark makes into the system (set-up,
   [Cluster.run], the oracles, collection, the codec replay); their
   inclusive CPU seconds are always accumulated, because the CPU metrics
   need them in both modes. Span records themselves are kept only when
   tracing, together with the virtual-time spans the benchmark rebuilds
   per transaction from the audit trail after a run. Everything stays in
   memory and is written out once, as JSON Lines, when the run ends. *)

type clock = Cpu | Virtual

type span = {
  id : int;
  name : string;
  clock : clock;
  start : float;
  stop : float;
  parent : int;  (** 0 = no parent *)
  txn : string;  (** "" = not tied to one transaction *)
  tags : (string * string) list;
}

type t = {
  traced : bool;
  mutable next_id : int;
  mutable open_cpu : int list;
  mutable spans : span list;  (* newest first *)
  cpu_by_name : (string, float) Hashtbl.t;
}

let create ~traced =
  {
    traced;
    next_id = 1;
    open_cpu = [];
    spans = [];
    cpu_by_name = Hashtbl.create 8;
  }

let traced t = t.traced

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let cpu t ?(tags = []) name f =
  let id = fresh_id t in
  let parent = match t.open_cpu with p :: _ -> p | [] -> 0 in
  t.open_cpu <- id :: t.open_cpu;
  let start = Sys.time () in
  let finish () =
    let stop = Sys.time () in
    t.open_cpu <- List.tl t.open_cpu;
    Hashtbl.replace t.cpu_by_name name
      (stop -. start
      +. Option.value (Hashtbl.find_opt t.cpu_by_name name) ~default:0.0);
    if t.traced then
      t.spans <-
        { id; name; clock = Cpu; start; stop; parent; txn = ""; tags }
        :: t.spans
  in
  Fun.protect ~finally:finish f

let cpu_seconds t name =
  Option.value (Hashtbl.find_opt t.cpu_by_name name) ~default:0.0

let virtual_span t ?(txn = "") ?(tags = []) name ~start ~stop =
  if t.traced then begin
    let id = fresh_id t in
    t.spans <-
      { id; name; clock = Virtual; start; stop; parent = 0; txn; tags }
      :: t.spans
  end

(* A span's self time is its duration minus the part its children
   cover; CPU children never outlive their parent, so that part is the
   sum of their durations. Returned per span name, in first-seen order. *)
let cpu_self_times t =
  let cpu = List.filter (fun s -> s.clock = Cpu) (List.rev t.spans) in
  let child_time = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    cpu;
  List.fold_left
    (fun acc s ->
      let self =
        s.stop -. s.start
        -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      match List.assoc_opt s.name acc with
      | Some v -> (s.name, v +. self) :: List.remove_assoc s.name acc
      | None -> acc @ [ (s.name, self) ])
    [] cpu

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_jsonl t oc =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"clock\":%s,\"start\":%.17g,\"end\":%.17g,\
         \"parent\":%d,\"txn\":%s,\"tags\":{%s}}\n"
        s.id (json_string s.name)
        (json_string (match s.clock with Cpu -> "cpu" | Virtual -> "virtual"))
        s.start s.stop s.parent (json_string s.txn)
        (String.concat ","
           (List.map
              (fun (k, v) -> json_string k ^ ":" ^ json_string v)
              s.tags)))
    (List.rev t.spans)
