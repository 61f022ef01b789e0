(* Order-preserving parallel map for independent trials.

   Every parallel [map] spawns its helper domains, works alongside them and
   joins them before returning: nothing outlives the call. Callers submit
   one batch per figure or chaos battery (16 for a whole [mdds figures]
   run), so Domain.spawn/join is paid a handful of times per process.
   Helpers and caller self-dispatch from an atomic cursor; results land in
   input order, so output never depends on the width. *)

(* Set on helpers, and on a caller inside its own [map]: a nested [map]
   then runs sequentially instead of spawning domains recursively. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let jobs_override : int option ref = ref None

let set_jobs j = jobs_override := Option.map (max 1) j

let get_jobs () =
  match (!jobs_override, Sys.getenv_opt "MDDS_JOBS") with
  | Some n, _ -> n
  | None, None -> max 1 (Domain.recommended_domain_count ())
  | None, Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> invalid_arg (Printf.sprintf "MDDS_JOBS=%S is not an integer >= 1" s))

(* Trials allocate heavily, and on OCaml 5 every minor collection stops all
   domains, so helpers run with a larger minor heap (32 MB on 64-bit). *)
let helper_minor_words = 4 * 1024 * 1024

let dispatch_order ~cost input =
  let n = Array.length input in
  match cost with
  | None -> Array.init n Fun.id
  | Some cost ->
      (* Longest-estimated-first; ties by input index. *)
      let keyed = Array.init n (fun i -> (cost input.(i), i)) in
      Array.sort
        (fun (ca, ia) (cb, ib) ->
          match Float.compare cb ca with 0 -> Int.compare ia ib | c -> c)
        keyed;
      Array.map snd keyed

let map ?domains ?cost f xs =
  let n = List.length xs in
  let width = min n (match domains with Some d -> d | None -> get_jobs ()) in
  if width <= 1 || Domain.DLS.get in_worker then List.map f xs
  else begin
    let input = Array.of_list xs in
    let order = dispatch_order ~cost input in
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    (* The smallest failing index is kept, not the first to fail, so the
       exception re-raised is the one [List.map] would raise. *)
    let failure = Atomic.make None in
    let rec record i e bt =
      match Atomic.get failure with
      | Some (j, _, _) when j <= i -> ()
      | cur ->
          if not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then
            record i e bt
    in
    (* Stops dispensing once anything failed; a dispensed index always
       runs to completion. *)
    let rec work () =
      if Option.is_none (Atomic.get failure) then begin
        let pos = Atomic.fetch_and_add cursor 1 in
        if pos < n then begin
          let i = order.(pos) in
          (try results.(i) <- Some (f input.(i))
           with e -> record i e (Printexc.get_raw_backtrace ()));
          work ()
        end
      end
    in
    let helper () =
      Domain.DLS.set in_worker true;
      let g = Gc.get () in
      if g.Gc.minor_heap_size < helper_minor_words then
        Gc.set { g with Gc.minor_heap_size = helper_minor_words };
      work ()
    in
    (* A failed spawn (e.g. the runtime's domain limit) ends spawning; the
       batch finishes on the domains already running. *)
    let rec spawn k =
      if k = 0 then []
      else match Domain.spawn helper with d -> d :: spawn (k - 1) | exception _ -> []
    in
    Domain.DLS.set in_worker true;
    let helpers = spawn (width - 1) in
    Fun.protect
      ~finally:(fun () ->
        List.iter Domain.join helpers;
        Domain.DLS.set in_worker false)
      work;
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.to_list (Array.map Option.get results)
  end
