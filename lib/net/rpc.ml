module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng

(* A caller's wait for one reply. The record travels inside the request
   and back inside the response, so delivery resolves it in place; the
   flag drops late and duplicate replies. *)
type 'resp waiter = { mutable active : bool; resolve : 'resp -> unit }

type ('req, 'resp) packet =
  | Request of { payload : 'req; reply : 'resp waiter option (* None: one-way *) }
  | Response of { payload : 'resp; waiter : 'resp waiter }

type ('req, 'resp) t = { net : ('req, 'resp) packet Network.t }

let network t = t.net
let engine t = Network.engine t.net

(* Replies are resolved at any node; requests only where {!serve} runs. *)
let receive ~src:_ = function
  | Response { payload; waiter } when waiter.active ->
      waiter.active <- false;
      waiter.resolve payload
  | Response _ -> () (* late or duplicate reply: drop *)
  | Request _ -> () (* no service here: drop, like a stray datagram *)

let create net =
  for node = 0 to Network.size net - 1 do
    Network.listen net ~node receive
  done;
  { net }

(* The processing delay is drawn when the request lands, from the node's
   own stream and in delivery order, and the handler starts once it has
   elapsed: one heap event per request (DESIGN.md §2.1). An [inline]
   request's handler runs in that event as a plain callback; any other
   starts a process there, as a spawn would. *)
let serve t ~node ?(processing = 0.0) ?(inline = fun _ -> false) handler =
  let engine = engine t in
  let rng = Rng.split (Engine.rng engine) in
  Network.listen t.net ~node (fun ~src packet ->
      match packet with
      | Request { payload; reply } ->
          (* Store/OS work per request varies in practice; +/-50% jitter
             around the mean spreads acceptor vote times. *)
          let at =
            if processing > 0.0 then
              Engine.now engine
              +. Rng.uniform rng (0.5 *. processing) (1.5 *. processing)
            else Engine.now engine
          in
          let run () =
            let resp = handler ~src payload in
            match reply with
            | Some waiter ->
                Network.send t.net ~src:node ~dst:src
                  (Response { payload = resp; waiter })
            | None -> ()
          in
          Engine.schedule engine ~at (fun () ->
              if inline payload then run () else Engine.start engine run)
      | Response _ -> receive ~src packet)

let call t ~src ~dst ~timeout req =
  Engine.suspend (fun wake ->
      (* The timeout timer dies with the call: a response must cancel it,
         or every completed call leaves a live timer in the event heap
         until its deadline (the heap then grows with the call rate ×
         timeout window instead of the in-flight window). *)
      let timer = ref None in
      let w =
        {
          active = true;
          resolve =
            (fun resp ->
              Option.iter Engine.cancel !timer;
              wake (Some resp));
        }
      in
      timer :=
        Some
          (Engine.after (engine t) timeout (fun () ->
               if w.active then begin
                 w.active <- false;
                 wake None
               end));
      Network.send t.net ~src ~dst (Request { payload = req; reply = Some w }))

let broadcast t ~src ~dsts ~timeout ?(linger = 0.0) ?(enough = fun _ -> false)
    ?observe req =
  let results = ref [] in
  let finished = ref false in
  let lingering = ref false in
  let started = Engine.now (engine t) in
  let n = List.length dsts in
  Engine.suspend (fun wake ->
      let timers = ref [] in
      (* A reply after [finish] still resolves its waiter, and is ignored. *)
      let finish () =
        if not !finished then begin
          finished := true;
          (* Fired timers ignore cancel; the others must not outlive the
             broadcast (same heap-growth argument as in {!call}). *)
          List.iter Engine.cancel !timers;
          wake (List.rev !results)
        end
      in
      (* Once the quorum predicate holds, harvest near-simultaneous
         stragglers for [linger] seconds before returning — the paper's
         clients see "more than a simple majority" of responses because
         replies from equidistant datacenters arrive together. *)
      let satisfied () =
        if List.length !results = n then finish ()
        else if linger <= 0.0 then finish ()
        else if not !lingering then begin
          lingering := true;
          timers := Engine.after (engine t) linger (fun () -> finish ()) :: !timers
        end
      in
      List.iter
        (fun dst ->
          let resolve resp =
            if not !finished then begin
              (match observe with
              | None -> ()
              | Some f -> f ~dst ~rtt:(Engine.now (engine t) -. started));
              results := (dst, resp) :: !results;
              if List.length !results = n || enough !results then satisfied ()
            end
          in
          Network.send t.net ~src ~dst
            (Request { payload = req; reply = Some { active = true; resolve } }))
        dsts;
      timers := Engine.after (engine t) timeout (fun () -> finish ()) :: !timers;
      (* Degenerate broadcast: nothing to wait for. *)
      if dsts = [] then finish ())

let notify t ~src ~dst req =
  Network.send t.net ~src ~dst (Request { payload = req; reply = None })
