(** Vote tallying: the proposer-side decision rules of Algorithm 2.

    After the prepare phase the Transaction Client holds a set of last-vote
    responses. Basic Paxos picks the value with the maximum ballot
    ([findWinningVal], lines 66–75). Paxos-CP first classifies the
    position ([enhancedFindWinningVal], lines 76–87):

    - {b Free}: even if all silent acceptors voted alike, no value can have
      a majority — the combination window; the client may propose any
      value, in particular a combined transaction list.
    - {b Chosen}: a single value already has a majority of votes; it will
      be (or has been) written to the log. A client whose transaction is
      not part of it should promote rather than compete.
    - {b Constrained}: neither case — fall back to the basic rule. *)

type 'v response = { from : int; vote : (Ballot.t * 'v) option }
(** One acceptor's last-vote answer: datacenter id and the vote it
    reported (ballot it voted at, value it voted for), if any. *)

val majority : int -> int
(** [majority d] = ⌊d/2⌋ + 1, the quorum size [M] for [d] datacenters. *)

val is_quorum : total:int -> int -> bool

val highest :
  ?skip:(Ballot.t -> 'v -> bool) -> 'v response list -> (Ballot.t * 'v) option
(** The vote at the maximum ballot, the first one on a tie; [None] if
    every response carries a null vote. Votes [skip] holds for are left
    out. *)

val find_winning : 'v response list -> own:'v -> 'v
(** [findWinningVal]: the value of {!highest}, or [own] if every response
    carries a null vote. *)

type 'v decision =
  | Free
      (** No value can have reached a majority: combine (§5). *)
  | Chosen of 'v
      (** This value has ≥ [majority total] votes: it wins the position. *)
  | Constrained of 'v
      (** Must propose this (max-ballot) value — basic Paxos rule. *)

val decide : total:int -> equal:('v -> 'v -> bool) -> 'v response list -> 'v decision
(** [enhancedFindWinningVal]'s classification. [total] is the number of
    datacenters [D]; [responses] must come from distinct acceptors and
    contain at least [majority total] of them — with fewer, an all-null
    tally could hide a silently chosen value and no sound classification
    exists (raises [Invalid_argument]). The commit protocol always holds a
    quorum of promises when it classifies (Algorithm 2, line 37). *)

val vote_counts : equal:('v -> 'v -> bool) -> 'v response list -> ('v * int) list
(** Number of votes per distinct value (exposed for tests/telemetry). *)
