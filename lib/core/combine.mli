(** The combination search of Paxos-CP (§5, Combination).

    When the tally says no value can yet have a majority, the client may
    propose any value for the position — so instead of proposing only its
    own transaction, it proposes an ordered list: its own transaction plus
    as many of the transactions seen in other acceptors' votes as can be
    serialized together. Validity is {!Mdds_types.Txn.valid_combination}:
    no transaction in the list reads a key written by a predecessor.

    The paper prescribes trying "every subset of transactions from the
    received votes, in every order" for the maximum-length list when the
    candidate set is small, and a greedy single pass otherwise. *)

val best :
  own:Mdds_types.Txn.record ->
  candidates:Mdds_types.Txn.record list ->
  exhaustive_limit:int ->
  Mdds_types.Txn.entry
(** [best ~own ~candidates ~exhaustive_limit] returns a maximal valid
    combination containing [own]. Candidates sharing [own]'s id, and
    duplicate candidate ids, are dropped first. With at most
    [exhaustive_limit] distinct candidates the search is exhaustive
    (optimal); beyond that it is a greedy pass in the given order. The
    result always contains [own] and is always a valid combination. The
    exhaustive search is factorial in the candidate count: the client's
    limit of 4 prices at most 3536 insertion probes (four mutually
    independent candidates). *)

val candidates_of_votes :
  own:Mdds_types.Txn.record ->
  Mdds_types.Txn.entry list ->
  Mdds_types.Txn.record list
(** Distinct transaction records appearing in voted entries, excluding
    [own], in first-seen order. *)
