(** Multi-datacenter network topologies.

    A topology fixes, for every ordered pair of datacenters, the one-way
    message delay distribution and loss probability. The presets reproduce
    the EC2 deployment of the paper's evaluation (§6): Virginia availability
    zones (V), Oregon (O) and Northern California (C), with round-trip
    times V–V ≈ 1.5 ms, V–O = V–C ≈ 90 ms, O–C ≈ 20 ms. *)

type link = {
  delay : float;  (** Mean one-way delay, seconds. *)
  jitter : float;  (** Fractional jitter: actual = delay × U(1−j, 1+j). *)
  loss : float;  (** Probability a message is silently dropped. *)
}

type t

val make : names:string array -> link:(int -> int -> link) -> t
(** Build a topology over [Array.length names] datacenters; [link i j]
    gives the i→j link ([i = j] is the loopback used by co-located
    client/service traffic). *)

val size : t -> int
val name : t -> int -> string
val link : t -> int -> int -> link

val region : t -> int -> char
(** First letter of the datacenter name — its region tag (V/O/C). *)

(** {1 EC2 presets} *)

val ec2 : ?loss:float -> ?jitter:float -> string -> t
(** [ec2 spec] builds the paper's EC2 topology from a region spec string:
    each character is one datacenter, ['V'] a Virginia availability zone,
    ['O'] Oregon, ['C'] N. California. E.g. ["VVV"], ["COV"], ["VVVOC"].
    Latencies follow §6; [loss] (default 0.002) and [jitter] (default 0.1)
    apply to every non-loopback link. Raises [Invalid_argument] on other
    characters, an empty spec, a [loss] outside [[0,1]] or a negative or
    non-finite [jitter]. *)

val uniform : n:int -> rtt:float -> ?loss:float -> ?jitter:float -> unit -> t
(** A symmetric [n]-datacenter topology with the given inter-DC RTT.
    Rejects [loss] and [jitter] like {!ec2}. *)

val rtt : t -> int -> int -> float
(** Mean round-trip time i→j→i, seconds. *)
