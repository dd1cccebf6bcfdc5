(** Adversarial schedulers.

    Each round the engine hands the adversary the set of nodes that are
    active and have not yet written; the adversary picks the one whose
    message is appended to the whiteboard.  A protocol solves a problem only
    if it succeeds under {e every} adversary, so tests combine the strategies
    here with the exhaustive exploration of {!Engine}. *)

type t

val name : t -> string
val choose : t -> Board.t -> Candidates.t -> int
(** [choose adv board candidates] returns a member of [candidates].  The
    view is read-only and ascending; the adversary reads it by rank, so
    {!min_id}, {!max_id}, {!random} and {!alternating_extremes} cost
    O(log n) whatever the number of candidates, while {!by_priority} and
    {!last_writer_neighbor_avoider} scan it.
    @raise Invalid_argument when [candidates] is empty or the strategy
    returns a non-member. *)

val min_id : t
(** Always the smallest identifier — the "polite" schedule many protocols
    implicitly think in. *)

val max_id : t
val random : Wb_support.Prng.t -> t
(** Uniform among candidates: one draw of [Prng.int] per choice, used as
    a rank.  Stateful, so reuse across runs gives fresh draws. *)

val by_priority : int array -> t
(** [by_priority prio] picks the candidate with the largest [prio.(v)].
    With [prio] a permutation this realises any fixed preference order. *)

val last_writer_neighbor_avoider : Wb_graph.Graph.t -> t
(** A spiteful heuristic: prefers candidates {e not} adjacent to the previous
    writer (stress-tests layer-completion certificates in BFS protocols). *)

val alternating_extremes : t
(** Alternates between smallest and largest candidate. *)
