(** The write candidates of an open scheduling choice: the nodes that were
    active at the start of the round and hold a message, in ascending
    order.

    A read-only view.  The one {!Machine} hands out aliases its live
    candidate set, so it costs nothing to produce; it stays valid until
    the machine's next [pick], [kill] or [restore], after which it may
    describe a different set.  A driver that resolves the choice more than
    once (backtracking) copies it with {!to_list} first.  [length] and
    [mem] are O(1); [nth] is O(log n) and ascending iteration O(log n) per
    member. *)

type t

val length : t -> int

val nth : t -> int -> int
(** [nth c k] is the [k]-th smallest candidate (0-based).
    @raise Invalid_argument unless [0 <= k < length c]. *)

val mem : t -> int -> bool

val iter : (int -> unit) -> t -> unit
(** Ascending. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Ascending. *)

val to_list : t -> int list
(** Ascending; a copy, unaffected by later changes to the machine. *)

val of_list : n:int -> int list -> t
(** A standalone view over [\[0, n)] holding the given nodes (duplicates
    collapse).  @raise Invalid_argument on a node outside [\[0, n)]. *)

val of_rankset : Wb_support.Rankset.t -> t
(** A live view of [s], no copy (kernel use). *)
