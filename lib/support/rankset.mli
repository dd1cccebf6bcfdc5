(** Ordered sets over a fixed universe [\[0, n)] with rank queries.

    A Fenwick tree of membership counts next to a membership byte per
    element: [add], [remove] and [nth] (the k-th smallest member) are
    O(log n), [mem] and [cardinal] O(1), and an ascending walk over [k]
    members costs O(k log (n/k)): O(log n) per member at most, O(1) per
    member once the set is dense, and O(n) in all.  The execution
    kernel keeps its write candidates in one, so an adversary picks by
    rank without the set ever being materialised as a list. *)

type t

val create : int -> t
(** [create n] is the empty set over [\[0, n)].
    @raise Invalid_argument if [n < 0]. *)

val cardinal : t -> int

val mem : t -> int -> bool
(** [false] for anything outside [\[0, n)]. *)

val add : t -> int -> unit
(** No-op on a member.  @raise Invalid_argument outside [\[0, n)]. *)

val remove : t -> int -> unit
(** No-op on a non-member.  @raise Invalid_argument outside [\[0, n)]. *)

val nth : t -> int -> int
(** [nth s k] is the member of rank [k] (0-based, ascending).
    @raise Invalid_argument unless [0 <= k < cardinal s]. *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending order.  [f] must not mutate the set. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Ascending, like {!iter}. *)

val to_list : t -> int list
(** Ascending. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the members of [src], in O(n).
    @raise Invalid_argument when the capacities differ. *)
