(** The communication-cost observatory: process-global bit counters the
    execution kernel feeds, and closed-form theorem certificates protocols
    declare.

    {b Zero cost when off.}  Like {!Prof}, the counters are opt-in
    ({!enable}, or [WB_COST=1] in the environment): a never-enabled process
    registers no [cost.*] series and pays one atomic load per write.  When
    enabled, every board append adds its width to the [cost.total_bits]
    counter and observes it in the [cost.message_bits] histogram.  There is
    no per-round summary: a round grants exactly one write, so the trace's
    [Write] event already is one.

    {b Certificates.}  A {!certificate} states a protocol's paper bound as
    an executable envelope — max bits any single message may cost at size
    [n], with explicit constants — plus, where the paper gives one, the
    matching Lemma 3 information floor.  [wbctl cost] and the [@check-cost]
    sweep compare measured message sizes against both. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val record : bits:int -> unit
(** Account one board append of [bits] — called from the kernel's single
    write path.  Cumulative: a backtracking explorer's replayed writes
    count again. *)

(** {1 Theorem-bound certificates} *)

type certificate = {
  form : string;
      (** The closed form, human-readable with explicit constants — what
          [wbctl protocols --costs] prints. *)
  envelope : n:int -> int;
      (** Max bits any single message may cost on an [n]-node instance.
          Deliberately duplicated from the protocol's [message_bound]: a
          refactor that inflates the encoder breaks the certificate even if
          it also bumps the cap. *)
  floor : (n:int -> int) option;
      (** The Lemma 3 information floor (bits per message), where the paper
          gives one ({!Wb_reductions.Counting} has the class counts; the
          registry duplicates the arithmetic to stay cycle-free and the
          tests cross-check the two). *)
  floor_class : string option;
      (** Name of the counting class the floor is computed from, e.g.
          ["labelled trees"]. *)
}

type verdict = {
  n : int;
  measured : int;  (** max message bits observed on the instance. *)
  envelope_bits : int;
  floor_bits : int option;
  envelope_ok : bool;  (** [measured <= envelope_bits]. *)
  floor_ok : bool;  (** [measured >= floor] (vacuous without a floor). *)
}

val check : certificate -> n:int -> measured:int -> verdict
val verdict_ok : verdict -> bool
