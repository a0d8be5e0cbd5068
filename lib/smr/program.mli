(** Process code as a pure value.

    A program is a tree of memory operations: either it is finished
    ([Return]), or it is about to apply one atomic {!Op.invocation} and
    continue with the response.  Because programs are inert values, the
    simulator — and crucially the Section 6 adversary — can inspect a
    process's next memory operation without executing it, snapshot machine
    states, and replay histories deterministically. *)

type 'a t =
  | Return of 'a
  | Step of Op.invocation * (Op.value -> 'a t)

val return : 'a -> 'a t

val bind : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t
(** [map f m] behaves as [bind m (fun x -> return (f x))], with one
    continuation closure per step instead of two. *)

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

val step : Op.invocation -> Op.value t
(** A single raw memory operation. *)

(** {1 Typed operations}

    Each typed operation is exactly one [Step (inv, k)]: [inv] is the
    encoded invocation on the handle's address, and [k] returns the
    decoded response at once (for {!read}, {!load_linked} and
    {!fetch_and_store}, [Return (Var.decode var r)]).  Continuations that
    do not depend on the handle — unit, raw value, success flag — are
    shared closures, so building an operation allocates its invocation,
    its [Step] and at most one closure. *)

val read : 'a Var.t -> 'a t

val write : 'a Var.t -> 'a -> unit t

val cas : 'a Var.t -> expected:'a -> update:'a -> bool t
(** Returns [true] iff the swap succeeded. *)

val load_linked : 'a Var.t -> 'a t

val store_conditional : 'a Var.t -> 'a -> bool t
(** Succeeds iff no process performed a nontrivial operation on the cell
    since this process's last [load_linked] on it. *)

val fetch_and_add : int Var.t -> int -> int t
(** Returns the previous value. *)

val fetch_and_increment : int Var.t -> int t

val fetch_and_store : 'a Var.t -> 'a -> 'a t
(** Atomic swap; returns the previous value. *)

val test_and_set : bool Var.t -> bool t
(** Sets the cell to [true]; returns the previous value. *)

(** {1 Control flow} *)

val seq : unit t list -> unit t

val for_ : int -> int -> (int -> unit t) -> unit t
(** [for_ lo hi body] runs [body lo], ..., [body hi] in order. *)

val when_ : bool -> unit t -> unit t

val repeat_until : bool t -> unit t
(** Re-run the body until it returns [true].  The body is rebuilt lazily, so
    unbounded busy-waiting is representable. *)

val await : 'a Var.t -> ('a -> bool) -> unit t
(** Spin reading [var] until its value satisfies the predicate — the
    canonical busy-wait loop of local-spin algorithms. *)

(** {1 Inspection} *)

val length_exn : ?fuel:int -> respond:(Op.invocation -> Op.value) -> 'a t -> int
(** Number of steps the program takes when every operation is answered by
    [respond]; raises [Invalid_argument] once [fuel] steps are exceeded.
    Used by tests to check wait-freedom bounds. *)

val next_invocation : 'a t -> Op.invocation option
(** The operation the program is about to apply, or [None] if finished.
    This is the adversary's "peek at the next RMR" primitive. *)
