(** Symbolic fuzz cases: plain-data descriptions of one differential
    experiment, regenerable byte-identically from their (seed, index)
    pair and total to elaborate — every syntactic case, including every
    case the shrinker proposes, is runnable. *)

open Smr

type cell = { home : int;  (** -1 = Shared, otherwise a pid (mod n) *) init : int }

(** One scheduling decision.  [Step p] advances [p] if it is mid-call and
    otherwise begins its next queued call; [Crash p] crashes [p] if it is
    mid-call and is a no-op otherwise.  Decisions aimed at out-of-range
    pids are wrapped modulo the elaborated process count. *)
type decision = Step of Op.pid | Crash of Op.pid

type family =
  | Programs of {
      cells : cell list;
      calls : Op.invocation list list list;
          (** per pid: a list of calls, each an op list whose addresses
              are cell {e indices}, remapped at elaboration *)
    }
  | Script of { algorithm : string; polls : int }
      (** a catalog signaling algorithm: one Signal(), [polls] Poll()
          calls per waiter *)
  | Entry of { entry : string; repeats : int }
      (** a lint-registry entry: each registered call, [repeats] times
          per analyzed pid *)

type t = {
  seed : int;
  index : int;
  n : int;
  family : family;
  schedule : decision list;
}

val family_name : family -> string

val size : t -> int
(** Structural size — the measure {!Shrink.minimize} strictly decreases. *)

(** A case elaborated against real layouts and programs. *)
type runnable = {
  r_n : int;
  r_layout : Var.layout;
  r_calls : (string * Op.value Program.t) list array;
      (** per pid, the queue of calls the schedule's [Step]s consume *)
}

val elaborate : t -> runnable
(** Total on every syntactic case; raises [Invalid_argument] only for an
    unknown algorithm or registry-entry name (the registry must be
    populated first — see {!Core.Lint_catalog.register}). *)

val pp_decision : decision Fmt.t
val pp : t Fmt.t
val to_string : t -> string
