(** Exhaustive Specification 4.1 checks of a signaling algorithm at small
    scope: the one place a signaling search is built (the benchmark in
    perfbench/ keeps its own copy).  Shared by `separation explore`, the
    fuzz lattice's POR oracle, the explorer and lint tests, and the
    model-checking example.

    A scope is an algorithm, a {!Signaling.config} and a poll budget.
    Every signaler calls [Signal()] once; every waiter calls [Poll()]
    until it returns true or [polls] calls have completed (the Section 4
    history restriction).  The search runs under DSM accounting. *)

open Smr

type t
(** A validated, instantiated scope. *)

val make :
  (module Signaling.POLLING) -> Signaling.config -> polls:int -> (t, string) result
(** Validate the scope and instantiate the algorithm.  [Error] names the
    bad parameter: [polls] below 1, no waiter, a pid outside [0, n) or
    listed twice in one role, a pid in both roles, or a role count (or
    shape) the algorithm does not support. *)

val layout : t -> Var.layout

val scripts : t -> (Op.pid * Explore.script) list
(** Signalers first, then waiters, each in config order. *)

val symmetry : t -> Sim.Pid_set.t
(** The interchangeable waiters: {!Explore.detect_symmetry} over one
    [Poll()] per waiter, branching over {!Analysis.Lint.value_domain}.
    The scripts wrap those calls in identical {!Explore.repeat}s, which
    branch only on own-process counts and results, so script symmetry
    follows from call symmetry; Specification 4.1 is invariant under
    waiter permutation.  Computed on first use. *)

val facts : t -> Analysis.Independence.facts
(** The static-independence facts of the very programs the scripts run
    (every signaler's [Signal()] and waiter's [Poll()] CFG), so
    [Analysis.Independence.commute (facts t)] is sound for this search.
    An incomplete unfolding yields no facts.  Computed on first use. *)

(** Which reductions a search applies. *)
type search = {
  cap : int;  (** [max_histories] *)
  dedup : bool;
  por : bool;
  symmetry : bool;  (** canonicalize under {!symmetry} *)
  static_indep : bool;  (** POR consults {!facts} beyond {!Op.commute} *)
}

val default_search : search
(** The explorer's defaults: a 1,000,000-history cap, dedup, POR and
    symmetry on, no static-independence facts. *)

val check : t -> search -> Explore.result
(** One lean search for a {!Signaling.polling_ok} violation. *)

val witness : t -> search -> Explore.result -> Sim.t option
(** The result's violating history with its step records, for rendering.
    A lean search keeps none; the search is deterministic, so re-running
    the same [search] with full history reaches the same first violation.
    That cost is paid only here, on the failure path. *)

val table : t -> search -> Explore.result -> Results.table
(** The `explore` table: the scope and [search] as parameters (symmetry
    as the number of canonicalized waiters), one row of verdict and
    search statistics.  Wall time stays out, so two runs' JSON
    byte-compare. *)
