(** Exhaustive interleaving exploration — a small-scope model checker.

    Enumerates the step-level interleavings of the given per-process call
    scripts (the machine's persistent state makes branching free) and
    checks a property on each complete history.  Three reductions make
    exhaustive checking scale well past the naive DFS: canonical
    state-fingerprint deduplication, sleep-set partial-order reduction
    over {!Op.commute}, and orbit-canonical symmetry reduction.  Every
    search is one depth-first pass from the root against a single dedup
    table, so verdicts and statistics (wall time aside) are a pure
    function of the inputs.

    {b Soundness contract.}  With [dedup]/[por] on (the default), the
    property must be a function of the recorded calls' results and of
    their interval order (which call began/completed before which) — as
    Specification 4.1 and the GME occupancy predicate are — not of raw
    timestamps, step lists or RMR counts; and scripts must decide their
    next call from the script-visible state only (own call count, own
    last result), as {!of_list} and {!repeat} do.  Pass [~dedup:false
    ~por:false] to recover the seed checker's literal
    one-leaf-per-interleaving semantics for arbitrary properties. *)

type script = Sim.t -> Op.pid -> (string * Op.value Program.t) option
(** What a process does when idle: the next call, or [None] when done.
    Must be a pure function of the machine state — search branches share
    nothing, so stateful closures would corrupt the enumeration. *)

val of_list : (string * Op.value Program.t) list -> script
(** Perform exactly these calls, in order. *)

val repeat :
  ?limit:int -> until:(Op.value -> bool) -> string * Op.value Program.t -> script
(** Repeat one call until its result satisfies [until] (or [limit] calls
    have completed) — e.g. "Poll() until it returns true", the history
    restriction of Section 4. *)

type stats = {
  states : int;
      (** search nodes visited, pruned nodes included — the headline
          scalability number to compare against a [~dedup:false
          ~por:false] run *)
  dedup_hits : int;  (** nodes pruned as equivalent to an explored state *)
  por_prunes : int;  (** nodes whose every enabled move was asleep *)
  tasks : int;
      (** always 1: the search is one depth-first pass (the field is kept
          for readers of earlier result formats) *)
  max_depth : int;  (** deepest step count reached on any branch *)
  orbit_hits : int;
      (** dedup hits whose canonical key required a non-identity waiter
          relabeling — the pruning attributable to symmetry reduction
          specifically (0 when [symmetry] is empty) *)
  fp_distinct : int;
      (** distinct dedup keys (orbit representatives) interned *)
  fp_collisions : int;
      (** distinct keys that landed on an already-occupied full hash —
          hash-quality diagnostic, never a soundness signal *)
  fp_resizes : int;  (** intern-table slot doublings *)
  fp_slots : int;
      (** intern-table slot capacity; [fp_distinct /. fp_slots] is the
          occupancy *)
  wall_s : float;
      (** elapsed seconds on the monotonic {e wall} clock ({!Obs.Clock},
          not [Sys.time], which measures CPU time); the only field that
          varies between runs and across hosts — keep it out of any
          byte-comparison or golden
          fixture.  Traced runs also record it as the
          [explore_wall_seconds] histogram, which {!Obs.Metrics.rows}
          likewise excludes from deterministic output by default. *)
}

type result = {
  histories : int;  (** histories (leaves) the property was checked on *)
  truncated : int;
      (** branches cut at [max_steps_per_history] — spin loops make some
          branches infinite; truncated prefixes are still property-checked *)
  complete : bool;  (** whether every interleaving was fully enumerated *)
  violation : Sim.t option;  (** a history falsifying the property *)
  stats : stats;
}

val detect_symmetry :
  ?fuel:int ->
  values:Op.value list ->
  (Op.pid * (string * Op.value Program.t)) list ->
  Sim.Pid_set.t
(** The pids (of the given (pid, labeled first call) candidates) whose
    calls are literally interchangeable with the first candidate's: same
    label, and bisimilar program trees — invocations compared structurally
    at every node, continuations followed for every response in [values] —
    with [Ll] refused anywhere (a load-link records its pid in the memory
    fingerprint, breaking permutation invariance).  Candidates are
    typically one representative call per waiter; {!repeat}-style scripts
    stay symmetric whenever their underlying call is, since they branch
    only on own-process counts and results.

    Detection is conservative by construction: [fuel] (default 4096)
    bounds the nodes visited per comparison and exhaustion declines the
    candidate, so unbounded (spinning) call bodies fall back to the empty
    set rather than diverge.  It is {e exact} only when [values] covers
    every response the programs can receive — pass
    [Analysis.Lint.value_domain] (or a superset) for catalog algorithms.
    Fewer than two matching candidates yield the empty set.  The returned
    set is meant for {!check}'s [symmetry] argument; the {e property}'s
    invariance under waiter permutation (true of Specification 4.1) is the
    caller's responsibility. *)

val check :
  ?tracer:Obs.Trace.t ->
  ?max_histories:int ->
  ?max_steps_per_history:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?commute:(Op.invocation -> Op.invocation -> bool) ->
  ?lean:bool ->
  ?jobs:int ->
  ?symmetry:Sim.Pid_set.t ->
  layout:Var.layout ->
  model:Cost_model.t ->
  n:int ->
  scripts:(Op.pid * script) list ->
  property:(Sim.t -> bool) ->
  unit ->
  result
(** The property is evaluated whenever a call completes and at every leaf;
    checking it on prefixes is sufficient for safety properties over
    recorded calls (violations persist) and is what makes pruning sound.

    [max_histories] (default 1,000,000) stops the search immediately
    after the leaf that reaches it; the result then reports
    [complete = false].  The search is one depth-first pass from the
    root, so the stop point, like every other reported number, is a pure
    function of the inputs.

    [lean] (default true) steps the machine in {!Sim.lean_mode}: per-step
    history records and the replayable trace are not accumulated, which
    removes the dominant per-step allocations.  Call records and all
    counters are kept, so any property within the soundness contract
    above — a function of recorded calls and their interval order — is
    unaffected; see docs/MODEL.md, "Exploration fast path".  Pass
    [~lean:false] when the property (or post-mortem use of the returned
    [violation] machine) needs {!Sim.steps} or {!Sim.replay}.

    [commute] (default {!Op.commute}) is the independence relation the
    sleep-set POR consults for advance/advance pairs.  A replacement must
    be {e sound for the scripts being explored}: whenever it declares two
    invocations independent, executing them in either order from any
    reachable state must produce the same memory fingerprint and the same
    responses (the {!Commute_check} standard).  {!Analysis.Independence}
    computes such relations statically from the algorithm's CFGs; an
    unsound relation silently prunes real interleavings.  Verdicts and all
    reported counts remain deterministic for any fixed [commute] — the
    relation changes {e which} states are pruned, never the determinism
    of the accounting.

    [jobs] has no effect on the search, which always runs on the calling
    domain against one dedup table.  It is accepted so existing callers
    keep compiling; to fan work across domains, run independent
    configurations through {!Parallel.map}.

    [symmetry] (default empty) names interchangeable pids: before a state
    meets the dedup tables, its key — never the live search state — is
    relabeled to a canonical orbit representative under permutation of
    those pids, and its sleep set crosses into the same canonical
    coordinates, so permuted twins merge (the factorial cut symmetry
    reduction is named for).  {b Sound only when} the named pids run
    literally interchangeable scripts with no [Ll] — use
    {!detect_symmetry} — and the property is invariant under their
    permutation, as Specification 4.1 is.  The verdict ([violation]
    presence, [complete]) is unchanged by a sound [symmetry]; [states],
    [dedup_hits] and [histories] legitimately shrink.

    With [tracer], one {!Obs.Event.Explore_task} span (task 0) is emitted
    when the search ends, with synthetic ticks (0 to [states]) — so the
    trace too is deterministic.  Wall time goes only into the
    [explore_wall_seconds] metric, recorded from the very [stats.wall_s]
    value the result carries (one clock read; the two can never
    disagree), which deterministic renderings exclude. *)

val count :
  ?max_histories:int ->
  ?max_steps_per_history:int ->
  layout:Var.layout ->
  model:Cost_model.t ->
  n:int ->
  scripts:(Op.pid * script) list ->
  unit ->
  int
(** Number of step-level interleavings, up to the cap; runs with both
    reductions off so the count is literal. *)

(** Internal canonicalization machinery under stable builders, so the test
    suite can state the canonicalization laws — idempotence, invariance
    under waiter relabelings, pinned slots never moved — directly against
    the production comparator and permutation application.  Not for
    production use. *)
module Testing : sig
  type slot
  (** One process's control point as the fingerprint sees it. *)

  val idle : begun:int -> last:Op.value option -> slot

  val running :
    label:string ->
    seq:int ->
    resps_rev:Op.value list ->
    snap:int array ->
    slot
  (** [snap] is the per-pid completed-call snapshot at the call's start;
      its length must equal the slot array's. *)

  val relabel : perm:int array -> slot array -> slot array
  (** Image of the array under [perm] (old pid -> new pid), slot positions
      and every running slot's snapshot re-indexed alike. *)

  val canonicalize : symmetry:Sim.Pid_set.t -> slot array -> slot array * bool
  (** The canonical orbit representative of the array's dedup key, and
      whether a non-identity relabeling produced it. *)

  val equal : slot array -> slot array -> bool
  (** The fingerprint's exact metadata equality. *)

  val slot_equal : slot -> slot -> bool
end
