(** Spill-to-disk fingerprint storage: dense-id interning of byte keys with
    a per-id payload, held in fixed-size segments that page out to binary
    files under a resident byte budget.

    The explorer's in-memory dedup tables retain every distinct state for
    the whole search, bounding the verifiable scope by RAM.  This store
    keeps the same contract — intern a (hash, exact key) pair to a dense
    id, read/update the per-id payload (the sleep-set antichain) — while
    holding the bulky key bytes and payloads in segments of [seg_keys]
    consecutive ids.  The hash index (two flat int arrays, as in
    {!Fp_intern}) stays resident; segments beyond [budget_bytes] are
    marshalled to [Filename.concat dir "seg<i>.bin"] least-recently-
    touched first and read back on a probe miss (payloads updated since
    the last write trigger a rewrite on the next eviction).

    Determinism: for a deterministic probe sequence, ids, file bytes and
    the {!spilled}/{!reloads} counters are all pure functions of that
    sequence — no clocks, no randomness.  The store is single-owner;
    concurrent explorer searches use disjoint [dir]s. *)

type 'c t
(** A store whose per-id payload has type ['c].  The payload must contain
    no functions (it is marshalled); the explorer stores
    [Sim.Pid_set.t list] antichains. *)

val create :
  dir:string ->
  ?seg_keys:int ->
  budget_bytes:int ->
  chain_zero:'c ->
  chain_bytes:('c -> int) ->
  unit ->
  'c t
(** An empty store spilling to [dir] (created lazily on first eviction).
    [seg_keys] (default 4096, minimum 16) ids per segment; [budget_bytes]
    caps the resident window (the segment being filled and the one being
    probed stay pinned, so a tiny budget degrades to paging, never to a
    wrong answer).  [chain_zero] is the payload every fresh id starts
    with; [chain_bytes] estimates a payload's resident footprint for the
    budget accounting. *)

val intern : 'c t -> hash:int -> string -> int
(** The id of the key: dense, first-seen order, starting at 0.  Two keys
    receive the same id iff they have the same [hash] and equal bytes.
    May page segments in and out. *)

val key : 'c t -> int -> string
(** The exact key bytes interned under this id (paging its segment in if
    needed). *)

val chain : 'c t -> int -> 'c

val set_chain : 'c t -> int -> 'c -> unit
(** Read / replace the payload of an interned id.  Updates mark the
    segment dirty, so a later eviction rewrites its file. *)

val distinct : 'c t -> int
(** Number of distinct keys interned so far (= the next id). *)

val collisions : 'c t -> int
(** Distinct keys that landed in an occupied hash bucket. *)

val resizes : 'c t -> int
(** Times the resident hash index doubled. *)

val slots : 'c t -> int
(** Current hash-index capacity (a power of two). *)

val segments : 'c t -> int
(** Segments allocated so far (resident or spilled). *)

val spilled : 'c t -> int
(** Segment files written — rewrites of dirty reloaded segments
    included.  0 iff the whole search fit in the budget. *)

val reloads : 'c t -> int
(** Segments read back from disk on a probe miss. *)

val cleanup : 'c t -> unit
(** Best-effort removal of every written segment file and, if created, the
    spill directory itself.  The store must not be used afterwards. *)
