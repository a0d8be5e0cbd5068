(** Fingerprint interning: dense small-integer ids for hash-plus-exact-key
    identified values.

    {!Smr.Explore} identifies each search state by an incrementally
    maintained integer hash plus an exact (structural) key.  An interning
    table turns that pair into a small int id, so the visited-state table
    and its sleep-set entries hash and compare on ints; the exact key is
    consulted only when two states share a hash — a revisit or a genuine
    collision.  Distinct keys always receive distinct ids, so interning
    never affects soundness, only constant factors. *)

val mix : int -> int -> int
(** [mix h x] folds one more field [x] into the rolling hash [h].  Affine
    in each argument: never sum its results directly. *)

val avalanche : int -> int
(** A nonlinear bijective finalizer (splitmix64-style).  Apply it to each
    term of an additive hash combination, so that the sum depends on the
    terms themselves rather than only on per-field totals. *)

type 'a t

val create : ?size:int -> equal:('a -> 'a -> bool) -> unit -> 'a t
(** An empty table.  [equal] decides key identity exactly; it is called
    only on keys whose hashes coincide. *)

val intern : 'a t -> hash:int -> 'a -> int
(** The id of [key]: the id assigned on its first interning (ids are
    dense, starting at 0, in first-seen order).  Two keys receive the same
    id iff they have the same [hash] {e and} are [equal]. *)

val distinct : 'a t -> int
(** Number of distinct keys interned so far (= the next id). *)

val collisions : 'a t -> int
(** Number of distinct keys that landed in an already-occupied hash
    bucket — a diagnostic for hash quality, not a correctness signal. *)

val resizes : 'a t -> int
(** Times the slot array has doubled (load factor kept under 1/2); a
    sizing diagnostic — seed [create ~size] to amortize it away. *)

val slots : 'a t -> int
(** Current slot-array capacity (a power of two).  Together with
    {!distinct} this gives the occupancy [distinct /. slots]. *)
