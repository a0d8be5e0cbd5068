(** Ordered fan-out over OCaml 5 domains.

    The simulator is purely functional and every experiment run is
    deterministic, so independent runs can execute on separate domains;
    results are always assembled in input order, making output independent
    of completion order (and therefore of [jobs]). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs] domains.
    [jobs <= 1], short lists, and calls from inside a worker domain (nested
    fan-out) degrade to sequential [List.map].  If any [f x] raises, the
    exception re-raised after all workers join is the one [List.map] would
    raise: that of the lowest-index failing element, independent of
    scheduling. *)
