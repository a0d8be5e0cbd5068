(** Compatibility façade over the experiment registry.

    The experiment suite lives under [lib/core/experiments/]: one module
    per experiment, each exposing an {!Experiment_def.spec}, enumerated by
    {!Experiment_registry.all} and executed by {!Runner}.  This module
    re-exports the historical entry points — [e1]..[e13] as
    {!Results.table}s and the algorithm catalog of {!Algorithms} — so
    existing callers keep working; prefer the registry for new code. *)

module Queue_multi_signaler : Signaling.POLLING

val polling_algorithms : (module Signaling.POLLING) list
val find_algorithm : string -> (module Signaling.POLLING) option
val config_for : (module Signaling.POLLING) -> n:int -> Signaling.config
val locks : (module Sync.Mutex_intf.LOCK) list
val blocking_algorithms : (module Signaling.BLOCKING) list

val e1 : ?ns:int list -> unit -> Results.table
val e2 : ?ns:int list -> unit -> Results.table
val e3 : ?n:int -> ?partial:int -> unit -> Results.table list
val e4 : ?n:int -> ?ks:int list -> unit -> Results.table
val e5 : ?n:int -> unit -> Results.table
val e6 : ?ns:int list -> unit -> Results.table
val e7 : ?ns:int list -> ?entries:int -> unit -> Results.table
val e8 : ?n:int -> ?ks:int list -> unit -> Results.table list
val e9 : ?n:int -> unit -> Results.table
val e10 : ?ns:int list -> ?entries:int -> unit -> Results.table
val e11 : ?n:int -> ?delta:int -> ?seeds:int list -> unit -> Results.table
val e12 : ?n:int -> ?capacities:int list -> unit -> Results.table
val e13 : ?n:int -> ?seed:int -> unit -> Results.table

val contention_total : (module Signaling.POLLING) -> n:int -> k:int -> int
(** Total RMRs when [k] waiters register under the maximal-collision
    schedule of E8a. *)

val all : unit -> Results.table list
(** Every registered experiment's tables, in registry order ([Default]
    parameter sets, sequential). *)

val run_all : Format.formatter -> unit
