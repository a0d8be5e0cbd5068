(** The algorithm catalog: every shipped signaling algorithm, lock and GME
    algorithm, with the standard configurations the experiments and the CLI
    share. *)

module Queue_multi_signaler : Signaling.POLLING
(** [Multi_signaler.Make (Dsm_queue)]: the Section 7 many-signalers
    construction over the queue solution, registered so the CLI and the
    landscape experiments cover it. *)

val polling_algorithms : (module Signaling.POLLING) list
(** Every polling algorithm shipped, in presentation order. *)

val find_algorithm : string -> (module Signaling.POLLING) option

val config_for : (module Signaling.POLLING) -> n:int -> Signaling.config
(** The standard configuration: process 0 signals, everyone else may wait
    (one waiter for the single-waiter algorithm). *)

val locks : (module Sync.Mutex_intf.LOCK) list
(** The Section 3 mutual-exclusion landscape, in presentation order. *)

val blocking_algorithms : (module Signaling.BLOCKING) list
(** The Wait() solutions: spin-wrapped polling algorithms plus the
    leader-based construction. *)

val config_for_blocking : n:int -> Signaling.config

val run_or_blocks :
  (module Signaling.POLLING) ->
  model:Scenario.model_tag ->
  cfg:Signaling.config ->
  ?active_waiters:Smr.Op.pid list ->
  unit ->
  (Scenario.outcome, string) result
(** {!Scenario.run_phased} under a bounded fuel; [Error "blocks"] when the
    algorithm cannot terminate under this schedule (e.g. dsm-fixed-term
    with absent waiters), [Error "failed"] on any other failure. *)
