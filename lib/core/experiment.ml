(* Compatibility façade over the experiment registry.

   The suite itself lives in lib/core/experiments/ (one module per
   experiment, registered in Experiment_registry); the algorithm catalog
   lives in Algorithms.  This module re-exports both under the historical
   names, so existing callers keep compiling.  New code should prefer
   Experiment_registry + Runner directly. *)

module Queue_multi_signaler = Algorithms.Queue_multi_signaler

let polling_algorithms = Algorithms.polling_algorithms
let find_algorithm = Algorithms.find_algorithm
let config_for = Algorithms.config_for
let locks = Algorithms.locks
let blocking_algorithms = Algorithms.blocking_algorithms

let e1 ?ns () = E1_cc_flag.table ?ns ()
let e2 ?ns () = E2_adversary.table ?ns ()
let e3 ?n ?partial () = E3_landscape.tables ?n ?partial ()
let e4 ?n ?ks () = E4_queue_k.table ?n ?ks ()
let e5 ?n () = E5_separation.table ?n ()
let e6 ?ns () = E6_messages.table ?ns ()
let e7 ?ns ?entries () = E7_mutex.table ?ns ?entries ()
let e8 ?n ?ks () = E8_cas.tables ?n ?ks ()
let e9 ?n () = E9_rounds.table ?n ()
let e10 ?ns ?entries () = E10_gme.table ?ns ?entries ()
let e11 ?n ?delta ?seeds () = E11_timing.table ?n ?delta ?seeds ()
let e12 ?n ?capacities () = E12_caches.table ?n ?capacities ()
let e13 ?n ?seed () = E13_blocking.table ?n ?seed ()

let contention_total = E8_cas.contention_total

let all () =
  Runner.tables
    (Runner.run ~jobs:1 ~size:Experiment_def.Default
       (Experiment_registry.all ()))

let run_all ppf =
  List.iter (fun t -> Fmt.pf ppf "%a@." Results.pp t) (all ())
