(* Exhaustive Specification 4.1 checks at small scope.  The scope is
   validated before anything is instantiated, so a bad one is an [Error]
   naming the parameter, never an exception out of [Signaling.instantiate]
   or an empty search.  Symmetry detection and the static-independence
   facts are lazy: a search that uses neither pays for neither. *)

open Smr

type t = {
  cfg : Signaling.config;
  name : string;
  polls : int;
  layout : Var.layout;
  scripts : (Op.pid * Explore.script) list;
  symmetry : Sim.Pid_set.t Lazy.t;
  facts : Analysis.Independence.facts Lazy.t;
}

let validate (cfg : Signaling.config) ~polls flexibility =
  let ( let* ) = Result.bind in
  let* () =
    if polls >= 1 then Ok ()
    else Error (Printf.sprintf "polls = %d: each waiter must poll at least once" polls)
  in
  let* () =
    if cfg.waiters <> [] then Ok ()
    else Error "waiters: at least one waiter is required"
  in
  let* () = Signaling.validate_config flexibility cfg in
  match List.find_opt (fun p -> List.mem p cfg.signalers) cfg.waiters with
  | Some p -> Error (Printf.sprintf "pid %d is both a waiter and a signaler" p)
  | None -> Ok ()

let make (module A : Signaling.POLLING) (cfg : Signaling.config) ~polls =
  match validate cfg ~polls A.flexibility with
  | Error _ as e -> e
  | Ok () -> (
    let ctx = Var.Ctx.create () in
    (* [create] may still refuse a shape the flexibility record cannot
       express (dsm-registration wants exactly one signaler). *)
    match Signaling.instantiate (module A) ctx cfg with
    | exception Invalid_argument msg -> Error msg
    | inst ->
      let layout = Var.Ctx.freeze ctx in
      let signal s = (Signaling.signal_label, inst.Signaling.i_signal s) in
      let poll w = (Signaling.poll_label, inst.Signaling.i_poll w) in
      let scripts =
        List.map (fun s -> (s, Explore.of_list [ signal s ])) cfg.signalers
        @ List.map
            (fun w ->
              (w, Explore.repeat ~limit:polls ~until:(fun r -> r = 1) (poll w)))
            cfg.waiters
      in
      let values = lazy (Analysis.Lint.value_domain ~n:cfg.n ~layout) in
      let symmetry =
        lazy
          (Explore.detect_symmetry ~values:(Lazy.force values)
             (List.map (fun w -> (w, poll w)) cfg.waiters))
      in
      let facts =
        lazy
          (let extract pid (_, prog) =
             ( pid,
               Analysis.Cfg.extract ~values:(Lazy.force values)
                 ~exclusive:(fun _ -> false) ~pid prog )
           in
           Analysis.Independence.of_cfgs
             (List.map (fun s -> extract s (signal s)) cfg.signalers
             @ List.map (fun w -> extract w (poll w)) cfg.waiters))
      in
      Ok { cfg; name = A.name; polls; layout; scripts; symmetry; facts })

let layout t = t.layout
let scripts t = t.scripts
let symmetry t = Lazy.force t.symmetry
let facts t = Lazy.force t.facts

type search = {
  cap : int;
  dedup : bool;
  por : bool;
  symmetry : bool;
  static_indep : bool;
}

let default_search =
  { cap = 1_000_000; dedup = true; por = true; symmetry = true;
    static_indep = false }

let run ~lean t (s : search) =
  Explore.check ~max_histories:s.cap ~dedup:s.dedup ~por:s.por
    ~commute:
      (if s.static_indep then Analysis.Independence.commute (facts t)
       else Op.commute)
    ~lean
    ~symmetry:(if s.symmetry then symmetry t else Sim.Pid_set.empty)
    ~layout:t.layout ~model:(Cost_model.dsm t.layout) ~n:t.cfg.n
    ~scripts:t.scripts ~property:Signaling.polling_ok ()

let check t search = run ~lean:true t search

let witness t search (r : Explore.result) =
  match r.Explore.violation with
  | Some sim when Sim.is_lean sim -> (
    match (run ~lean:false t search).Explore.violation with
    | Some _ as full -> full
    | None -> Some sim)
  | v -> v

let table t (s : search) (r : Explore.result) =
  let st = r.Explore.stats in
  let waiters = List.length t.cfg.waiters in
  Results.make ~experiment:"explore"
    ~title:
      (Printf.sprintf "Exhaustive check of %s (N=%d, %d waiters)" t.name t.cfg.n
         waiters)
    ~claim:"Specification 4.1 holds on every explored interleaving"
    ~params:
      Results.
        [ ("algorithm", text t.name); ("n", int t.cfg.n); ("waiters", int waiters);
          ("polls", int t.polls);
          ("signalers", int (List.length t.cfg.signalers)); ("cap", int s.cap);
          ("dedup", bool s.dedup); ("por", bool s.por);
          ("static_indep", bool s.static_indep);
          ( "symmetry",
            int (if s.symmetry then Sim.Pid_set.cardinal (symmetry t) else 0) )
        ]
    ~columns:
      Results.
        [ measure "histories"; measure "truncated"; measure "complete";
          measure "violation"; measure "states"; measure "dedup_hits";
          measure "por_prunes"; measure "tasks"; measure "max_depth";
          measure "orbit_hits"; measure "fp_distinct"; measure "fp_collisions";
          measure "fp_resizes"; measure "fp_slots" ]
    Results.
      [ [ int r.Explore.histories; int r.Explore.truncated;
          bool r.Explore.complete; bool (r.Explore.violation <> None);
          int st.Explore.states; int st.Explore.dedup_hits;
          int st.Explore.por_prunes; int st.Explore.tasks;
          int st.Explore.max_depth; int st.Explore.orbit_hits;
          int st.Explore.fp_distinct; int st.Explore.fp_collisions;
          int st.Explore.fp_resizes; int st.Explore.fp_slots ] ]
