(* Symbolic fuzz cases.

   A case is a self-contained description of one differential experiment:
   what the processes run — a random straight-line program over a tiny
   shared heap, a catalog signaling algorithm, or a lint-registry entry —
   and the exact schedule driving them.  Cases are plain data (integers
   and lists of integers all the way down), so a case can be printed,
   structurally compared, shrunk, and regenerated byte-identically from
   its (seed, index) pair alone.

   Elaboration is total by construction: out-of-range cell indices, homes
   and pids are wrapped rather than rejected, so every syntactic case —
   in particular every case the shrinker proposes — is runnable. *)

open Smr

type cell = { home : int; (* -1 = Shared, otherwise a pid (mod n) *) init : int }

type decision =
  | Step of Op.pid (* advance if mid-call, else begin the next queued call *)
  | Crash of Op.pid (* crash if mid-call, else no-op *)

type family =
  | Programs of {
      cells : cell list;
      calls : Op.invocation list list list;
          (* per pid: the call list; each call is an op list whose
             addresses are cell INDICES, remapped at elaboration *)
    }
  | Script of { algorithm : string; polls : int }
      (* a catalog signaling algorithm: the signaler signals once, every
         waiter polls up to [polls] times *)
  | Entry of { entry : string; repeats : int }
      (* a lint-registry entry: every registered call, run [repeats]
         times by each of its analyzed pids *)

type t = {
  seed : int;
  index : int;
  n : int;
  family : family;
  schedule : decision list;
}

let family_name = function
  | Programs _ -> "programs"
  | Script _ -> "script"
  | Entry _ -> "entry"

(* Structural size, the measure the shrinker must strictly decrease. *)
let size t =
  List.length t.schedule + t.n
  +
  match t.family with
  | Programs { cells; calls } ->
    List.length cells
    + List.fold_left
        (fun acc per_pid ->
          List.fold_left (fun acc ops -> acc + 1 + List.length ops) acc per_pid)
        0 calls
  | Script { polls; _ } -> polls
  | Entry { repeats; _ } -> repeats

(* {1 Elaboration} *)

type runnable = {
  r_n : int;
  r_layout : Var.layout;
  r_calls : (string * Op.value Program.t) list array;
      (* per pid, the queue of calls the schedule's [Step]s consume *)
}

let rec program_of ops =
  match ops with
  | [] -> Program.return 0
  | [ inv ] -> Program.step inv
  | inv :: rest -> Program.bind (Program.step inv) (fun _ -> program_of rest)

let elaborate_programs ~n ~cells ~calls =
  let cells = match cells with [] -> [ { home = -1; init = 0 } ] | l -> l in
  let ncells = List.length cells in
  let ctx = Var.Ctx.create () in
  let handles =
    List.mapi
      (fun i c ->
        let home =
          if c.home < 0 then Var.Shared
          else Var.Module (((c.home mod n) + n) mod n)
        in
        Var.Ctx.int ctx ~name:(Printf.sprintf "x%d" i) ~home c.init)
      cells
  in
  let addrs = Array.of_list (List.map Var.addr handles) in
  let layout = Var.Ctx.freeze ctx in
  let cell i = addrs.(((i mod ncells) + ncells) mod ncells) in
  let remap : Op.invocation -> Op.invocation = function
    | Op.Read i -> Op.Read (cell i)
    | Op.Write (i, v) -> Op.Write (cell i, v)
    | Op.Cas (i, e, u) -> Op.Cas (cell i, e, u)
    | Op.Ll i -> Op.Ll (cell i)
    | Op.Sc (i, v) -> Op.Sc (cell i, v)
    | Op.Faa (i, d) -> Op.Faa (cell i, d)
    | Op.Fas (i, v) -> Op.Fas (cell i, v)
    | Op.Tas i -> Op.Tas (cell i)
  in
  let r_calls =
    Array.init n (fun p ->
        match List.nth_opt calls p with
        | None | Some [] -> []
        | Some per_pid ->
          List.mapi
            (fun j ops ->
              (Printf.sprintf "c%d" j, program_of (List.map remap ops)))
            per_pid)
  in
  { r_n = n; r_layout = layout; r_calls }

let elaborate_script ~n ~algorithm ~polls =
  match Core.Algorithms.find_algorithm algorithm with
  | None -> invalid_arg ("Fuzz.Case: unknown algorithm " ^ algorithm)
  | Some (module A : Core.Signaling.POLLING) ->
    let cfg = Core.Algorithms.config_for (module A) ~n in
    let ctx = Var.Ctx.create () in
    let inst = Core.Signaling.instantiate (module A) ctx cfg in
    let layout = Var.Ctx.freeze ctx in
    let polls = max 1 polls in
    let r_calls =
      Array.init n (fun p ->
          if List.mem p cfg.Core.Signaling.signalers then
            [ ( Core.Signaling.signal_label,
                inst.Core.Signaling.i_signal p ) ]
          else if List.mem p cfg.Core.Signaling.waiters then
            List.init polls (fun _ ->
                (Core.Signaling.poll_label, inst.Core.Signaling.i_poll p))
          else [])
    in
    { r_n = n; r_layout = layout; r_calls }

let elaborate_entry ~entry ~repeats =
  match Analysis.Registry.find entry with
  | None -> invalid_arg ("Fuzz.Case: unknown registry entry " ^ entry)
  | Some e ->
    let repeats = max 1 repeats in
    let r_calls =
      Array.init e.Analysis.Registry.n (fun p ->
          List.concat_map
            (fun (c : Analysis.Registry.call) ->
              if List.mem p c.Analysis.Registry.pids then
                List.init repeats (fun _ ->
                    (c.Analysis.Registry.label, c.Analysis.Registry.program p))
              else [])
            e.Analysis.Registry.calls)
    in
    { r_n = e.Analysis.Registry.n; r_layout = e.Analysis.Registry.layout; r_calls }

let elaborate t =
  match t.family with
  | Programs { cells; calls } ->
    elaborate_programs ~n:(max 1 t.n) ~cells ~calls
  | Script { algorithm; polls } ->
    elaborate_script ~n:(max 2 t.n) ~algorithm ~polls
  | Entry { entry; repeats } -> elaborate_entry ~entry ~repeats

(* {1 Printing (finding dumps and replay artifacts)} *)

let pp_decision ppf = function
  | Step p -> Fmt.pf ppf "S%d" p
  | Crash p -> Fmt.pf ppf "C%d" p

let pp ppf t =
  Fmt.pf ppf "@[<v>case seed=%d index=%d n=%d family=%s@," t.seed t.index t.n
    (family_name t.family);
  (match t.family with
  | Programs { cells; calls } ->
    Fmt.pf ppf "cells:";
    List.iteri
      (fun i c ->
        Fmt.pf ppf " x%d(home=%s init=%d)" i
          (if c.home < 0 then "shared" else string_of_int c.home)
          c.init)
      cells;
    Fmt.pf ppf "@,";
    List.iteri
      (fun p per_pid ->
        Fmt.pf ppf "pid %d:" p;
        List.iter
          (fun ops ->
            Fmt.pf ppf " [%s]"
              (String.concat "; " (List.map Op.show_invocation ops)))
          per_pid;
        Fmt.pf ppf "@,")
      calls
  | Script { algorithm; polls } ->
    Fmt.pf ppf "algorithm=%s polls=%d@," algorithm polls
  | Entry { entry; repeats } ->
    Fmt.pf ppf "entry=%s repeats=%d@," entry repeats);
  Fmt.pf ppf "schedule(%d): %a@]"
    (List.length t.schedule)
    Fmt.(list ~sep:sp pp_decision)
    t.schedule

let to_string t = Fmt.str "%a" pp t
