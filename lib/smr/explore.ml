(* Exhaustive interleaving exploration: a small-scope model checker.

   The paper's histories allow arbitrary interleavings; randomized testing
   samples them, this module enumerates them.  Given a per-process script
   of procedure calls, [check] drives the machine through every possible
   step-level interleaving (depth-first over the persistent state — a
   branch is just a retained binding) and evaluates a property on every
   complete history.

   The naive step-level DFS explodes combinatorially, so two reductions
   make exhaustive checking scale past toy scopes, both of them exploiting
   the persistence of [Sim.t] (symmetry reduction, below, is a third):

   - State deduplication.  A canonical fingerprint of (memory contents,
     per-process control point) identifies states whose futures coincide;
     a revisited state is pruned.  Soundness needs the fingerprint to
     determine both future behavior and future property verdicts, which is
     why it includes, per running call, the responses received so far (the
     continuation of a deterministic program is a function of them) and a
     snapshot of every process's completed-call count at the call's start
     (Specification-4.1-style verdicts compare a call's start against
     earlier completions).  Begun counts are deliberately not snapshotted:
     began-before-began is not an interval-order relation, so states that
     differ only in the order of concurrent call starts merge.

   - Sleep-set partial-order reduction.  Two enabled moves commute when
     swapping them changes neither future machine behavior nor any
     interval-order relation: two advances whose operations commute
     ([Op.commute]: different cells, or both read-only), two begins
     (scripts read only their own process's state and a begin touches no
     memory), and a begin against a non-completing advance.  A call
     completion is an interval endpoint, so nothing slides past it except
     commuting advances (no call start separates two adjacent non-begin
     moves).  Only one representative order per commuting pair is
     explored.

   The search is one depth-first pass from the root on the calling domain,
   against one dedup table.  Splitting the tree into subtree tasks with
   private tables does not pay: a state reachable under two tasks is
   explored once per task, and at the benchmark scopes that costs 4-9x
   the states, more than two domains win back.  A table shared between
   domains would not be deterministic either, because sleep-set
   antichains depend on visit order.  Every reported number is therefore
   a pure function of the inputs.

   Three further constant-factor decisions keep the per-state cost flat
   (see docs/MODEL.md, "Exploration fast path"):

   - The machine steps in [Sim.lean_mode]: no per-step history records and
     no replayable trace are accumulated — the property contract below
     consumes only call records and counters, and those are all kept.

   - Memory identity is decided through [Memory.fp_hash], a running
     behavioral hash maintained incrementally per operation, so
     fingerprinting a state is O(running calls), not O(cells); the
     structural comparison ([Memory.same_fingerprint]) runs only to
     confirm a hash match.

   - Fingerprints are interned ([Fp_intern]) to dense small ints, so the
     visited table keys, hashes and compares on ints.

   Dedup and POR assume (and [check]'s documentation requires) that the
   property judges each call, at its completion, from the call's own
   result and its interval-order relations (which calls completed before
   it began, which began before it finished) — true of Specification 4.1
   and the GME occupancy predicate — and that scripts consult only the
   script-visible state (own call count and last result).  Both
   reductions can be switched off, which restores the seed checker's
   exact leaf-per-interleaving semantics ([count] does exactly that). *)

module Pid_set = Sim.Pid_set

(* What a process does between calls: a PURE function of the machine state
   (branches share nothing, so stateful closures would corrupt the
   search).  [None] means the process is done. *)
type script = Sim.t -> Op.pid -> (string * Op.value Program.t) option

(* A fixed list of calls, performed in order; the per-branch position is
   recovered from the machine itself (number of calls begun so far,
   O(log n) via the simulator's per-process ordinal map). *)
let of_list calls : script =
 fun sim p -> List.nth_opt calls (Sim.call_count sim p)

(* Repeat a call until its result satisfies [until], at most [limit]
   times — e.g. "Poll() until it returns true", the history restriction of
   Section 4. *)
let repeat ?(limit = max_int) ~until (label, program) : script =
 fun sim p ->
  match Sim.last_result sim p with
  | Some r when until r -> None
  | Some _ | None ->
    if Sim.call_count sim p >= limit then None else Some (label, program)

type stats = {
  states : int; (* search nodes visited (dedup/POR-pruned nodes included) *)
  dedup_hits : int; (* nodes pruned because an equivalent state was explored *)
  por_prunes : int; (* nodes whose every enabled move was asleep *)
  tasks : int; (* always 1: the search is one depth-first pass *)
  max_depth : int; (* deepest step count reached on any branch *)
  orbit_hits : int; (* dedup hits whose canonical key was relabeled *)
  fp_distinct : int; (* distinct dedup keys interned *)
  fp_collisions : int; (* full-hash collisions among distinct keys *)
  fp_resizes : int; (* intern-table slot doublings *)
  fp_slots : int; (* intern-table slot capacity *)
  spill_segments : int; (* segment files written under --mem-budget *)
  spill_reloads : int; (* segments read back on a probe miss *)
  wall_s : float; (* wall-clock seconds (the only run-dependent field) *)
}

type result = {
  histories : int; (* complete histories the property was checked on *)
  truncated : int; (* branches cut at [max_steps_per_history] (spin loops) *)
  complete : bool; (* false if a cap stopped or truncated the enumeration *)
  violation : Sim.t option; (* a history falsifying the property *)
  stats : stats;
}

(* --- moves --- *)

type move =
  | M_advance of Op.invocation (* the process's pending operation *)
  | M_begin of string * Op.value Program.t

(* --- per-process search metadata --- *)

(* Per-running-call metadata the fingerprint needs but the simulator does
   not keep: the responses received so far inside the call (they determine
   the continuation of a deterministic program) and the completed-call
   counts of every scripted process at the call's start (they determine
   how interval-order properties will judge the call once it completes). *)
type call_meta = {
  program : Op.value Program.t;
      (* the call's remaining program, advanced in lockstep with the
         machine — it yields the pending invocation and the continuation
         without querying the machine at every node *)
  label : string;
  label_h : int; (* [Hashtbl.hash label], computed once at the begin *)
  seq : int; (* the call's per-process ordinal *)
  begun : int; (* calls this process has begun, this one included *)
  resps_rev : Op.value list;
  resps_len : int; (* [List.length resps_rev], maintained incrementally *)
  resps_h : int; (* rolling hash of [resps_rev], maintained incrementally *)
  snap : int array;
      (* per-process completed-call counts (indexed by pid) at this call's
         start: they decide which completions precede the call in the
         interval order.  Begun counts are deliberately absent —
         began-before-began is not an interval-order relation, and
         omitting them lets states that differ only in the order of
         concurrent call starts merge.  Never mutated after creation. *)
}

(* One entry per process, indexed by pid (pids are dense: [Sim.create ~n]
   numbers them [0..n-1]).  The explorer never terminates or crashes a
   process (a script that answers [None] just stops producing moves), so
   idle-with-history and running are the only control points — and every
   fact the fingerprint and the move enumeration need is maintained here
   incrementally, instead of being re-queried from the machine's maps at
   every search node.  The array is copy-on-write: [apply_move] copies,
   nothing ever mutates an existing array — each one is retained as part
   of its state's interned fingerprint.  Unscripted processes stay
   [P_idle (0, None)] forever; their contribution to every fingerprint is
   the same constant, so including them changes no state equivalence. *)
type pmeta =
  | P_idle of int * Op.value option (* calls begun, last result *)
  | P_running of call_meta

let meta0 n = Array.make n (P_idle (0, None))

(* Enabled moves in script order: advance if mid-call, else begin whatever
   the script asks for next.  A process whose script answers [None] is
   done.  Running processes never touch the machine here — the pending
   invocation comes straight from the tracked program. *)
let moves scripts (meta : pmeta array) sim =
  List.filter_map
    (fun ((p : Op.pid), (script : script)) ->
      match meta.(p) with
      | P_running m -> (
        match Program.next_invocation m.program with
        | Some inv -> Some (p, M_advance inv)
        | None -> assert false (* running implies a pending operation *))
      | P_idle _ -> (
        match script sim p with
        | None -> None
        | Some (label, program) -> Some (p, M_begin (label, program))))
    scripts

(* --- fingerprinting --- *)

(* A state's exact identity: the memory (persistent, so retaining it is
   free; compared behaviorally via [Memory.same_fingerprint], never
   serialized) and the per-process control points — which are the tracked
   metadata array itself.  The array is copy-on-write, so retaining it as
   a key is free and fingerprinting a state allocates one record,
   independent of how many cells the store holds or how deep the history
   is.  Equality and hashing read only the fingerprint-relevant fields:
   [program] is excluded by construction (for a deterministic program it
   is a function of the call's label and responses), [begun] because for a
   running call it always equals [seq + 1]. *)
type fp = { fp_mem : Memory.t; fp_meta : pmeta array }

(* Exact state identity, consulted only when two states share a hash.  The
   process summaries go first: their scalar prefixes reject unequal
   control points before the memory walk runs.  All comparisons are
   monomorphic and fail-fast — on a dedup hit (the common case: the keys
   ARE equal) the whole comparison is a run of int compares plus physical
   shortcuts on shared labels, list spines and snapshot arrays, never the
   generic structural compare, which profiles as one of the hottest calls
   otherwise. *)
let value_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Op.value_equal x y
  | None, Some _ | Some _, None -> false

let rec resps_equal l1 l2 =
  l1 == l2
  ||
  match (l1, l2) with
  | x :: t1, y :: t2 -> Op.value_equal x y && resps_equal t1 t2
  | [], [] -> true
  | [], _ :: _ | _ :: _, [] -> false

let snap_equal (s1 : int array) (s2 : int array) =
  s1 == s2
  || (Array.length s1 = Array.length s2
     &&
     let rec go i = i < 0 || (s1.(i) = s2.(i) && go (i - 1)) in
     go (Array.length s1 - 1))

let pmeta_equal a b =
  match (a, b) with
  | P_idle (c1, r1), P_idle (c2, r2) -> c1 = c2 && value_opt_equal r1 r2
  | P_running m1, P_running m2 ->
    m1.label_h = m2.label_h && m1.seq = m2.seq && m1.resps_len = m2.resps_len
    && m1.resps_h = m2.resps_h
    && (m1.label == m2.label || String.equal m1.label m2.label)
       (* scripts hand out the same physical label string every time, so
          the string walk virtually never runs *)
    && resps_equal m1.resps_rev m2.resps_rev
    && snap_equal m1.snap m2.snap
  | P_idle _, P_running _ | P_running _, P_idle _ -> false

let metas_equal (a : pmeta array) (b : pmeta array) =
  a == b
  || (Array.length a = Array.length b
     &&
     let rec go i = i < 0 || (pmeta_equal a.(i) b.(i) && go (i - 1)) in
     go (Array.length a - 1))

let fp_equal a b =
  metas_equal a.fp_meta b.fp_meta
  && Memory.same_fingerprint a.fp_mem b.fp_mem

let mix = Fp_intern.mix

(* The generic [Hashtbl.hash] is unusable here: its traversal is capped at
   256 nodes, and deep in a spin loop every state shares the same 256-node
   prefix, so all keys collide and probes degrade to long structural
   comparisons.  Instead the scalar summaries are folded explicitly, each
   of them already maintained incrementally: [Memory.fp_hash] is a per-
   operation delta, [resps_h] a per-response delta — so hashing a state is
   O(processes), touching no cell and no response list.  [fp_equal] still
   decides matches exactly, so collisions cost time, never soundness. *)
let rec hash_snap (s : int array) i h =
  if i >= Array.length s then h else hash_snap s (i + 1) (mix h s.(i))

(* Hash of one process's control point, salted by its pid.  The state hash
   is the plain integer sum of the slot hashes (plus [Memory.fp_hash]):
   addition commutes, so the sum can be maintained incrementally — each
   move changes exactly one slot, and [apply_move] swaps that slot's
   contribution out and in — making the per-node hashing cost O(1) slots
   instead of a walk over all of them.  Each slot hash goes through
   [Fp_intern.avalanche] before it is summed: [mix] alone is affine, and a
   sum of affine slot hashes would depend only on per-field totals across
   processes, so states that shift a count from one process to another
   would collide.  [fp_equal] decides matches exactly, so collisions cost
   time, never soundness. *)
let slot_hash (i : int) pm =
  Fp_intern.avalanche
    (match pm with
    | P_idle (c, r) ->
      mix
        (mix (mix ((i + 1) * 0x9E3779B9) 5) c)
        (match r with None -> min_int | Some v -> v)
    | P_running m ->
      hash_snap m.snap 0
        (mix
           (mix
              (mix (mix (mix ((i + 1) * 0x9E3779B9) 7) m.label_h) m.seq)
              m.resps_len)
           m.resps_h))

(* Full slot-hash sum of a metadata array — the non-incremental form of
   the state hash, used at the root and whenever canonicalization has
   relabeled slots (the sum is index-salted, so a relabeled array cannot
   reuse the incrementally maintained value). *)
let mh_full (meta : pmeta array) =
  let h = ref 0 in
  for i = 0 to Array.length meta - 1 do
    h := !h + slot_hash i meta.(i)
  done;
  !h

(* Initial state hash, matching [meta0]. *)
let mh0 n = mh_full (meta0 n)

let mh_swap mh (meta : pmeta array) p pm =
  mh - slot_hash p meta.(p) + slot_hash p pm

(* --- symmetry reduction: orbit-canonical dedup keys --- *)

(* Interchangeable processes — the signaling problem's waiters — make the
   search factorially redundant: a state and its image under a waiter-pid
   permutation have isomorphic futures, yet fingerprint as distinct.  The
   reduction maps each state's {e dedup key} (never the live search state)
   to a canonical orbit representative: sort the interchangeable slots of
   the metadata array by a permutation-invariant total order, relabel every
   slot's start snapshot by the resulting permutation, and recompute the
   slot-hash sum over the canonical array.  Pruning a state because its
   orbit was visited is sound whenever (a) the symmetric pids run literally
   interchangeable scripts — same labels, same invocation/response trees —
   so futures correspond under the permutation, (b) no symmetric pid
   executes [Ll] — pids then never enter the memory fingerprint, which is
   therefore permutation-invariant (addresses never permute; values and
   links carry no symmetric pid) — and (c) the property is invariant under
   the permutation, as Specification 4.1 is (it reads labels, results and
   interval relations, never pids).  {!detect_symmetry} checks (a) and (b)
   from the scripts; (c) is the caller's contract.

   The sort key must itself be permutation-invariant, or twin states would
   sort into different canonical forms.  Per symmetric slot it reads: the
   control tag; for idle slots the begun count and last result; for running
   slots the label, ordinal, responses, and a permuted {e view} of the
   start snapshot — the pinned entries in pid order, then the slot's own
   entry, then the multiset (sorted) of the other symmetric entries.
   Relabeling permutes exactly the positions the view abstracts over, so
   twins produce the same sorted key sequence.  Keys can tie while the
   slots' cross-correlations differ; the canonical form is then
   heapsort-order dependent — some orbit twins fail to merge, which loses
   reduction, never soundness: the canonical array is always the image of
   the real state under an actual permutation, so every pruned state has a
   genuinely explored orbit representative.

   Sleep sets cross the same boundary: the antichain entries recorded for
   an orbit id live in {e canonical} pid coordinates, so the probing
   state's sleep set is mapped through the same permutation before the
   subset test — comparing raw sleep pids against a twin's entries would
   prune interleavings no representative explored. *)

type sym_ctx = {
  sym_arr : int array; (* the interchangeable pids, ascending *)
  is_sym : bool array; (* indexed by pid: membership in [sym_arr] *)
}

let sym_ctx ~n symmetry =
  let arr =
    Array.of_list
      (Pid_set.elements (Pid_set.filter (fun p -> p >= 0 && p < n) symmetry))
  in
  if Array.length arr < 2 then None
  else begin
    let is_sym = Array.make n false in
    Array.iter (fun p -> is_sym.(p) <- true) arr;
    Some { sym_arr = arr; is_sym }
  end

let cmp_value_opt a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> Int.compare x y

let rec cmp_ints l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (x : int) :: t1, y :: t2 ->
    let c = Int.compare x y in
    if c <> 0 then c else cmp_ints t1 t2

(* Permutation-invariant comparison of two symmetric slots' start
   snapshots: pinned entries in pid order, own entry, sorted multiset of
   the other symmetric entries. *)
let cmp_snap_view ctx (a : int) (b : int) (s1 : int array) (s2 : int array) =
  let n = Array.length s1 in
  let c = ref 0 and i = ref 0 in
  while !c = 0 && !i < n do
    if not ctx.is_sym.(!i) then c := Int.compare s1.(!i) s2.(!i);
    incr i
  done;
  if !c <> 0 then !c
  else
    let c = Int.compare s1.(a) s2.(b) in
    if c <> 0 then c
    else
      let others (s : int array) self =
        let l = ref [] in
        Array.iter (fun q -> if q <> self then l := s.(q) :: !l) ctx.sym_arr;
        List.sort Int.compare !l
      in
      cmp_ints (others s1 a) (others s2 b)

let cmp_slot ctx (meta : pmeta array) (a : int) (b : int) =
  match (meta.(a), meta.(b)) with
  | P_idle (c1, r1), P_idle (c2, r2) ->
    let c = Int.compare c1 c2 in
    if c <> 0 then c else cmp_value_opt r1 r2
  | P_idle _, P_running _ -> -1
  | P_running _, P_idle _ -> 1
  | P_running m1, P_running m2 ->
    let c = String.compare m1.label m2.label in
    if c <> 0 then c
    else
      let c = Int.compare m1.seq m2.seq in
      if c <> 0 then c
      else
        let c = Int.compare m1.resps_len m2.resps_len in
        if c <> 0 then c
        else
          let c = cmp_ints m1.resps_rev m2.resps_rev in
          if c <> 0 then c else cmp_snap_view ctx a b m1.snap m2.snap

(* Image of the metadata array under [perm] (old pid -> canonical pid):
   slot [p] moves to [perm.(p)] and every running slot's snapshot — the
   pinned ones included — is re-indexed the same way.  Fresh arrays only;
   the input is retained elsewhere (it is the live search state). *)
let apply_perm (perm : int array) (meta : pmeta array) =
  let n = Array.length meta in
  let relabel_snap (s : int array) =
    let s' = Array.make n 0 in
    for q = 0 to n - 1 do
      s'.(perm.(q)) <- s.(q)
    done;
    s'
  in
  let out = Array.make n (P_idle (0, None)) in
  for p = 0 to n - 1 do
    out.(perm.(p)) <-
      (match meta.(p) with
      | P_idle _ as pm -> pm
      | P_running m -> P_running { m with snap = relabel_snap m.snap })
  done;
  out

(* Canonical orbit representative of [meta]'s dedup key: [meta] itself
   (and [None]) when the symmetric slots are already sorted — the common
   case, kept allocation-free — else the relabeled array and the
   permutation that produced it. *)
let canonical ctx (meta : pmeta array) =
  let k = Array.length ctx.sym_arr in
  let sorted = ref true in
  for r = 0 to k - 2 do
    if !sorted && cmp_slot ctx meta ctx.sym_arr.(r) ctx.sym_arr.(r + 1) > 0
    then sorted := false
  done;
  if !sorted then (meta, None)
  else begin
    let order = Array.copy ctx.sym_arr in
    Array.sort (fun a b -> cmp_slot ctx meta a b) order;
    let perm = Array.init (Array.length meta) Fun.id in
    Array.iteri (fun r p -> perm.(p) <- ctx.sym_arr.(r)) order;
    (apply_perm perm meta, Some perm)
  end

(* Script-level symmetry detection: of the candidate (pid, first-call)
   pairs, the group of pids whose calls are literally interchangeable with
   the first candidate's — same label and bisimilar programs over the
   given response domain (invocations compared structurally at every node,
   continuations followed for every value in [values]) — with [Ll]
   refused anywhere in the tree (a load-link records its pid in the
   memory fingerprint, breaking permutation invariance).  [fuel] bounds
   the total nodes visited per comparison; exhausting it declines that
   candidate (sound: detection failure only loses reduction).  The check
   is exact for programs whose response branching is covered by [values]
   — {!Analysis.Lint.value_domain} covers every catalog algorithm — and
   the caller remains responsible for the property's symmetry.  Pids
   outside the returned set (signalers, asymmetric waiters) stay pinned. *)
let detect_symmetry ?(fuel = 4096) ~values candidates =
  match candidates with
  | [] | [ _ ] -> Pid_set.empty
  | (p0, (label0, prog0)) :: rest ->
    let nodes = ref fuel in
    let rec bisim p q =
      decr nodes;
      !nodes >= 0
      &&
      match (p, q) with
      | Program.Return a, Program.Return b -> Op.value_equal a b
      | Program.Step (i1, k1), Program.Step (i2, k2) ->
        Op.invocation_equal i1 i2
        && (match i1 with Op.Ll _ -> false | _ -> true)
        && List.for_all (fun v -> bisim (k1 v) (k2 v)) values
      | Program.Return _, Program.Step _ | Program.Step _, Program.Return _
        ->
        false
    in
    let self_ok =
      nodes := fuel;
      bisim prog0 prog0
    in
    if not self_ok then Pid_set.empty
    else
      let same =
        List.filter
          (fun (_, (label, prog)) ->
            String.equal label label0
            &&
            (nodes := fuel;
             bisim prog0 prog))
          rest
      in
      if same = [] then Pid_set.empty
      else Pid_set.of_list (p0 :: List.map fst same)

(* --- byte-encoded dedup keys (the spill-to-disk mode) --- *)

(* Canonical byte serialization of a dedup key, faithful to [fp_equal]:
   equal bytes iff equal fingerprints.  The metadata section comes first —
   every variable-length field is length-prefixed, so it is uniquely
   parseable and the memory section that follows cannot alias into it.
   Only [fp_equal]'s fields are encoded (no [program], no [begun], no
   derived hashes). *)
let add_i64 buf (v : int) = Buffer.add_int64_le buf (Int64.of_int v)

let encode_key buf (meta : pmeta array) mem =
  Buffer.clear buf;
  Array.iter
    (fun pm ->
      match pm with
      | P_idle (c, r) -> (
        Buffer.add_char buf '\000';
        add_i64 buf c;
        match r with
        | None -> Buffer.add_char buf '\000'
        | Some v ->
          Buffer.add_char buf '\001';
          add_i64 buf v)
      | P_running m ->
        Buffer.add_char buf '\002';
        add_i64 buf (String.length m.label);
        Buffer.add_string buf m.label;
        add_i64 buf m.seq;
        add_i64 buf m.resps_len;
        List.iter (add_i64 buf) m.resps_rev;
        Array.iter (add_i64 buf) m.snap)
    meta;
  Memory.blit_fingerprint mem buf;
  Buffer.contents buf

let hash_bytes (s : string) =
  let h = ref 0x2545F491 in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* Resident-footprint estimate of one antichain, for the spill store's
   budget accounting (words, boxing and spine overheads approximated). *)
let antichain_bytes (l : Pid_set.t list) =
  List.fold_left (fun acc s -> acc + 48 + (24 * Pid_set.cardinal s)) 16 l

(* Execute one move, maintaining the per-process metadata in lockstep with
   the machine.  Returns the new machine, the new metadata, and whether
   the move completed a call (the only transitions on which the property
   verdict can change).  Completion and results are derived from the
   tracked program — the same physical closure the machine is running —
   so no machine state is queried back except the step's response. *)
let set (meta : pmeta array) p pm =
  let meta' = Array.copy meta in
  meta'.(p) <- pm;
  meta'

(* The search threads [counts], the completed-call count per pid, alongside
   [meta] under the invariant that [counts.(q)] is the number of calls [q]
   has completed (no crashes happen under the explorer, so an idle process
   has completed everything it began and a running one everything but the
   call in flight).  Like [meta] it is copy-on-write ([bump] copies, nothing mutates a
   shared array), which is what lets a begin adopt the current array as its
   [snap] without copying: most snapshots are then physically shared, so
   [snap_equal]'s [==] shortcut fires and no per-begin allocation runs. *)
let bump (counts : int array) p =
  let c = Array.copy counts in
  c.(p) <- c.(p) + 1;
  c

let apply_move sim (meta : pmeta array) (counts : int array) mh p = function
  | M_begin (label, program) -> (
    let begun =
      match meta.(p) with
      | P_idle (b, _) -> b
      | P_running _ -> assert false
    in
    let sim' = Sim.begin_call sim p ~label program in
    match program with
    | Program.Return v ->
      (* zero-step call: completed on the spot *)
      let pm = P_idle (begun + 1, Some v) in
      (sim', set meta p pm, bump counts p, mh_swap mh meta p pm, true)
    | Program.Step _ ->
      let pm =
        P_running
          { program;
            label;
            label_h = Hashtbl.hash label;
            seq = begun;
            begun = begun + 1;
            resps_rev = [];
            resps_len = 0;
            resps_h = 0;
            snap = counts }
      in
      (sim', set meta p pm, counts, mh_swap mh meta p pm, false))
  | M_advance _ -> (
    let m =
      match meta.(p) with
      | P_running m -> m
      | P_idle _ -> assert false
    in
    let k =
      match m.program with
      | Program.Step (_, k) -> k
      | Program.Return _ -> assert false
    in
    let sim' = Sim.advance sim p in
    let resp =
      match Sim.last_response sim' with Some v -> v | None -> assert false
    in
    match k resp with
    | Program.Return v ->
      let pm = P_idle (m.begun, Some v) in
      (sim', set meta p pm, bump counts p, mh_swap mh meta p pm, true)
    | Program.Step _ as program ->
      let pm =
        P_running
          { m with
            program;
            resps_rev = resp :: m.resps_rev;
            resps_len = m.resps_len + 1;
            resps_h = mix m.resps_h resp }
      in
      (sim', set meta p pm, counts, mh_swap mh meta p pm, false))

(* Sleep set for the child reached by executing [p]'s move [mv]: of the
   processes asleep here or already explored as older siblings, keep those
   whose pending move commutes with the executed one.

   Two advances commute when their operations do ({!Op.commute}).  Two
   begins commute as long as neither completes a zero-step call on the
   spot: scripts consult only their own process's state, a begin touches
   no memory, and swapping two call starts changes no interval-order
   relation (began-before-began is not one) — whereas a completion is an
   interval endpoint, so nothing commutes across a move that completed a
   call ([completed], known only after applying the move).  By the same
   reasoning a begin also commutes with a non-completing advance: the
   advance's memory effect is invisible to the begin (no memory access,
   script reads own state only) and no endpoint separates them. *)
let instant (program : Op.value Program.t) = Program.next_invocation program = None

(* Monomorphic [List.assoc_opt] over the enabled-move list: pid keys are
   ints, so the polymorphic-compare dispatch is pure overhead here. *)
let rec move_of (q : int) = function
  | [] -> None
  | (p, mv) :: rest -> if (p : int) = q then Some mv else move_of q rest

let child_sleep ~por ~commute ~completed ms sleep explored mv =
  if not por then Pid_set.empty
  else
    match mv with
    | M_begin _ when completed -> Pid_set.empty (* a zero-step call: endpoint *)
    | M_begin _ ->
      Pid_set.filter
        (fun q ->
          match move_of q ms with
          | Some (M_begin (_, prog_q)) -> not (instant prog_q)
          | Some (M_advance _) | None -> false)
        (Pid_set.union sleep explored)
    | M_advance inv_p ->
      (* A completing advance is a finish endpoint: begins must be
         reordered against it (begun-before-finished is observable), but
         commuting advances still slide past — two adjacent non-begin
         moves flank no call start, so no interval relation changes. *)
      Pid_set.filter
        (fun q ->
          match move_of q ms with
          | Some (M_advance inv_q) -> commute inv_p inv_q
          | Some (M_begin (_, prog_q)) -> (not completed) && not (instant prog_q)
          | None -> false)
        (Pid_set.union sleep explored)

(* --- the search --- *)

exception Stopped of Sim.t option (* [Some sim]: violation; [None]: cap hit *)

(* A fresh directory of its own under [base] for one budgeted search's
   segment files.  The name is random, and creating it with [mkdir] is
   exclusive, so concurrent searches sharing a base directory never share
   files.  A name that already exists is retried; so is a base directory
   that vanished in between (a concurrent search removes the base when it
   finishes and finds it empty).  Any other failure is reported. *)
let rec make_spill_dir ?(attempts = 16) base =
  let fail msg =
    failwith ("Explore.check: cannot create a spill directory: " ^ msg)
  in
  (try Sys.mkdir base 0o700
   with Sys_error msg -> if not (Sys.file_exists base) then fail msg);
  let bits = Random.State.bits (Random.State.make_self_init ()) in
  let dir = Filename.concat base (Printf.sprintf "run-%08x" bits) in
  match Sys.mkdir dir 0o700 with
  | () -> dir
  | exception Sys_error msg ->
    if attempts > 1 && (Sys.file_exists dir || not (Sys.file_exists base))
    then make_spill_dir ~attempts:(attempts - 1) base
    else fail msg

let check ?tracer ?(max_histories = 1_000_000) ?(max_steps_per_history = 500)
    ?(dedup = true) ?(por = true) ?(commute = Op.commute) ?(lean = true)
    ?jobs:(_ : int option) ?(symmetry = Pid_set.empty) ?mem_budget ?spill_dir
    ?(spill_seg_keys = 4096) ~layout ~model ~n ~scripts ~property () =
  (* Monotonic wall clock, not [Sys.time] (which is CPU time). *)
  let t0 = Obs.Clock.now_s () in
  let sym = sym_ctx ~n symmetry in
  let sim0 = Sim.create ~model ~layout ~n in
  let sim0 = if lean then Sim.lean_mode sim0 else sim0 in
  (* State identity: (incremental hash, exact key) pairs interned to dense
     ints; the visited table and its sleep-set antichains then key on
     ints.  With [store = Some st] the keys are byte-encoded instead and
     both tables live in a {!Spill} store whose segments page out under
     the byte budget; the dedup decisions are identical (the encoding is
     faithful to [fp_equal]), only the counters gain spill telemetry. *)
  let search store =
    let intern : fp Fp_intern.t = Fp_intern.create ~equal:fp_equal () in
    let buf = Buffer.create 256 in
    (* Sleep-set antichains, indexed directly by interned id: ids are
       dense (0, 1, 2, ...), so a growable array replaces a second hash
       lookup. *)
    let visited : Pid_set.t list array ref = ref (Array.make 1024 []) in
    let antichain id =
      let arr = !visited in
      if id < Array.length arr then arr.(id)
      else begin
        let arr' = Array.make (max (2 * Array.length arr) (id + 1)) [] in
        Array.blit arr 0 arr' 0 (Array.length arr);
        visited := arr';
        []
      end
    in
    let histories = ref 0 and truncated = ref 0 and states = ref 0 in
    let dedup_hits = ref 0 and por_prunes = ref 0 and maxd = ref 0 in
    let orbit_hits = ref 0 in
    (* [max_histories] stops the search immediately after the leaf that
       reaches it. *)
    let leaf ~checked sim =
      incr histories;
      if (not checked) && not (property sim) then raise (Stopped (Some sim));
      if !histories >= max_histories then raise (Stopped None)
    in
    let rec visit sim meta counts mh sleep depth ~completed =
      incr states;
      if depth > !maxd then maxd := depth;
      (* The verdict can change only when a call completes; checking there
         (rather than at leaves alone) is what makes pruning sound: every
         prefix is judged before its extensions are shared or discarded. *)
      let checked =
        completed
        && (if property sim then true else raise (Stopped (Some sim)))
      in
      if depth >= max_steps_per_history then begin
        incr truncated;
        leaf ~checked sim
      end
      else
        match moves scripts meta sim with
        | [] -> leaf ~checked sim
        | ms -> (
          let descend awake =
            ignore
              (List.fold_left
                 (fun explored (p, mv) ->
                   let sim', meta', counts', mh', completed =
                     apply_move sim meta counts mh p mv
                   in
                   let sleep' =
                     child_sleep ~por ~commute ~completed ms sleep explored mv
                   in
                   visit sim' meta' counts' mh' sleep' (depth + 1) ~completed;
                   Pid_set.add p explored)
                 Pid_set.empty awake)
          in
          match List.filter (fun (p, _) -> not (Pid_set.mem p sleep)) ms with
          | [] ->
            (* Every enabled move is asleep: each is independent of some
               already-explored sibling order, so this branch is covered by
               a representative elsewhere; not a leaf. *)
            incr por_prunes
          | awake ->
            let fresh =
              (not dedup)
              ||
              (* The dedup key — never the live search state — is mapped
                 to its orbit-canonical representative; the sleep set
                 crosses into the same canonical coordinates before it
                 meets the antichain (recorded entries live there too). *)
              let cmeta, perm =
                match sym with
                | None -> (meta, None)
                | Some ctx -> canonical ctx meta
              in
              let cmh = match perm with None -> mh | Some _ -> mh_full cmeta in
              let csleep =
                match perm with
                | None -> sleep
                | Some pi -> Pid_set.map (fun q -> pi.(q)) sleep
              in
              let mem = Sim.memory sim in
              (* Prune iff a prior visit (of the orbit) had a sleep set no
                 larger (so no fewer awake moves).  The remaining depth
                 budget is deliberately not compared: a revisit may arrive
                 shallower (a completed call got there in fewer spin
                 iterations) and so see a slightly deeper horizon, but
                 comparing budgets re-explores every spin state once per
                 distinct arrival depth — the dominant cost on spin-heavy
                 searches.  When no branch truncates the budget never binds
                 and pruning is exact; when one does, the run is already
                 reported incomplete. *)
              let hit =
                match store with
                | None ->
                  let key = { fp_mem = mem; fp_meta = cmeta } in
                  let id =
                    Fp_intern.intern intern
                      ~hash:(mix (Memory.fp_hash mem) cmh)
                      key
                  in
                  let entries = antichain id in
                  if List.exists (fun sl -> Pid_set.subset sl csleep) entries
                  then true
                  else begin
                    !visited.(id) <-
                      csleep
                      :: List.filter
                           (fun sl -> not (Pid_set.subset csleep sl))
                           entries;
                    false
                  end
                | Some st ->
                  let bytes = encode_key buf cmeta mem in
                  let id = Spill.intern st ~hash:(hash_bytes bytes) bytes in
                  let entries = Spill.chain st id in
                  if List.exists (fun sl -> Pid_set.subset sl csleep) entries
                  then true
                  else begin
                    Spill.set_chain st id
                      (csleep
                      :: List.filter
                           (fun sl -> not (Pid_set.subset csleep sl))
                           entries);
                    false
                  end
              in
              if hit then begin
                incr dedup_hits;
                if perm <> None then incr orbit_hits;
                false
              end
              else true
            in
            if fresh then descend awake)
    in
    let violation, capped =
      if max_histories <= 0 then (None, true)
      else
        match
          visit sim0 (meta0 n) (Array.make n 0) (mh0 n) Pid_set.empty 0
            ~completed:false
        with
        | () -> (None, false)
        | exception Stopped v -> (v, v = None)
    in
    let fp_distinct, fp_collisions, fp_resizes, fp_slots, spill_segments,
        spill_reloads =
      match store with
      | None ->
        ( Fp_intern.distinct intern,
          Fp_intern.collisions intern,
          Fp_intern.resizes intern,
          Fp_intern.slots intern,
          0,
          0 )
      | Some st ->
        ( Spill.distinct st,
          Spill.collisions st,
          Spill.resizes st,
          Spill.slots st,
          Spill.spilled st,
          Spill.reloads st )
    in
    (* [wall_s] is computed in exactly one place — here — and every other
       reading of the elapsed time (the [explore_wall_seconds] metric) is
       derived from the stats field itself, so the two can never
       disagree. *)
    { histories = !histories;
      truncated = !truncated;
      complete = violation = None && (not capped) && !truncated = 0;
      violation;
      stats =
        { states = !states;
          dedup_hits = !dedup_hits;
          por_prunes = !por_prunes;
          tasks = 1;
          max_depth = !maxd;
          orbit_hits = !orbit_hits;
          fp_distinct;
          fp_collisions;
          fp_resizes;
          fp_slots;
          spill_segments;
          spill_reloads;
          wall_s = Obs.Clock.elapsed_s ~since:t0 } }
  in
  let result =
    match mem_budget with
    | None -> search None
    | Some budget ->
      let base =
        match spill_dir with
        | Some d -> d
        | None ->
          Filename.concat (Filename.get_temp_dir_name ())
            "separation-explore-spill"
      in
      let dir = make_spill_dir base in
      let st =
        Spill.create ~dir ~seg_keys:spill_seg_keys ~budget_bytes:(max 0 budget)
          ~chain_zero:[] ~chain_bytes:antichain_bytes ()
      in
      (* Every exit path — verdict, violation, cap or exception — removes
         the run's files and directory, then the base if it is now empty
         (best-effort: another search may still be using it). *)
      Fun.protect
        ~finally:(fun () ->
          Spill.cleanup st;
          (try Sys.rmdir dir with Sys_error _ -> ());
          try Sys.rmdir base with Sys_error _ -> ())
        (fun () -> search (Some st))
  in
  (* The span's ticks are synthetic (states explored), a deterministic
     stand-in for time; wall time goes only into the metric. *)
  (match tracer with
  | None -> ()
  | Some tr ->
    let s = result.stats in
    Obs.Trace.emit tr
      (Obs.Event.Explore_task
         { task = 0; t0 = 0; t1 = s.states; states = s.states;
           dedup_hits = s.dedup_hits; por_prunes = s.por_prunes;
           histories = result.histories; truncated = result.truncated;
           max_depth = s.max_depth });
    Obs.Metrics.observe (Obs.Trace.metrics tr) "explore_wall_seconds"
      ~labels:[] s.wall_s);
  result

(* Count interleavings without checking anything (sizing aid).  Dedup and
   POR are off so the count is the literal number of step-level
   interleavings, as in the seed checker. *)
let count ?max_histories ?max_steps_per_history ~layout ~model ~n ~scripts () =
  (check ?max_histories ?max_steps_per_history ~dedup:false ~por:false ~layout
     ~model ~n ~scripts
     ~property:(fun _ -> true) ())
    .histories

(* Internal canonicalization machinery, re-exported under stable builders
   so the test suite can state the canonicalization laws (idempotence,
   invariance under relabelings, pinned slots untouched) directly against
   the production comparator and permutation application. *)
module Testing = struct
  type slot = pmeta

  let idle ~begun ~last : slot = P_idle (begun, last)

  let running ~label ~seq ~resps_rev ~snap : slot =
    P_running
      { program = Program.Return 0 (* never read by key machinery *);
        label;
        label_h = Hashtbl.hash label;
        seq;
        begun = seq + 1;
        resps_rev;
        resps_len = List.length resps_rev;
        resps_h = List.fold_left mix 0 (List.rev resps_rev);
        snap = Array.copy snap }

  let relabel ~perm (meta : slot array) = apply_perm perm meta

  let canonicalize ~symmetry (meta : slot array) =
    match sym_ctx ~n:(Array.length meta) symmetry with
    | None -> (meta, false)
    | Some ctx ->
      let meta', perm = canonical ctx meta in
      (meta', perm <> None)

  let equal = metas_equal

  let slot_equal = pmeta_equal
end
