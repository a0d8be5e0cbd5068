(* Persistent shared memory.

   Besides cell contents the store tracks, per cell: the last process to have
   performed a nontrivial operation on it (the "sees" relation of Def. 6.4
   needs it), the set of processes holding a valid load-link on it, and
   whether more than one process has ever written it (condition 3 of the
   regularity predicate, Def. 6.6).  Everything is a persistent map so that
   machine snapshots are O(1). *)

module Addr_map = Map.Make (Int)
module Pid_set = Set.Make (Int)

type cell = {
  value : Op.value;
  last_writer : Op.pid option;
  links : Pid_set.t; (* processes holding a valid LL on this cell *)
  writers : Pid_set.t; (* every process that ever overwrote this cell *)
}

type t = { layout : Var.layout; cells : cell Addr_map.t; fp_hash : int }

let fresh_cell layout a =
  { value = Var.layout_init layout a;
    last_writer = None;
    links = Pid_set.empty;
    writers = Pid_set.empty }

(* Whether the cell is behaviorally indistinguishable from a never-touched
   cell: initial value, no valid load-links.  Last-writer and writer-set
   metadata is deliberately ignored — it feeds the Section 6 analyses, not
   operation responses.  Monomorphic comparisons only ([Op.value_equal],
   [Pid_set.is_empty]): this runs on the fingerprint hot path, and
   polymorphic [=] would silently slow or break it if [Op.value] ever
   grows beyond [int]. *)
let fresh_like layout a c =
  Pid_set.is_empty c.links && Op.value_equal c.value (Var.layout_init layout a)

(* Contribution of one cell to the running behavioral hash.  Fresh-like
   cells contribute 0, so a store written back to its initial state hashes
   identically to one never touched.  Contributions combine by integer
   addition (commutative and invertible), which is what makes the hash
   maintainable as an O(1) delta per [apply]; each is passed through
   [Fp_intern.avalanche] first, so the sum depends on the cells themselves
   and not only on their per-field totals. *)
let cell_contrib layout a c =
  if fresh_like layout a c then 0
  else
    Fp_intern.avalanche
      (Pid_set.fold
         (fun p h -> Fp_intern.mix h p)
         c.links
         (Fp_intern.mix (Fp_intern.mix 0x531AB597 a) c.value))

let create layout = { layout; cells = Addr_map.empty; fp_hash = 0 }

let cell t a =
  match Addr_map.find_opt a t.cells with
  | Some c -> c
  | None -> fresh_cell t.layout a

let get t a = (cell t a).value

let last_writer t a = (cell t a).last_writer

let writers t a = Pid_set.elements (cell t a).writers

let ll_valid t ~pid a = Pid_set.mem pid (cell t a).links

type applied = {
  memory : t;
  response : Op.value;
  wrote : bool; (* the operation was nontrivial in this execution *)
  read_from : Op.pid option;
      (* last (nontrivial) writer of the cell if the operation observed the
         cell's value, i.e. everything except a blind [Write] *)
}

let apply t ~pid inv =
  let a = Op.addr_of inv in
  let c_opt = Addr_map.find_opt a t.cells in
  let c = match c_opt with Some c -> c | None -> fresh_cell t.layout a in
  let { Op.response; new_value } =
    Op.execute ~current:c.value ~ll_valid:(Pid_set.mem pid c.links) inv
  in
  let observed_value =
    match inv with Op.Write _ -> false | _ -> true
  in
  let read_from = if observed_value then c.last_writer else None in
  let c' =
    match new_value with
    | None ->
      (* Trivial operation; an [Ll] additionally records a link. *)
      (match inv with
      | Op.Ll _ when not (Pid_set.mem pid c.links) ->
        { c with links = Pid_set.add pid c.links }
      | _ -> c)
    | Some v ->
      (* Nontrivial: overwrite, take last-writer, invalidate every link. *)
      { value = v;
        last_writer = Some pid;
        links = Pid_set.empty;
        writers = Pid_set.add pid c.writers }
  in
  (* Incremental behavioral hash: subtract the old cell's contribution,
     add the new one's — an O(1) delta per operation, which is what makes
     {!fp_hash} constant-time for the explorer.  A trivial operation that
     leaves the cell untouched ([c' == c]) changes neither the hash nor
     the map; an untouched absent cell is not even materialized. *)
  let memory =
    if c' == c then t
    else
      { t with
        cells = Addr_map.add a c' t.cells;
        fp_hash =
          t.fp_hash + (cell_contrib t.layout a c' - cell_contrib t.layout a c) }
  in
  { memory; response; wrote = new_value <> None; read_from }

let layout t = t.layout

let dump t =
  Addr_map.fold
    (fun a c acc -> (a, c.value) :: acc)
    t.cells []
  |> List.rev

(* Canonical behavioral fingerprint: the facts future operations can
   observe — cell values and valid load-links.  Cells indistinguishable
   from a fresh cell are omitted, so a store written back to its initial
   value fingerprints identically to one never touched.  Last-writer and
   writer-set bookkeeping is deliberately excluded: it feeds the Section 6
   analyses, not operation responses. *)
let fingerprint t =
  Addr_map.fold
    (fun a c acc ->
      if fresh_like t.layout a c then acc
      else (a, c.value, Pid_set.elements c.links) :: acc)
    t.cells []
  |> List.rev

(* Canonical byte encoding of {!fingerprint}, appended to [buf]: for each
   non-fresh cell in address order, the address, the value, the link count
   and the link pids in ascending order, each as a little-endian 64-bit
   word.  Exactly the facts {!same_fingerprint} compares — two stores have
   equal encodings iff they have equal fingerprints — which is what lets
   the explorer's spill-to-disk mode key its tables on bytes instead of
   live structures without changing a single dedup decision. *)
let blit_fingerprint t buf =
  Addr_map.iter
    (fun a c ->
      if not (fresh_like t.layout a c) then begin
        Buffer.add_int64_le buf (Int64.of_int a);
        Buffer.add_int64_le buf (Int64.of_int c.value);
        Buffer.add_int64_le buf (Int64.of_int (Pid_set.cardinal c.links));
        Pid_set.iter
          (fun p -> Buffer.add_int64_le buf (Int64.of_int p))
          c.links
      end)
    t.cells

(* --- constant-time behavioral summary (the explorer's hot path) --- *)

let fp_hash t = t.fp_hash

(* Behavioral equality: the two stores respond identically to every future
   operation sequence — i.e. their {!fingerprint}s are equal — decided
   without building either fingerprint list.  Cells absent from one side
   compare against the other's fresh view, so a store written back to its
   initial state equals one never touched.  Cost is O(cells) on the first
   structural mismatch-free walk, but the explorer only calls this to
   confirm a hash match, so the common path is two stores that really are
   equal and share most of their (persistent) spine. *)
let same_fingerprint t1 t2 =
  t1.cells == t2.cells
  || (t1.fp_hash = t2.fp_hash
     && Addr_map.for_all
          (fun a c1 ->
            let c2 = cell t2 a in
            c1 == c2
            || (Op.value_equal c1.value c2.value
               && Pid_set.equal c1.links c2.links))
          t1.cells
     && Addr_map.for_all
          (fun a c2 -> Addr_map.mem a t1.cells || fresh_like t2.layout a c2)
          t2.cells)
