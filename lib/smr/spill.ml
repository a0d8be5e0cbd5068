(* Spill-to-disk fingerprint storage: a string-keyed interning table whose
   key bytes and per-id payloads live in fixed-size segments that page out
   to binary files under a byte budget.

   The explorer's in-memory dedup tables ([Fp_intern] plus a dense
   antichain array) retain every distinct state for the whole search, so
   the largest verifiable scope is bounded by RAM.  This store keeps the
   same outward contract — intern a (hash, exact key) pair to a dense id,
   read and update the per-id sleep-set antichain — but holds the bulky
   parts (key bytes, antichains) in segments of [seg_keys] consecutive
   ids.  The hot index (stored hash and id per slot, two flat int arrays,
   open addressing with linear probing exactly as in [Fp_intern]) stays
   resident: at 16 bytes per state it is two orders of magnitude smaller
   than the keys it indexes.  Segments beyond the [budget_bytes] resident
   window are marshalled to files in [dir] (least-recently-touched first)
   and read back on a probe miss; a reloaded segment whose antichains were
   updated since the last write is rewritten on its next eviction.

   Everything is deterministic for a deterministic probe sequence: ids are
   first-seen dense, eviction order is a pure function of the touch order,
   and file names derive from the segment index alone — so two runs of the
   same search produce identical ids, identical spill/reload counters, and
   byte-identical files.  The store is single-owner (one explorer
   search); concurrent searches use disjoint [dir]s. *)

type 'c seg = {
  mutable keys : string array; (* [||] while paged out *)
  mutable chains : 'c array; (* [||] while paged out *)
  mutable count : int; (* ids filled in this segment *)
  mutable bytes : int; (* resident footprint estimate *)
  mutable dirty : bool; (* chains changed since the last write *)
  mutable written : bool; (* a file for this segment exists *)
  mutable stamp : int; (* LRU clock value of the last touch *)
}

type 'c t = {
  dir : string;
  seg_keys : int;
  budget : int;
  chain_zero : 'c;
  chain_bytes : 'c -> int;
  mutable segs : 'c seg array;
  mutable nsegs : int;
  (* resident open-addressed index: full hash and id per slot, -1 = empty *)
  mutable hashes : int array;
  mutable ids : int array;
  mutable mask : int;
  mutable next : int;
  mutable collisions : int;
  mutable resizes : int;
  mutable resident : int; (* bytes held by resident segments *)
  mutable tick : int;
  mutable spilled : int; (* segment files written (rewrites included) *)
  mutable reloads : int; (* segments read back on a probe miss *)
  mutable dir_made : bool;
}

let no_seg () =
  { keys = [||];
    chains = [||];
    count = 0;
    bytes = 0;
    dirty = false;
    written = false;
    stamp = 0 }

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ~dir ?(seg_keys = 4096) ~budget_bytes ~chain_zero ~chain_bytes () =
  let cap = pow2_at_least 16 16 in
  { dir;
    seg_keys = max 16 seg_keys;
    budget = max 0 budget_bytes;
    chain_zero;
    chain_bytes;
    segs = Array.make 8 (no_seg ());
    nsegs = 0;
    hashes = Array.make cap 0;
    ids = Array.make cap (-1);
    mask = cap - 1;
    next = 0;
    collisions = 0;
    resizes = 0;
    resident = 0;
    tick = 0;
    spilled = 0;
    reloads = 0;
    dir_made = false }

let touch t s =
  t.tick <- t.tick + 1;
  s.stamp <- t.tick

let seg_path t i = Filename.concat t.dir (Printf.sprintf "seg%06d.bin" i)

let ensure_dir t =
  if not t.dir_made then begin
    (try Sys.mkdir t.dir 0o700 with Sys_error _ -> ());
    t.dir_made <- true
  end

let write_seg t i s =
  ensure_dir t;
  let oc = open_out_bin (seg_path t i) in
  Marshal.to_channel oc (s.keys, s.chains, s.count) [];
  close_out oc;
  s.written <- true;
  s.dirty <- false;
  t.spilled <- t.spilled + 1

let evict t i s =
  if s.dirty || not s.written then write_seg t i s;
  t.resident <- t.resident - s.bytes;
  s.keys <- [||];
  s.chains <- [||]

let resident s = Array.length s.keys > 0

(* Page out least-recently-touched segments until the window fits the
   budget.  [keep] segments (the one being filled or probed) are pinned,
   so the window never shrinks below what the current operation needs —
   a budget smaller than two segments degrades to thrashing, not to a
   wrong answer. *)
let enforce_budget t ~keep ~keep2 =
  while
    t.resident > t.budget
    &&
    let best = ref (-1) and best_stamp = ref max_int in
    for i = 0 to t.nsegs - 1 do
      let s = t.segs.(i) in
      if resident s && i <> keep && i <> keep2 && s.stamp < !best_stamp
      then begin
        best := i;
        best_stamp := s.stamp
      end
    done;
    if !best < 0 then false
    else begin
      evict t !best t.segs.(!best);
      true
    end
  do
    ()
  done

let load t i s =
  let ic = open_in_bin (seg_path t i) in
  let keys, chains, count = Marshal.from_channel ic in
  close_in ic;
  assert (count = s.count);
  s.keys <- keys;
  s.chains <- chains;
  t.resident <- t.resident + s.bytes;
  t.reloads <- t.reloads + 1

let ensure_resident t i =
  let s = t.segs.(i) in
  if not (resident s) then begin
    load t i s;
    touch t s;
    enforce_budget t ~keep:i ~keep2:(t.next / t.seg_keys)
  end
  else touch t s;
  s

let get_key t id =
  let s = ensure_resident t (id / t.seg_keys) in
  s.keys.(id mod t.seg_keys)

let chain t id =
  let s = ensure_resident t (id / t.seg_keys) in
  s.chains.(id mod t.seg_keys)

let set_chain t id c =
  let i = id / t.seg_keys in
  let s = ensure_resident t i in
  let j = id mod t.seg_keys in
  let delta = t.chain_bytes c - t.chain_bytes s.chains.(j) in
  s.bytes <- s.bytes + delta;
  t.resident <- t.resident + delta;
  s.chains.(j) <- c;
  s.dirty <- true;
  enforce_budget t ~keep:i ~keep2:(t.next / t.seg_keys)

let grow_slots t =
  let cap = 2 * (t.mask + 1) in
  let hashes = Array.make cap 0 in
  let ids = Array.make cap (-1) in
  let mask = cap - 1 in
  let old_ids = t.ids and old_hashes = t.hashes in
  Array.iteri
    (fun i id ->
      if id >= 0 then begin
        let h = old_hashes.(i) in
        let j = ref (h land mask) in
        while ids.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        hashes.(!j) <- h;
        ids.(!j) <- id
      end)
    old_ids;
  t.hashes <- hashes;
  t.ids <- ids;
  t.mask <- mask;
  t.resizes <- t.resizes + 1

(* ~64 bytes of header/index overhead per key beyond the payload bytes. *)
let key_overhead = 64

let append_key t key =
  let id = t.next in
  t.next <- id + 1;
  let i = id / t.seg_keys in
  if i >= t.nsegs then begin
    if i >= Array.length t.segs then begin
      let segs = Array.make (2 * Array.length t.segs) (no_seg ()) in
      Array.blit t.segs 0 segs 0 t.nsegs;
      t.segs <- segs
    end;
    t.segs.(i) <-
      { keys = Array.make t.seg_keys "";
        chains = Array.make t.seg_keys t.chain_zero;
        count = 0;
        bytes = 0;
        dirty = false;
        written = false;
        stamp = 0 };
    t.nsegs <- i + 1
  end;
  let s = t.segs.(i) in
  (* the filling segment is created resident and stays pinned *)
  assert (resident s);
  let j = id mod t.seg_keys in
  s.keys.(j) <- key;
  s.count <- s.count + 1;
  s.dirty <- true;
  let b = String.length key + key_overhead in
  s.bytes <- s.bytes + b;
  t.resident <- t.resident + b;
  touch t s;
  enforce_budget t ~keep:i ~keep2:(-1);
  id

let intern t ~hash key =
  let mask = t.mask in
  let rec probe i saw_hash =
    let id = t.ids.(i) in
    if id < 0 then begin
      if saw_hash then t.collisions <- t.collisions + 1;
      let id = append_key t key in
      (* [append_key] may evict but never rehashes, so slot [i] is still
         the right home for this hash. *)
      t.hashes.(i) <- hash;
      t.ids.(i) <- id;
      if 2 * t.next > mask then grow_slots t;
      id
    end
    else if t.hashes.(i) = hash then
      if String.equal (get_key t id) key then id
      else probe ((i + 1) land mask) true
    else probe ((i + 1) land mask) saw_hash
  in
  probe (hash land mask) false

let key = get_key

let distinct t = t.next

let collisions t = t.collisions

let resizes t = t.resizes

let slots t = t.mask + 1

let segments t = t.nsegs

let spilled t = t.spilled

let reloads t = t.reloads

let cleanup t =
  for i = 0 to t.nsegs - 1 do
    if t.segs.(i).written then try Sys.remove (seg_path t i) with Sys_error _ -> ()
  done;
  if t.dir_made then try Sys.rmdir t.dir with Sys_error _ -> ()
