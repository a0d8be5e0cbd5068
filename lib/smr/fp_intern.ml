(* Fingerprint interning: map arbitrary keys to dense small integers.

   The explorer identifies a search state by a (cheap, incrementally
   maintained) integer hash plus an exact key that confirms hash matches.
   Interning separates the two concerns: the caller supplies the hash and
   the key once per state, gets back a small int, and every downstream
   structure (visited states, sleep-set antichains) indexes on that int.
   The exact key is consulted only when two entries share a hash — either
   a revisit (the common dedup case) or a genuine collision, which costs
   one [equal] call and never soundness: distinct keys always receive
   distinct ids.

   The table is hand-rolled rather than a [Hashtbl]: the caller already
   computed the hash, so re-hashing the key (as [Hashtbl] would) and the
   option allocation of [find_opt] are pure overhead — this lookup is the
   single hottest call in the explorer's dedup path.  Layout: open
   addressing with linear probing over two flat int arrays (stored hash
   and id per slot, [-1] = empty) plus a dense key array indexed by id.
   A probe that doesn't match costs one int load per slot — no pointer
   chasing through chain cells — and the load factor is kept under 1/2 so
   probe runs stay short. *)

(* Hash building blocks shared by every fingerprint hash in the explorer
   pipeline ([Memory]'s per-cell hash, [Explore]'s per-slot hash).

   [mix] is a cheap rolling step for folding a short sequence of fields.
   It is affine in each argument, so on its own it must never feed an
   additive combination: sums of affine images depend only on the sums of
   their fields, and distinct states that merely redistribute a count
   between two processes or two cells would share a hash.  [avalanche]
   (a splitmix64-style xorshift-multiply finalizer, with its constants cut
   to OCaml's 63-bit ints and kept odd) breaks that linearity: apply it to
   each term before summing. *)
let mix h x = (((h * 31) + x + 1) * 0x2545F491) land max_int

let avalanche x =
  let x = (x lxor (x lsr 30)) * 0x3F58476D1CE4E5B9 in
  let x = (x lxor (x lsr 27)) * 0x14D049BB133111EB in
  x lxor (x lsr 31)

type 'a t = {
  equal : 'a -> 'a -> bool;
  mutable hashes : int array; (* stored full hash per slot *)
  mutable ids : int array; (* interned id per slot; -1 = empty *)
  mutable mask : int; (* slot count - 1 (slot count is a power of two) *)
  mutable keys : 'a array; (* exact key per id, dense; keys.(0) garbage
                              until the first intern installs it *)
  mutable next : int; (* next id = number of distinct keys so far *)
  mutable collisions : int; (* distinct keys that shared a full hash *)
  mutable resizes : int; (* times the slot array doubled *)
}

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ?(size = 1024) ~equal () =
  let cap = pow2_at_least size 16 in
  { equal;
    hashes = Array.make cap 0;
    ids = Array.make cap (-1);
    mask = cap - 1;
    keys = [||];
    next = 0;
    collisions = 0;
    resizes = 0 }

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

let intern t ~hash key =
  let mask = t.mask in
  let hashes = t.hashes and ids = t.ids in
  (* [saw_hash]: a slot with this full hash but a different key exists —
     a genuine collision, counted once per newly interned key. *)
  let rec probe i saw_hash =
    let id = ids.(i) in
    if id < 0 then begin
      if saw_hash then t.collisions <- t.collisions + 1;
      let id = t.next in
      t.next <- id + 1;
      if id = 0 then t.keys <- Array.make 16 key
      else if id >= Array.length t.keys then begin
        let keys = Array.make (2 * Array.length t.keys) key in
        Array.blit t.keys 0 keys 0 id;
        t.keys <- keys
      end;
      t.keys.(id) <- key;
      hashes.(i) <- hash;
      ids.(i) <- id;
      (* keep the load factor under 1/2 so probe runs stay short *)
      if 2 * t.next > mask then grow_slots t;
      id
    end
    else if hashes.(i) = hash then
      if t.equal t.keys.(id) key then id
      else probe ((i + 1) land mask) true
    else probe ((i + 1) land mask) saw_hash
  in
  probe (hash land mask) false

let distinct t = t.next

let collisions t = t.collisions

let resizes t = t.resizes

let slots t = t.mask + 1
