open Import
module Parallel = Popan_parallel

(* 42 bits of Morton resolution per coordinate, carried as two words
   (Morton.encode_fine): tree levels 0..20 are decided by the hi word —
   the historical 21-bit-per-axis interleave, still the stored per-slot
   [codes] entry — and levels 21..41 by the lo word, computed on demand
   from the float coordinates. The arena covers the unit square only and
   [max_depth] is capped at 42, so every split a tree can make is
   decided by integer code bits. *)
let bits = Morton.bits
let bits_fine = 2 * bits
let axis_mask = (1 lsl bits) - 1

(* Morton.quantize_fine, open-coded: calling across the module boundary
   passes the float boxed (2 words each for x and y, every insert);
   local arithmetic on a power-of-two constant stays unboxed and is the
   identical exact computation. *)
let fine_scale = float_of_int (1 lsl bits_fine)

(* 2^-42 is a power of two, so multiplying a fine ordinate by it is the
   exact dyadic cell corner k/2^42 — identical floats to the midpoint
   cascade [Box.child] would produce. The query kernels descend on fine
   integers and materialize corners only when a float compare needs
   them. *)
let inv_fine_scale = 1.0 /. fine_scale

(* Children of a split node occupy four consecutive node ids in MORTON
   pair order — (y >= mid) * 2 + (x >= mid): SW, SE, NW, NE — because
   that is the order a sorted code array yields them. Quadrant order
   (NW, NE, SW, SE) differs by this fixed permutation, which is its own
   inverse: quad_pair.(pair) is the quadrant index and quad_pair.(quad)
   is the pair. *)
let quad_pair = [| 2; 3; 0; 1 |]

(* Point, key and scratch columns are Bigarrays: the data lives outside
   the OCaml heap (minor-heap-free by construction, not by discipline),
   loads in the radix loops compile to unboxed reads, and a column can
   be a shared file mapping for out-of-core builds. The integer kind is
   [Bigarray.int] — a word-sized element whose accessors never box —
   rather than [int64], whose [get] allocates a boxed Int64 per read and
   would break the zero-allocation insert claim. One tag bit is lost;
   62-bit entries are ample for 42-bit codes and slot indices. *)
type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type backing = Heap | Mmap of { dir : string }

type t = {
  capacity : int;
  max_depth : int;
  mutable backing : backing;  (* effective: Heap after an mmap failure *)
  seg_dir : string option;  (* this arena's private segment directory *)
  mutable seg_bytes : (string * int) list;  (* segment name -> bytes *)
  (* Nodes, parallel arrays indexed by node id; node 0 is the root.
     These stay OCaml int arrays: they are tiny next to the point
     columns (3 words per node vs 8 per point plus sort buffers) and
     are the one part the parallel stitch rewrites wholesale. *)
  mutable nodes : int;  (* ids in use *)
  mutable child : int array;  (* -1 = leaf; else first of 4 children *)
  mutable count : int array;  (* live points in the node's subtree: a
                                 leaf's chain length, an internal node's
                                 exact descendant total. The query
                                 kernels prune on containment by adding
                                 this in O(1). *)
  mutable head : int array;  (* leaves: first point slot, -1 = none *)
  (* Points, parallel columns indexed by slot; slot = insertion rank. *)
  mutable size : int;
  mutable xs : farr;
  mutable ys : farr;
  mutable codes : iarr;  (* hi Morton word of each slot *)
  mutable next : iarr;  (* intrusive per-leaf chain, -1 ends *)
  (* O(1) statistics, maintained per insert, delete and split. *)
  mutable leaves : int;
  mutable internals : int;
  mutable height : int;
  hist : int array;  (* capacity + 1 cells; over-full leaves clamp *)
  (* Churn bookkeeping. Freed point slots and freed node 4-blocks are
     recycled through intrusive free lists — a freed slot threads
     through the [next] column, a freed block through [child] at its
     base id — so sustained delete/insert churn allocates nothing and
     the arena footprint is bounded by the live-population high-water
     mark ([slots]), not by lifetime inserts. [size] stays the live
     count; [slots] only ever grows. *)
  mutable slots : int;  (* point-slot high-water mark; size <= slots *)
  mutable free_slot : int;  (* freed-slot list head via [next], -1 = none *)
  mutable free_node : int;  (* freed 4-block list head via [child], -1 *)
  path : int array;  (* delete descent scratch: root-to-leaf node ids *)
  depth_count : int array;  (* leaves per depth; keeps height exact *)
  qbuf : farr;  (* query point scratch: floats cross into the int-only
                   delete descent unboxed via a Bigarray, never as
                   (boxed) function arguments *)
}

(* Segment-backed column allocation. Each arena with [Mmap] backing owns
   a private subdirectory (pid + a process-wide counter, so two arenas
   never collide on segment files); every column is one file, and
   growth simply remaps the same file at the larger size — the kernel
   carries the old contents over, no copy needed. Any failure to map
   degrades to heap backing, loudly, via [Probe.arena_fallback]. *)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let arena_counter = Atomic.make 0
let global_mapped = Atomic.make 0

let note_mapped t name bytes =
  let old = try List.assoc name t.seg_bytes with Not_found -> 0 in
  t.seg_bytes <- (name, bytes) :: List.remove_assoc name t.seg_bytes;
  let delta = bytes - old in
  let total = Atomic.fetch_and_add global_mapped delta + delta in
  Probe.arena_mapped_bytes ~bytes:total

let map_column (type a b) dir name (kind : (a, b) Bigarray.kind) n :
    (a, b, Bigarray.c_layout) Bigarray.Array1.t =
  let path = Filename.concat dir (name ^ ".seg") in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o600 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* [map_file] with [shared = true] grows the file to the mapping
         size; fresh pages read back as zeros. *)
      Bigarray.array1_of_genarray
        (Unix.map_file fd kind Bigarray.c_layout true [| n |]))

let heap_f n : farr = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let heap_i n : iarr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let mmap_failed t exn =
  Probe.arena_fallback ~what:"mmap-to-heap"
    ~detail:
      (Printf.sprintf "mapping an arena segment failed: %s"
         (Printexc.to_string exn));
  t.backing <- Heap

let alloc_f t name n : farr =
  match t.backing with
  | Heap -> heap_f n
  | Mmap { dir } -> (
    try
      let a = map_column dir name Bigarray.float64 n in
      note_mapped t name (8 * n);
      a
    with (Unix.Unix_error _ | Sys_error _) as e ->
      mmap_failed t e;
      heap_f n)

let alloc_i t name n : iarr =
  match t.backing with
  | Heap -> heap_i n
  | Mmap { dir } -> (
    try
      let a = map_column dir name Bigarray.int n in
      note_mapped t name (8 * n);
      a
    with (Unix.Unix_error _ | Sys_error _) as e ->
      mmap_failed t e;
      heap_i n)

let release t =
  match t.seg_dir with
  | None -> ()
  | Some dir ->
    List.iter
      (fun (name, _) ->
        try Sys.remove (Filename.concat dir (name ^ ".seg"))
        with Sys_error _ -> ())
      t.seg_bytes;
    let freed = List.fold_left (fun a (_, b) -> a + b) 0 t.seg_bytes in
    t.seg_bytes <- [];
    let total = Atomic.fetch_and_add global_mapped (-freed) - freed in
    Probe.arena_mapped_bytes ~bytes:total;
    (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ())

let create ?(max_depth = 16) ?(reserve = 0) ?(backing = Heap) ~capacity () =
  if capacity < 1 then invalid_arg "Pr_arena.create: capacity < 1";
  if max_depth < 0 || max_depth > bits_fine then
    invalid_arg "Pr_arena.create: max_depth outside 0..42";
  if reserve < 0 then invalid_arg "Pr_arena.create: reserve < 0";
  let hist = Array.make (capacity + 1) 0 in
  hist.(0) <- 1;
  let pcap = max reserve 16 in
  let backing, seg_dir =
    match backing with
    | Heap -> (Heap, None)
    | Mmap { dir } -> (
      let sub =
        Filename.concat dir
          (Printf.sprintf "arena-%d-%d" (Unix.getpid ())
             (Atomic.fetch_and_add arena_counter 1))
      in
      try
        mkdir_p sub;
        (Mmap { dir = sub }, Some sub)
      with Unix.Unix_error _ | Sys_error _ -> (Heap, None))
  in
  let t =
    {
      capacity;
      max_depth;
      backing;
      seg_dir;
      seg_bytes = [];
      nodes = 1;
      child = Array.make 16 (-1);
      count = Array.make 16 0;
      head = Array.make 16 (-1);
      size = 0;
      (* Uninitialized is fine: slots are written before [size] admits
         them to any read path. *)
      xs = heap_f 0;
      ys = heap_f 0;
      codes = heap_i 0;
      next = heap_i 0;
      leaves = 1;
      internals = 0;
      height = 0;
      hist;
      slots = 0;
      free_slot = -1;
      free_node = -1;
      path = Array.make (max_depth + 1) 0;
      depth_count =
        (let dc = Array.make (max_depth + 1) 0 in
         dc.(0) <- 1;
         dc);
      qbuf = heap_f 2;
    }
  in
  t.xs <- alloc_f t "xs" pcap;
  t.ys <- alloc_f t "ys" pcap;
  t.codes <- alloc_i t "codes" pcap;
  t.next <- alloc_i t "next" pcap;
  t

let capacity t = t.capacity
let max_depth t = t.max_depth
let backing t = t.backing
let size t = t.size
let is_empty t = t.size = 0
let slot_high_water t = t.slots
let leaf_count t = t.leaves
let internal_count t = t.internals
let height t = t.height
let occupancy_histogram t = Array.copy t.hist
let average_occupancy t = float_of_int t.size /. float_of_int t.leaves

(* Estimated peak resident bytes of a bulk build: the four point
   columns, the four sort columns (keys + slots, ping-ponged), and a
   generous bound on the node arrays. Advisory — the CLI prints it and
   checks it against available memory before committing to a build. *)
let bulk_footprint ~capacity ~n =
  if capacity < 1 then invalid_arg "Pr_arena.bulk_footprint: capacity < 1";
  if n < 0 then invalid_arg "Pr_arena.bulk_footprint: n < 0";
  let n = max n 1 in
  let columns = 8 * 8 * n in
  let leaves = 1 + ((n + capacity - 1) / capacity) in
  let nodes = 1 + (8 * leaves) in
  columns + (3 * 8 * nodes)

(* Column growth — the only allocation on the insert path. Mmap-backed
   columns remap the same segment file at the larger size, which
   preserves contents; the blit below is then a self-copy of identical
   bytes, harmless, and it is what carries the data for heap columns
   (including an mmap arena that degraded to heap mid-life). *)

let grow_points t needed =
  let cap = ref (max 16 (Bigarray.Array1.dim t.xs)) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let cap = !cap in
  let xs = alloc_f t "xs" cap
  and ys = alloc_f t "ys" cap
  and codes = alloc_i t "codes" cap
  and next = alloc_i t "next" cap in
  let open Bigarray.Array1 in
  (* Copy up to the slot high-water mark, not [size]: freed slots below
     it carry the free list through [next] and must survive growth. *)
  if t.slots > 0 then begin
    blit (sub t.xs 0 t.slots) (sub xs 0 t.slots);
    blit (sub t.ys 0 t.slots) (sub ys 0 t.slots);
    blit (sub t.codes 0 t.slots) (sub codes 0 t.slots);
    blit (sub t.next 0 t.slots) (sub next 0 t.slots)
  end;
  t.xs <- xs;
  t.ys <- ys;
  t.codes <- codes;
  t.next <- next

let grow_nodes t needed =
  let cap = ref (Array.length t.child) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let cap = !cap in
  let child = Array.make cap (-1)
  and count = Array.make cap 0
  and head = Array.make cap (-1) in
  Array.blit t.child 0 child 0 t.nodes;
  Array.blit t.count 0 count 0 t.nodes;
  Array.blit t.head 0 head 0 t.nodes;
  t.child <- child;
  t.count <- count;
  t.head <- head

(* Allocate four consecutive children, returned as their base id: a
   freed 4-block off the free list when one exists (so churn splits
   allocate nothing), else a bump allocation. Fresh ids are empty
   leaves (child -1, count 0, head -1) — the reset below restores that
   state for recycled blocks too. *)
let alloc_children t =
  let base =
    if t.free_node >= 0 then begin
      let b = t.free_node in
      t.free_node <- t.child.(b);
      b
    end
    else begin
      let b = t.nodes in
      if b + 4 > Array.length t.child then grow_nodes t (b + 4);
      t.nodes <- b + 4;
      b
    end
  in
  t.child.(base) <- -1;
  t.child.(base + 1) <- -1;
  t.child.(base + 2) <- -1;
  t.child.(base + 3) <- -1;
  t.count.(base) <- 0;
  t.count.(base + 1) <- 0;
  t.count.(base + 2) <- 0;
  t.count.(base + 3) <- 0;
  t.head.(base) <- -1;
  t.head.(base + 1) <- -1;
  t.head.(base + 2) <- -1;
  t.head.(base + 3) <- -1;
  base

(* Register a freshly created leaf of occupancy [count] at [depth]. *)
let note_leaf t depth count =
  t.leaves <- t.leaves + 1;
  let bucket = if count < t.capacity then count else t.capacity in
  t.hist.(bucket) <- t.hist.(bucket) + 1;
  t.depth_count.(depth) <- t.depth_count.(depth) + 1;
  if depth > t.height then t.height <- depth

(* Deregister a leaf of occupancy [count] at [depth] — the inverse of
   [note_leaf], except that [height] is not lowered here: callers that
   can shrink the tree (merges) re-derive it from [depth_count] once
   the dust settles. *)
let drop_leaf t depth count =
  t.leaves <- t.leaves - 1;
  let bucket = if count < t.capacity then count else t.capacity in
  t.hist.(bucket) <- t.hist.(bucket) - 1;
  t.depth_count.(depth) <- t.depth_count.(depth) - 1

(* The fine (42-bit) ordinates of a point: exact, the multiply only
   shifts the exponent, and truncating a value in [0, 2^42) is floor.
   The point crosses the call as its (already boxed) record, so reading
   the coordinates stays unboxed and nothing is allocated. The hi Morton
   word is the interleave of their top [bits] bits — identical to
   quantizing at 2^21, since floor (floor (x * 2^42) / 2^21) =
   floor (x * 2^21). *)
let fine_px (p : Point.t) = int_of_float (p.Point.x *. fine_scale)
let fine_py (p : Point.t) = int_of_float (p.Point.y *. fine_scale)
let hi_code qx qy = Morton.interleave (qx lsr bits) (qy lsr bits)

(* The same ordinates for a stored slot, computed on demand from the
   float columns. Nothing below the hi word is stored per slot: levels
   21..41 are rare enough that recomputing beats an extra 8n-byte
   column. *)
let fine_x t slot = int_of_float (t.xs.{slot} *. fine_scale)
let fine_y t slot = int_of_float (t.ys.{slot} *. fine_scale)

(* The lo Morton word of a slot: the next 21 bits of each axis below the
   stored hi word, interleaved. *)
let lo_code t slot =
  Morton.interleave (fine_x t slot land axis_mask) (fine_y t slot land axis_mask)

(* Which child of a depth-[depth] node holds a point, as its Morton pair
   (y bit << 1) | x bit: read from the point's hi Morton word [code]
   above level [bits], from its fine ordinates [qx, qy] at and below it.
   Every descent and every split asks this one function. The equivalence
   with float midpoints holds level for level: the cell midpoint at
   depth d <= 41 is the dyadic k/2^(d+1), and [x >= k/2^(d+1)] iff bit
   (41 - d) of [floor (x * 2^42)] is set, given the shared cell
   prefix. *)
let[@inline] child_pair code qx qy depth =
  if depth < bits then (code lsr (2 * (bits - 1 - depth))) land 3
  else
    let sh = bits_fine - 1 - depth in
    (((qy lsr sh) land 1) lsl 1) lor ((qx lsr sh) land 1)

(* [child_pair] for a stored slot: the hi word comes from the [codes]
   column, the fine ordinates are computed only below level [bits]. *)
let slot_pair t slot depth =
  if depth < bits then child_pair t.codes.{slot} 0 0 depth
  else child_pair 0 (fine_x t slot) (fine_y t slot) depth

(* Absorb [slot] into leaf [node] at [depth], maintaining histogram and
   leaf bookkeeping. Returns [true] when the leaf overflowed (it has
   already been deregistered) and the caller must split it. *)
let absorb t node depth slot =
  let c = t.count.(node) in
  let old_bucket = if c < t.capacity then c else t.capacity in
  t.next.{slot} <- t.head.(node);
  t.head.(node) <- slot;
  let c = c + 1 in
  t.count.(node) <- c;
  if c <= t.capacity || depth >= t.max_depth then begin
    t.hist.(old_bucket) <- t.hist.(old_bucket) - 1;
    let bucket = if c < t.capacity then c else t.capacity in
    t.hist.(bucket) <- t.hist.(bucket) + 1;
    false
  end
  else begin
    t.leaves <- t.leaves - 1;
    t.hist.(old_bucket) <- t.hist.(old_bucket) - 1;
    t.depth_count.(depth) <- t.depth_count.(depth) - 1;
    true
  end

(* Relink an over-full leaf's chain onto the four fresh children at
   [base], keyed by each slot's pair at [depth]. Ints only. *)
let rec distribute t base depth slot =
  if slot >= 0 then begin
    let nxt = t.next.{slot} in
    let c = base + slot_pair t slot depth in
    t.next.{slot} <- t.head.(c);
    t.head.(c) <- slot;
    t.count.(c) <- t.count.(c) + 1;
    distribute t base depth nxt
  end

(* Split an over-full, deregistered former leaf [node] at [depth]
   (< max_depth <= 42), splitting again any child still over-full. *)
let rec split t node depth =
  t.internals <- t.internals + 1;
  Probe.builder_split ~depth;
  let base = alloc_children t in
  let chain = t.head.(node) in
  t.child.(node) <- base;
  t.head.(node) <- -1;
  (* [t.count.(node)] keeps the overflowed chain total: with subtree
     counts it is exactly the new internal node's population. *)
  distribute t base depth chain;
  let cdepth = depth + 1 in
  for i = 0 to 3 do
    let c = base + i in
    let cc = t.count.(c) in
    if cc <= t.capacity || cdepth >= t.max_depth then note_leaf t cdepth cc
    else split t c cdepth
  done

(* The writers' point descent: walk from the root to the leaf whose cell
   holds the point (hi word [code], fine ordinates [qx, qy]), write every
   node id on the way — the leaf included — into [t.path], and return
   the leaf depth. Ints only, so it allocates nothing at any depth.
   Internal nodes sit above [max_depth <= 42], so the fine ordinates
   never run out. *)
let rec locate t node depth code qx qy =
  t.path.(depth) <- node;
  let base = t.child.(node) in
  if base < 0 then depth
  else locate t (base + child_pair code qx qy depth) (depth + 1) code qx qy

let insert t p =
  if not (Point.in_unit_square p) then
    invalid_arg "Pr_arena.insert: point outside bounds";
  Probe.builder_insert ();
  (* A freed slot is reused before the high-water mark moves, so a
     delete/insert steady state never grows a column. *)
  let slot =
    if t.free_slot >= 0 then begin
      let s = t.free_slot in
      t.free_slot <- t.next.{s};
      s
    end
    else begin
      if t.slots >= Bigarray.Array1.dim t.xs then grow_points t (t.slots + 1);
      let s = t.slots in
      t.slots <- s + 1;
      s
    end
  in
  t.size <- t.size + 1;
  t.xs.{slot} <- p.Point.x;
  t.ys.{slot} <- p.Point.y;
  let qx = fine_px p and qy = fine_py p in
  let code = hi_code qx qy in
  t.codes.{slot} <- code;
  let depth = locate t 0 0 code qx qy in
  (* Subtree counts: every internal node on the path gains the point. *)
  for d = 0 to depth - 1 do
    let a = t.path.(d) in
    t.count.(a) <- t.count.(a) + 1
  done;
  let leaf = t.path.(depth) in
  if absorb t leaf depth slot then split t leaf depth

let insert_all t ps = List.iter (insert t) ps

(* Deletes. [delete] removes one stored occurrence of a point: locate
   its leaf by the same descent as [insert] — recording the root-to-leaf
   node ids in the preallocated [path] scratch — unlink the slot from
   the leaf's intrusive chain, then merge ancestors back into leaves
   while their subtree population has fallen to at most [capacity].
   Freed slots and node 4-blocks go on the intrusive free lists, so a
   delete (and the reinsert that reuses what it freed) touches nothing
   but the existing columns: zero minor-heap words on the no-merge path,
   same claim as insert, enforced by the alloc tests.

   The merge check at an ancestor inspects only its four children: if
   any child is internal, that child's subtree alone holds more than
   [capacity] points — every internal node does: splits create them
   over-full, inserts only add, and eager merging here removes any
   internal node that drops to [capacity] — so the ancestor cannot
   collapse either and the upward walk stops. That early exit keeps
   the post-delete walk O(1) per level, and the maintained invariant
   is exactly canonicality: a node is internal iff more than
   [capacity] live points lie under it, the same shape a fresh build
   of the survivors produces. *)

(* Unlink the first slot in [leaf]'s chain equal to the query point in
   [t.qbuf] and return it, or -1 when absent. Exact float comparison:
   distinct floats can share a Morton code, so codes cannot stand in
   for the coordinates here. *)
let rec unlink_slot t leaf prev slot =
  if slot < 0 then -1
  else if t.xs.{slot} = t.qbuf.{0} && t.ys.{slot} = t.qbuf.{1} then begin
    if prev < 0 then t.head.(leaf) <- t.next.{slot}
    else t.next.{prev} <- t.next.{slot};
    slot
  end
  else unlink_slot t leaf slot t.next.{slot}

let rec chain_tail t slot =
  let n = t.next.{slot} in
  if n < 0 then slot else chain_tail t n

(* Collapse the four leaf children of [parent] (at [depth]) back into a
   leaf: concatenate their chains in child (Morton pair) order, push
   the 4-block onto the node free list, and fix every counter except
   [height] (the caller re-derives it from [depth_count]). *)
let merge_node t parent depth =
  Probe.arena_merge ();
  let base = t.child.(parent) in
  let cdepth = depth + 1 in
  let head = ref (-1) and tail = ref (-1) in
  let total = ref 0 in
  for i = 0 to 3 do
    let c = base + i in
    drop_leaf t cdepth t.count.(c);
    total := !total + t.count.(c);
    let h = t.head.(c) in
    if h >= 0 then begin
      if !tail < 0 then head := h else t.next.{!tail} <- h;
      tail := chain_tail t h
    end;
    t.child.(c) <- -1;
    t.count.(c) <- 0;
    t.head.(c) <- -1
  done;
  t.internals <- t.internals - 1;
  t.child.(parent) <- -1;
  t.head.(parent) <- !head;
  t.count.(parent) <- !total;
  note_leaf t depth !total;
  t.child.(base) <- t.free_node;
  t.free_node <- base

(* Walk the recorded path upward from the deleted point's leaf (at
   [depth]), merging while the parent's children are four leaves whose
   total occupancy fits one; the first ancestor that cannot merge ends
   the walk (see the invariant argument above). *)
let rec merge_up t depth =
  if depth > 0 then begin
    let parent = t.path.(depth - 1) in
    let base = t.child.(parent) in
    if
      (* The parent's subtree count is the four children's total —
         exactly the occupancy of the merged leaf. *)
      t.count.(parent) <= t.capacity
      && t.child.(base) < 0
      && t.child.(base + 1) < 0
      && t.child.(base + 2) < 0
      && t.child.(base + 3) < 0
    then begin
      merge_node t parent (depth - 1);
      merge_up t (depth - 1)
    end
  end

let delete t p =
  if not (Point.in_unit_square p) then false
  else begin
    t.qbuf.{0} <- p.Point.x;
    t.qbuf.{1} <- p.Point.y;
    let qx = fine_px p and qy = fine_py p in
    let depth = locate t 0 0 (hi_code qx qy) qx qy in
    let leaf = t.path.(depth) in
    let slot = unlink_slot t leaf (-1) t.head.(leaf) in
    if slot < 0 then false
    else begin
      Probe.arena_delete ();
      t.next.{slot} <- t.free_slot;
      t.free_slot <- slot;
      t.size <- t.size - 1;
      let c = t.count.(leaf) in
      let old_bucket = if c < t.capacity then c else t.capacity in
      let c = c - 1 in
      t.count.(leaf) <- c;
      t.hist.(old_bucket) <- t.hist.(old_bucket) - 1;
      let bucket = if c < t.capacity then c else t.capacity in
      t.hist.(bucket) <- t.hist.(bucket) + 1;
      (* Subtree counts: every recorded ancestor loses the point. The
         leaf itself (path.(depth)) was decremented above. *)
      for d = 0 to depth - 1 do
        let a = t.path.(d) in
        t.count.(a) <- t.count.(a) - 1
      done;
      merge_up t depth;
      while t.height > 0 && t.depth_count.(t.height) = 0 do
        t.height <- t.height - 1
      done;
      true
    end
  end

let update t p q =
  if not (Point.in_unit_square q) then
    invalid_arg "Pr_arena.update: replacement point outside bounds";
  delete t p
  && begin
       insert t q;
       true
     end

let of_points ?max_depth ~capacity ps =
  let t = create ?max_depth ~capacity () in
  Probe.arena_build `Incremental ~inserts:(List.length ps) (fun () ->
      insert_all t ps);
  t

(* Morton-order bulk build: a single top-down recursion that radix
   sorts two-word keys MSD-first, two code bits per level, and emits
   each node the moment its range is partitioned — leaves appear left
   to right in Z-order and parents link as the recursion returns. The
   sort stops exactly where the tree does, so ranges that are already
   leaf-sized never pay for their remaining code bits.

   Keys are two parallel columns: the key word under scrutiny (hi
   Morton word for levels 0..20, reloaded in place with the lo word at
   level 21) and the slot. Nothing packs the slot into the key, so the
   build has no point-count cap — the historical silent reroute to
   incremental inserts past 2^21 points is gone. *)

(* Chain slots ss[lo, hi) onto leaf [node] so traversal yields ascending
   slot (insertion) order, register it at [depth]. *)
let emit_leaf t (ss : iarr) lo hi node depth =
  let n = hi - lo in
  t.count.(node) <- n;
  if n > 0 then begin
    for k = lo to hi - 2 do
      t.next.{ss.{k}} <- ss.{k + 1}
    done;
    t.next.{ss.{hi - 1}} <- -1;
    t.head.(node) <- ss.{lo}
  end;
  note_leaf t depth n

(* One MSD radix level: a stable counting partition of (sk, ss)[lo, hi)
   into (dk, ds) on the two key bits at shift [sh]. [cnt] is a 4-slot
   buffer reused by every node — pair counts land in it branchlessly
   (indexing, not matching), then it holds the running write bases, and
   on return [cnt.(i)] is the end of child [i]'s range ([cnt.(3) = hi]).
   The caller recurses with the buffer pairs swapped — no copy back;
   sibling ranges are disjoint, so each subtree ping-pongs its own slice
   independently, which is also what makes the range fan-out below safe
   on shared buffers. *)
let partition (sk : iarr) (ss : iarr) (dk : iarr) (ds : iarr) cnt lo hi sh =
  cnt.(0) <- 0;
  cnt.(1) <- 0;
  cnt.(2) <- 0;
  cnt.(3) <- 0;
  for k = lo to hi - 1 do
    let d = (sk.{k} lsr sh) land 3 in
    cnt.(d) <- cnt.(d) + 1
  done;
  let e1 = lo + cnt.(0) in
  let e2 = e1 + cnt.(1) in
  let e3 = e2 + cnt.(2) in
  cnt.(0) <- lo;
  cnt.(1) <- e1;
  cnt.(2) <- e2;
  cnt.(3) <- e3;
  for k = lo to hi - 1 do
    let kv = sk.{k} in
    let d = (kv lsr sh) land 3 in
    let p = cnt.(d) in
    dk.{p} <- kv;
    ds.{p} <- ss.{k};
    cnt.(d) <- p + 1
  done

(* The sequential build over key/slot columns, one [partition] per
   split. [fine] says the key column already holds lo words; crossing
   level [bits] reloads the column in place (the hi words are constant
   across the range there) and continues at the same depth. Splits
   happen above [max_depth <= 42], so the lo word never runs out. *)
let rec build_sorted t (sk : iarr) (ss : iarr) (dk : iarr) (ds : iarr) cnt lo
    hi node depth fine =
  if hi - lo <= t.capacity || depth >= t.max_depth then
    emit_leaf t ss lo hi node depth
  else if depth >= bits && not fine then begin
    for k = lo to hi - 1 do
      sk.{k} <- lo_code t ss.{k}
    done;
    build_sorted t sk ss dk ds cnt lo hi node depth true
  end
  else begin
    t.internals <- t.internals + 1;
    Probe.builder_split ~depth;
    let base = alloc_children t in
    t.child.(node) <- base;
    t.count.(node) <- hi - lo;
    partition sk ss dk ds cnt lo hi
      (if fine then 2 * (bits_fine - 1 - depth) else 2 * (bits - 1 - depth));
    let e1 = cnt.(0) and e2 = cnt.(1) and e3 = cnt.(2) in
    let cdepth = depth + 1 in
    build_sorted t dk ds sk ss cnt lo e1 base cdepth fine;
    build_sorted t dk ds sk ss cnt e1 e2 (base + 1) cdepth fine;
    build_sorted t dk ds sk ss cnt e2 e3 (base + 2) cdepth fine;
    build_sorted t dk ds sk ss cnt e3 hi (base + 3) cdepth fine
  end

(* The packed single-column twin of [build_sorted], the sequential fast
   path for n <= 2^21 heap builds: key and slot share one word —
   [(code lsl 21) lor slot], 63 bits, exactly an OCaml int — in plain
   int arrays, so every partition pass moves one word per element
   instead of a key and a slot column entry. This is PR 5's kernel
   (it was the whole bulk build then, and its 21-bit slot field is why
   that build capped at 2^21 points), kept because at small n it is
   measurably faster than the two-column sort — the `ablation:` bench
   rows price the difference — and extended past depth 21 the same way
   as [build_sorted]: when a partition range crosses level [bits], the
   hi code above every slot in the range coincides, so each word is
   reloaded in place with the lo code over the same slot. Builds that
   outgrow the slot field (or run parallel, or keep columns in mmap
   segments) take the two-column path; the choice selects a sort
   buffer only — both kernels are stable MSD partitions emitting the
   identical canonical arena, which the bulk-equivalence qcheck
   properties pin down across the size boundary. *)

let packed_slot_mask = (1 lsl bits) - 1

(* Works on packed words and on raw slots alike: masking a raw slot is
   the identity (slots fit the field by construction). *)
let emit_leaf_packed t (order : int array) lo hi node depth =
  let n = hi - lo in
  t.count.(node) <- n;
  if n > 0 then begin
    for k = lo to hi - 2 do
      t.next.{order.(k) land packed_slot_mask} <-
        order.(k + 1) land packed_slot_mask
    done;
    t.next.{order.(hi - 1) land packed_slot_mask} <- -1;
    t.head.(node) <- order.(lo) land packed_slot_mask
  end;
  note_leaf t depth n

let rec build_packed t (src : int array) (dst : int array) cnt lo hi node
    depth fine =
  if hi - lo <= t.capacity || depth >= t.max_depth then
    emit_leaf_packed t src lo hi node depth
  else if depth >= bits && not fine then begin
    (* Every hi word in the range coincides; reload each word in place
       with the lo code over the same slot and continue at this
       depth — the packed mirror of [build_sorted]'s key reload. *)
    for k = lo to hi - 1 do
      let slot = src.(k) land packed_slot_mask in
      src.(k) <- (lo_code t slot lsl bits) lor slot
    done;
    build_packed t src dst cnt lo hi node depth true
  end
  else begin
    t.internals <- t.internals + 1;
    Probe.builder_split ~depth;
    let base = alloc_children t in
    t.child.(node) <- base;
    t.count.(node) <- hi - lo;
    let sh =
      (if fine then 2 * (bits_fine - 1 - depth) else 2 * (bits - 1 - depth))
      + bits
    in
    cnt.(0) <- 0;
    cnt.(1) <- 0;
    cnt.(2) <- 0;
    cnt.(3) <- 0;
    for k = lo to hi - 1 do
      let d = (src.(k) lsr sh) land 3 in
      cnt.(d) <- cnt.(d) + 1
    done;
    let e1 = lo + cnt.(0) in
    let e2 = e1 + cnt.(1) in
    let e3 = e2 + cnt.(2) in
    cnt.(0) <- lo;
    cnt.(1) <- e1;
    cnt.(2) <- e2;
    cnt.(3) <- e3;
    for k = lo to hi - 1 do
      let v = src.(k) in
      let d = (v lsr sh) land 3 in
      let p = cnt.(d) in
      dst.(p) <- v;
      cnt.(d) <- p + 1
    done;
    let cdepth = depth + 1 in
    build_packed t dst src cnt lo e1 base cdepth fine;
    build_packed t dst src cnt e1 e2 (base + 1) cdepth fine;
    build_packed t dst src cnt e2 e3 (base + 2) cdepth fine;
    build_packed t dst src cnt e3 hi (base + 3) cdepth fine
  end

(* Domain-parallel orchestration of the same sort, in three phases with
   a deterministic, task-ordered reduction — the built arena is
   byte-identical to the sequential build for every job count:

   A. [expand] partitions the top [split_depth] levels sequentially
      (the same stable scatter), recording a plan: leaf ranges, split
      nodes, and up to 4^split_depth independent subtree ranges.
   B. The ranges fan out on the pool. Each task builds its subtree into
      task-local node arrays (local id 0 = the subtree root), writing
      only its own slice of the shared key/slot/next columns — ranges
      are disjoint, so the buffers need no locks. Task results depend
      only on the range, never on the schedule.
   C. [replay] walks the plan in sequential DFS order, allocating
      global node ids exactly as the sequential recursion would —
      top-level children first, then each task's block, offset-relabeled
      in task order — and merging the per-task statistics (sums, max
      height, histogram add). Node ids, chains and counters all land
      bit-for-bit where the sequential build puts them. *)

type plan =
  | P_leaf of { lo : int; hi : int; depth : int }
  | P_task of { id : int }
  | P_split of { depth : int; lo : int; hi : int; parts : plan array }

type range = { r_lo : int; r_hi : int; r_depth : int }

let rec expand t (sk : iarr) (ss : iarr) (dk : iarr) (ds : iarr) cnt acc
    nacc lo hi depth split_depth =
  if hi - lo <= t.capacity || depth >= t.max_depth then
    P_leaf { lo; hi; depth }
  else if depth >= split_depth then begin
    let id = !nacc in
    incr nacc;
    acc := { r_lo = lo; r_hi = hi; r_depth = depth } :: !acc;
    P_task { id }
  end
  else begin
    partition sk ss dk ds cnt lo hi (2 * (bits - 1 - depth));
    let e1 = cnt.(0) and e2 = cnt.(1) and e3 = cnt.(2) in
    let cdepth = depth + 1 in
    let p0 = expand t dk ds sk ss cnt acc nacc lo e1 cdepth split_depth in
    let p1 = expand t dk ds sk ss cnt acc nacc e1 e2 cdepth split_depth in
    let p2 = expand t dk ds sk ss cnt acc nacc e2 e3 cdepth split_depth in
    let p3 = expand t dk ds sk ss cnt acc nacc e3 hi cdepth split_depth in
    P_split { depth; lo; hi; parts = [| p0; p1; p2; p3 |] }
  end

(* A task-local pseudo-arena: shares the point/key columns (tasks only
   touch their own slot range) but owns fresh node arrays and counters,
   so phase B mutates nothing global. *)
let local_of t =
  {
    t with
    nodes = 1;
    child = Array.make 64 (-1);
    count = Array.make 64 0;
    head = Array.make 64 (-1);
    leaves = 0;
    internals = 0;
    height = 0;
    hist = Array.make (t.capacity + 1) 0;
    (* Subtree depths are absolute (tasks start at their range depth),
       so local per-depth counts add straight into the global array. *)
    depth_count = Array.make (t.max_depth + 1) 0;
  }

(* Splice a task-local subtree onto global [node]: local id 0 maps onto
   [node] (pre-allocated by the plan replay), local id k >= 1 onto
   [offset + k - 1] — the exact ids the sequential DFS would have
   assigned, because local allocation order is the same DFS. *)
let graft t l node =
  let extra = l.nodes - 1 in
  if t.nodes + extra > Array.length t.child then grow_nodes t (t.nodes + extra);
  let offset = t.nodes in
  let relabel c = if c < 0 then c else offset + c - 1 in
  t.child.(node) <- relabel l.child.(0);
  t.count.(node) <- l.count.(0);
  t.head.(node) <- l.head.(0);
  for k = 1 to l.nodes - 1 do
    let g = offset + k - 1 in
    t.child.(g) <- relabel l.child.(k);
    t.count.(g) <- l.count.(k);
    t.head.(g) <- l.head.(k)
  done;
  t.nodes <- offset + extra;
  t.leaves <- t.leaves + l.leaves;
  t.internals <- t.internals + l.internals;
  if l.height > t.height then t.height <- l.height;
  Array.iteri (fun i v -> t.hist.(i) <- t.hist.(i) + v) l.hist;
  Array.iteri
    (fun i v -> t.depth_count.(i) <- t.depth_count.(i) + v)
    l.depth_count

let rec replay t results slots_even slots_odd plan node =
  match plan with
  | P_leaf { lo; hi; depth } ->
    let ss = if depth land 1 = 0 then slots_even else slots_odd in
    emit_leaf t ss lo hi node depth
  | P_task { id } -> graft t results.(id) node
  | P_split { depth; lo; hi; parts } ->
    t.internals <- t.internals + 1;
    Probe.builder_split ~depth;
    let base = alloc_children t in
    t.child.(node) <- base;
    t.count.(node) <- hi - lo;
    for i = 0 to 3 do
      replay t results slots_even slots_odd parts.(i) (base + i)
    done

let parallel_build t n pool keys slots keys2 slots2 =
  let jobs = Parallel.Pool.jobs pool in
  (* Enough ranges to balance the fan-out even when the Z-order is
     skewed: the smallest k with 4^k >= 8 * jobs, at most 5 levels. *)
  let split_depth =
    let k = ref 1 in
    while (1 lsl (2 * !k)) < 8 * jobs && !k < 5 do
      incr k
    done;
    !k
  in
  let cnt = Array.make 4 0 in
  let acc = ref [] and nacc = ref 0 in
  let plan =
    Probe.arena_phase ~phase:"expand" (fun () ->
        expand t keys slots keys2 slots2 cnt acc nacc 0 n 0 split_depth)
  in
  let ranges = Array.of_list (List.rev !acc) in
  Probe.arena_parallel ~tasks:(Array.length ranges) ~jobs;
  let results =
    Probe.arena_phase ~phase:"subtrees" (fun () ->
        Parallel.Pool.map_array pool (Array.length ranges) ~f:(fun i ->
            Probe.arena_subtree ~index:i (fun () ->
                let r = ranges.(i) in
                let l = local_of t in
                (* Buffer parity tracks depth: every level above
                   [r_depth] scattered exactly once. *)
                let sk, ss, dk, ds =
                  if r.r_depth land 1 = 0 then (keys, slots, keys2, slots2)
                  else (keys2, slots2, keys, slots)
                in
                build_sorted l sk ss dk ds (Array.make 4 0) r.r_lo r.r_hi 0
                  r.r_depth false;
                l)))
  in
  Probe.arena_phase ~phase:"stitch" (fun () ->
      replay t results slots slots2 plan 0)

(* Shared driver for both bulk entry points: points are already in the
   columns (slots 0 .. n-1) and [t.size = n]; sort and emit. *)
let bulk_build t n ~jobs ~pool ~packed =
  (* The root leaf registered by [create] is replaced wholesale by the
     build's own registration: [emit_leaf] registers every leaf,
     the root included when it stays one. *)
  t.leaves <- 0;
  t.hist.(0) <- 0;
  t.height <- 0;
  t.depth_count.(0) <- 0;
  match packed with
  | Some packed ->
    (* The packed fast path (see [build_packed]): one word per element
       in two plain int arrays, with the key array already built by the
       caller's fill loop. The arrays are transient sort scratch — at
       most 16 MB each at the size bound — so a heap build loses nothing
       of the out-of-core story by using them; mmap-backed arenas keep
       every buffer in segments and take the column path below. *)
    let scratch = Array.make (max n 1) 0 in
    let cnt = Array.make 4 0 in
    build_packed t packed scratch cnt 0 n 0 0 false
  | None -> (
    let keys = alloc_i t "keys" (max n 1) in
    let slots = alloc_i t "slots" (max n 1) in
    let keys2 = alloc_i t "keys2" (max n 1) in
    let slots2 = alloc_i t "slots2" (max n 1) in
    for i = 0 to n - 1 do
      keys.{i} <- t.codes.{i};
      slots.{i} <- i
    done;
    match pool with
    | Some p -> parallel_build t n p keys slots keys2 slots2
    | None -> (
      match jobs with
      | Some j ->
        Parallel.Pool.with_pool ~jobs:(max 1 j) (fun p ->
            parallel_build t n p keys slots keys2 slots2)
      | None ->
        let cnt = Array.make 4 0 in
        build_sorted t keys slots keys2 slots2 cnt 0 n 0 0 false))

let bulk_of_fn ?max_depth ?backing ?jobs ?pool ~capacity ~n f =
  if n < 0 then invalid_arg "Pr_arena.bulk_of_fn: n < 0";
  let t = create ?max_depth ?backing ~reserve:n ~capacity () in
  Probe.arena_build `Bulk ~inserts:n (fun () ->
      (* The packed fast path (see [build_packed]) applies to sequential,
         heap-backed builds small enough for single-word keys; its keys
         are packed inside the fill loop rather than re-read from the
         codes column in a second pass. *)
      let packed =
        if jobs = None && pool = None && n <= packed_slot_mask && t.backing = Heap
        then Some (Array.make (max n 1) 0)
        else None
      in
      (* Generation is strictly in slot order 0 .. n-1 on the calling
         domain, so a stateful generator (an RNG stream) draws exactly
         as it would filling a list first — without the list. The
         coordinates reach the columns and the quantizing multiply
         unboxed: two float boxes per point would be exactly the O(n)
         minor-heap traffic the bulk path promises not to have (the
         alloc test measures this loop). *)
      for i = 0 to n - 1 do
        let p = f i in
        if not (Point.in_unit_square p) then
          invalid_arg "Pr_arena bulk build: point outside bounds";
        t.xs.{i} <- p.Point.x;
        t.ys.{i} <- p.Point.y;
        let code = hi_code (fine_px p) (fine_py p) in
        t.codes.{i} <- code;
        match packed with Some a -> a.(i) <- (code lsl bits) lor i | None -> ()
      done;
      t.size <- n;
      t.slots <- n;
      bulk_build t n ~jobs ~pool ~packed);
  t

let of_points_bulk ?max_depth ?backing ?jobs ?pool ~capacity ps =
  (* Indexed, not a list cursor: advancing a [ref] over the list pays a
     write barrier per point, which at 2^20 points cost ~50 ms and 6 MB
     of peak RSS in [popan serve] setup; the transient array does not. *)
  let points = Array.of_list ps in
  bulk_of_fn ?max_depth ?backing ?jobs ?pool ~capacity
    ~n:(Array.length points) (fun i -> points.(i))

(* Analysis paths. *)

(* A leaf's points in chain order (for an incremental build: reverse
   insertion order). Built in place front to back, and each point as a
   record literal — floats passed to [Point.make] across the module
   boundary would be boxed — so the list is the only allocation. *)
let[@tail_mod_cons] rec chain_points t slot =
  if slot < 0 then []
  else { Point.x = t.xs.{slot}; y = t.ys.{slot} } :: chain_points t t.next.{slot}

let leaf_points t node = chain_points t t.head.(node)

let fold_leaves t ~init ~f =
  let rec go acc node ~depth ~box =
    let base = t.child.(node) in
    if base < 0 then
      f acc ~depth ~box ~points:(leaf_points t node) ~count:t.count.(node)
    else begin
      let acc = ref acc in
      for q = 0 to 3 do
        acc :=
          go !acc
            (base + quad_pair.(q))
            ~depth:(depth + 1)
            ~box:(Box.child box (Quadrant.of_index q))
      done;
      !acc
    end
  in
  go init 0 ~depth:0 ~box:Box.unit

let iter_points t ~f =
  (* Walk the leaf chains, not the slot range: once points have been
     deleted, freed slots lie anywhere below the high-water mark and
     hold stale coordinates. *)
  let rec chase slot =
    if slot >= 0 then begin
      f (Point.make t.xs.{slot} t.ys.{slot});
      chase t.next.{slot}
    end
  in
  let rec go node =
    let base = t.child.(node) in
    if base < 0 then chase t.head.(node)
    else
      for i = 0 to 3 do
        go (base + i)
      done
  in
  go 0

let points t =
  let acc = ref [] in
  iter_points t ~f:(fun p -> acc := p :: !acc);
  !acc

(* --- Arena-native query kernels --------------------------------------

   These walk the child-base table and the slot columns directly — no
   freeze to a boxed {!Pr_quadtree} per query — and mutate nothing, so
   any number of domains may query one arena concurrently (the serving
   layer fans batches out over one pinned epoch arena). Each query kind
   has exactly one traversal, and it always counts the nodes it enters.

   Integer cell descent. Every cell is a dyadic sub-cell of the unit
   square no finer than the 2^-42 grid, so the kernels carry cells as
   fine integer corners [(qx0, qy0)] with a side exponent [shift] (root:
   [bits_fine]; a child halves the side and offsets its corner by [hs]),
   materializing the exact corner floats [k / 2^42] only for the target
   compares: no box record per visited node, and the count and nearest
   walks allocate nothing per node (asserted in test_alloc). The corners
   are bit-identical to [Box.child]'s midpoint cascade, which keeps the
   answers equal to {!Pr_quadtree}'s.

   Containment pruning. Every node carries its exact subtree population
   ([t.count]), so when the target box contains a node's whole cell the
   range and count walks answer for the subtree without testing a single
   point: [count_in_box] adds the stored count in O(1) and [range_into]
   drains the subtree's leaf chains with no per-point box test. Cost
   then tracks the visited-node frontier — the Curien–Joseph
   partial-match regime — instead of the answer's population. Cells are
   half-open on their high edges (exactly [Box.contains]'s convention,
   enforced by the [>= mid] distribution rule at every split), so
   cell ⊆ target reduces to four closed corner compares.

   Visit counting. Every node entered counts one: a pruned subtree,
   whether pruned by disjointness or by containment, costs its root's
   test and nothing below (the containment drain walks chains, but chain
   work is answer emission, not traversal cost), so the counts line up
   with the partial-match exponent the population analysis predicts.
   Every walk carries the tally in its int return value — register
   adds on the way back up, no heap cell touched per node. The caller
   receives it through an optional caller-owned [cost] scratch, which
   also tallies containment prunes.

   Answers. The range, k-NN, nearest and cell kernels ([*_into]) write
   their answer points into a caller-owned {!Sink} in wire format, so
   serving a query conses nothing per answer point. The list-returning
   [query_box], [k_nearest], [nearest] and [cell_at] are decoders over
   the same kernels. *)

type cost = { mutable visited : int; mutable pruned : int }

let cost () = { visited = 0; pruned = 0 }

(* Zeroed at kernel entry, before any validation can raise, so a
   refused query reads as zero cost. *)
let start_cost = function
  | Some c ->
    c.visited <- 0;
    c.pruned <- 0
  | None -> ()

let note_visited cost v = match cost with Some c -> c.visited <- v | None -> ()

let note_pruned cost =
  match cost with Some c -> c.pruned <- c.pruned + 1 | None -> ()

(* Chain folds, threaded tail-recursively so the counting walk builds
   no closure and touches no ref cell. The target travels as the query
   box itself (one record per query, allocated by the caller), never as
   unpacked float arguments — floats crossing a call boundary would box
   on every leaf. *)
let rec count_chain t (target : Box.t) slot acc =
  if slot < 0 then acc
  else begin
    let x = t.xs.{slot} and y = t.ys.{slot} in
    let acc =
      if
        x >= target.Box.xmin && x < target.Box.xmax && y >= target.Box.ymin
        && y < target.Box.ymax
      then acc + 1
      else acc
    in
    count_chain t target t.next.{slot} acc
  end

(* Answer emission. A kernel appends each answer point to the caller's
   {!Sink} in the wire's own format straight from the coordinate
   columns ({!Sink.add_slot}): no point record, no cons cell, and no
   float crosses a call boxed. Growing the sink, or refusing a point
   past its limit ({!Sink.Full}), is the sink's slow path. *)
let[@inline] put_slot t s slot = Sink.add_slot s t.xs t.ys slot

let rec filter_chain t (target : Box.t) s slot =
  if slot >= 0 then begin
    let x = t.xs.{slot} and y = t.ys.{slot} in
    if
      x >= target.Box.xmin && x < target.Box.xmax && y >= target.Box.ymin
      && y < target.Box.ymax
    then put_slot t s slot;
    filter_chain t target s t.next.{slot}
  end

(* Emit a chain (head to tail) and a whole subtree (children in
   quadrant order NW, NE, SW, SE — pair ids 2, 3, 0, 1): exactly the
   visit order of an unpruned walk when every point passes, so pruning
   never reorders an answer. *)
let rec drain_chain t s slot =
  if slot >= 0 then begin
    put_slot t s slot;
    drain_chain t s t.next.{slot}
  end

let rec drain_subtree t s node =
  let base = t.child.(node) in
  if base < 0 then drain_chain t s t.head.(node)
  else begin
    drain_subtree t s (base + 2);
    drain_subtree t s (base + 3);
    drain_subtree t s (base + 0);
    drain_subtree t s (base + 1)
  end

(* The count walk returns both of its tallies in one int, so neither
   needs a heap cell: the visited-node count in the low [visit_bits]
   bits, the answer count above them. Packed words add field by field
   while the visit field does not carry (fewer than 2^31 nodes visited,
   past any node table that fits in memory); the sum wraps modulo 2^63
   and [lsr] reads the high field unsigned, so counts are exact up to
   2^32 - 1 points. *)
let visit_bits = 31
let visit_mask = (1 lsl visit_bits) - 1

let rec count_walk t (target : Box.t) cost node qx0 qy0 shift =
  let side = 1 lsl shift in
  let x0 = float_of_int qx0 *. inv_fine_scale
  and y0 = float_of_int qy0 *. inv_fine_scale
  and x1 = float_of_int (qx0 + side) *. inv_fine_scale
  and y1 = float_of_int (qy0 + side) *. inv_fine_scale in
  if
    x0 >= target.Box.xmax || target.Box.xmin >= x1 || y0 >= target.Box.ymax
    || target.Box.ymin >= y1
  then 1 (* disjoint *)
  else if
    target.Box.xmin <= x0 && x1 <= target.Box.xmax && target.Box.ymin <= y0
    && y1 <= target.Box.ymax
  then begin
    (* contained: the whole subtree in O(1) *)
    note_pruned cost;
    1 + (t.count.(node) lsl visit_bits)
  end
  else begin
    let base = t.child.(node) in
    if base < 0 then 1 + (count_chain t target t.head.(node) 0 lsl visit_bits)
    else begin
      let h = shift - 1 in
      let hs = 1 lsl h in
      let v = count_walk t target cost (base + 2) qx0 (qy0 + hs) h in
      let v = v + count_walk t target cost (base + 3) (qx0 + hs) (qy0 + hs) h in
      let v = v + count_walk t target cost (base + 0) qx0 qy0 h in
      1 + v + count_walk t target cost (base + 1) (qx0 + hs) qy0 h
    end
  end

let count_in_box ?cost t target =
  start_cost cost;
  let packed = count_walk t target cost 0 0 0 bits_fine in
  note_visited cost (packed land visit_mask);
  packed lsr visit_bits

(* The range walk: the same traversal, emitting the points it finds
   into the sink in quadrant order, and returning its visit tally as the
   count walk does. {!Pr_quadtree.query_box}'s unpruned walk conses the
   same points in the same order, so its list is this walk's emission
   order reversed; [range_into] reverses the answer's points in place
   once the walk is done, and the bytes read in that list's order. *)
let rec range_walk t (target : Box.t) cost s node qx0 qy0 shift =
  let side = 1 lsl shift in
  let x0 = float_of_int qx0 *. inv_fine_scale
  and y0 = float_of_int qy0 *. inv_fine_scale
  and x1 = float_of_int (qx0 + side) *. inv_fine_scale
  and y1 = float_of_int (qy0 + side) *. inv_fine_scale in
  if
    x0 >= target.Box.xmax || target.Box.xmin >= x1 || y0 >= target.Box.ymax
    || target.Box.ymin >= y1
  then 1
  else if
    target.Box.xmin <= x0 && x1 <= target.Box.xmax && target.Box.ymin <= y0
    && y1 <= target.Box.ymax
  then begin
    note_pruned cost;
    drain_subtree t s node;
    1
  end
  else begin
    let base = t.child.(node) in
    if base < 0 then begin
      filter_chain t target s t.head.(node);
      1
    end
    else begin
      let h = shift - 1 in
      let hs = 1 lsl h in
      let v = range_walk t target cost s (base + 2) qx0 (qy0 + hs) h in
      let v =
        v + range_walk t target cost s (base + 3) (qx0 + hs) (qy0 + hs) h
      in
      let v = v + range_walk t target cost s (base + 0) qx0 qy0 h in
      1 + v + range_walk t target cost s (base + 1) (qx0 + hs) qy0 h
    end
  end

let range_into ?cost t target s =
  start_cost cost;
  let from = s.Sink.len in
  note_visited cost (range_walk t target cost s 0 0 0 bits_fine);
  Sink.reverse_points s ~from

(* The list-returning forms decode what the kernels emit, through one
   scratch sink per domain: a point record and a cons cell per answer
   point, built back to front so the list reads in emission order. *)
let scratch = Domain.DLS.new_key Sink.create

let scratch_sink () =
  let s = Domain.DLS.get scratch in
  Sink.clear s;
  s

(* Then give back what a large answer grew the scratch to. *)
let points_of_sink (s : Sink.t) =
  let acc = ref [] and off = ref (s.Sink.len - Sink.point_bytes) in
  while !off >= 0 do
    acc := Sink.point_at s !off :: !acc;
    off := !off - Sink.point_bytes
  done;
  Sink.trim s;
  !acc

let query_box ?cost t target =
  let s = scratch_sink () in
  range_into ?cost t target s;
  points_of_sink s

(* The best-first descent shared by [nearest] and [k_nearest]. [q] is
   the query's flat float scratch [| px; py; r2; ... |] — reads from it
   stay unboxed, where float arguments would box at every call (this
   compiler is not flambda) — and r2 is the squared pruning radius,
   which [scan] (the leaf visitor) shrinks as candidates turn up. A node
   is entered only while its clamp distance (the form of
   [Pr_quadtree.distance_sq_to_box], bit for bit) is below r2. Children
   are visited closest first, ties in quadrant order: each quadrant's
   rank is how many quadrants sort strictly before it, and the
   permutation packs into one int, two bits per rank — no per-node
   scratch array. Child distances are written out inline in quadrant
   order NW, NE, SW, SE; a float-argument helper would box per node. *)
let rec near_walk t (q : float array) scan node qx0 qy0 shift =
  let px = q.(0) and py = q.(1) in
  let side = 1 lsl shift in
  let x0 = float_of_int qx0 *. inv_fine_scale
  and y0 = float_of_int qy0 *. inv_fine_scale
  and x1 = float_of_int (qx0 + side) *. inv_fine_scale
  and y1 = float_of_int (qy0 + side) *. inv_fine_scale in
  let cx = if px < x0 then x0 else if px > x1 then x1 else px in
  let cy = if py < y0 then y0 else if py > y1 then y1 else py in
  let dx = px -. cx and dy = py -. cy in
  if (dx *. dx) +. (dy *. dy) < q.(2) then begin
    let base = t.child.(node) in
    if base < 0 then begin
      scan node;
      1
    end
    else begin
      let h = shift - 1 in
      let hs = 1 lsl h in
      let xm = float_of_int (qx0 + hs) *. inv_fine_scale
      and ym = float_of_int (qy0 + hs) *. inv_fine_scale in
      let d0 =
        let cx = if px < x0 then x0 else if px > xm then xm else px
        and cy = if py < ym then ym else if py > y1 then y1 else py in
        let dx = px -. cx and dy = py -. cy in
        (dx *. dx) +. (dy *. dy)
      in
      let d1 =
        let cx = if px < xm then xm else if px > x1 then x1 else px
        and cy = if py < ym then ym else if py > y1 then y1 else py in
        let dx = px -. cx and dy = py -. cy in
        (dx *. dx) +. (dy *. dy)
      in
      let d2 =
        let cx = if px < x0 then x0 else if px > xm then xm else px
        and cy = if py < y0 then y0 else if py > ym then ym else py in
        let dx = px -. cx and dy = py -. cy in
        (dx *. dx) +. (dy *. dy)
      in
      let d3 =
        let cx = if px < xm then xm else if px > x1 then x1 else px
        and cy = if py < y0 then y0 else if py > ym then ym else py in
        let dx = px -. cx and dy = py -. cy in
        (dx *. dx) +. (dy *. dy)
      in
      let r0 =
        (if d1 < d0 then 1 else 0)
        + (if d2 < d0 then 1 else 0)
        + if d3 < d0 then 1 else 0
      in
      let r1 =
        (if d0 <= d1 then 1 else 0)
        + (if d2 < d1 then 1 else 0)
        + if d3 < d1 then 1 else 0
      in
      let r2 =
        (if d0 <= d2 then 1 else 0)
        + (if d1 <= d2 then 1 else 0)
        + if d3 < d2 then 1 else 0
      in
      let r3 =
        (if d0 <= d3 then 1 else 0)
        + (if d1 <= d3 then 1 else 0)
        + if d2 <= d3 then 1 else 0
      in
      let perm =
        (0 lsl (2 * r0)) lor (1 lsl (2 * r1)) lor (2 lsl (2 * r2))
        lor (3 lsl (2 * r3))
      in
      let v = ref 1 in
      for i = 0 to 3 do
        v :=
          !v
          + (match (perm lsr (2 * i)) land 3 with
            | 0 -> near_walk t q scan (base + 2) qx0 (qy0 + hs) h
            | 1 -> near_walk t q scan (base + 3) (qx0 + hs) (qy0 + hs) h
            | 2 -> near_walk t q scan (base + 0) qx0 qy0 h
            | _ -> near_walk t q scan (base + 1) (qx0 + hs) qy0 h)
      done;
      !v
    end
  end
  else 1

let nearest_into ?cost t (p : Point.t) (s : Sink.t) =
  start_cost cost;
  if t.size > 0 then begin
    (* [| px; py; best distance² |]: a flat float array takes unboxed
       writes, where a [float ref] boxes a fresh float on every [:=]. *)
    let q = [| p.Point.x; p.Point.y; Float.infinity |] in
    let best = ref (-1) in
    let scan node =
      let px = q.(0) and py = q.(1) in
      let slot = ref t.head.(node) in
      while !slot >= 0 do
        let sl = !slot in
        let x = t.xs.{sl} and y = t.ys.{sl} in
        let dx = x -. px and dy = y -. py in
        let d = (dx *. dx) +. (dy *. dy) in
        if d < q.(2) then begin
          q.(2) <- d;
          best := sl
        end;
        slot := t.next.{sl}
      done
    in
    note_visited cost (near_walk t q scan 0 0 0 bits_fine);
    if !best >= 0 then put_slot t s !best
  end

let nearest ?cost t p =
  let s = scratch_sink () in
  nearest_into ?cost t p s;
  match points_of_sink s with [ q ] -> Some q | _ -> None

(* The k best are written nearest first: the collector pops them
   farthest first, so each lands one point before the previous one in
   room reserved for all of them up front. *)
let knn_into ?cost t k (p : Point.t) (s : Sink.t) =
  start_cost cost;
  if k < 0 then invalid_arg "Pr_arena.k_nearest: k < 0";
  if k > 0 && t.size > 0 then begin
    (* The same shared bounded collector as [Pr_quadtree.k_nearest],
       holding slots; its worst distance is the pruning radius, mirrored
       into [q.(2)] after every offer, so a scanned point is tested
       against the flat array and the collector's float bound is read
       back only when an offer changes it. *)
    let nbrs = Pqueue.Neighbors.create k in
    let q = [| p.Point.x; p.Point.y; Pqueue.Neighbors.worst nbrs |] in
    let scan node =
      let px = q.(0) and py = q.(1) in
      let slot = ref t.head.(node) in
      while !slot >= 0 do
        let sl = !slot in
        let x = t.xs.{sl} and y = t.ys.{sl} in
        let dx = x -. px and dy = y -. py in
        let d = (dx *. dx) +. (dy *. dy) in
        if d < q.(2) then begin
          Pqueue.Neighbors.offer nbrs ~dist:d sl;
          q.(2) <- Pqueue.Neighbors.worst nbrs
        end;
        slot := t.next.{sl}
      done
    in
    note_visited cost (near_walk t q scan 0 0 0 bits_fine);
    let bytes = Sink.point_bytes * Pqueue.Neighbors.size nbrs in
    Sink.reserve s bytes;
    let off = ref (s.Sink.len + bytes) in
    Pqueue.Neighbors.drain_farthest nbrs ~f:(fun sl ->
        off := !off - Sink.point_bytes;
        Sink.set_slot s !off t.xs t.ys sl);
    s.Sink.len <- s.Sink.len + bytes
  end

let k_nearest ?cost t k p =
  let s = scratch_sink () in
  knn_into ?cost t k p s;
  points_of_sink s

(* The readers' point descent: [locate]'s walk without the path. It
   writes nothing — no [t.path], no other scratch — so any number of
   domains may run it on one arena. Returns the leaf's id and depth
   packed as [(node lsl 6) lor depth] (depth <= 42), so neither needs a
   heap cell. *)
let rec leaf_of t node depth code qx qy =
  let base = t.child.(node) in
  if base < 0 then (node lsl 6) lor depth
  else leaf_of t (base + child_pair code qx qy depth) (depth + 1) code qx qy

(* A point descent enters one node per level: the root-to-leaf path of
   [depth] internal steps visits [depth + 1] nodes. The leaf's points
   are emitted in chain order. *)
let cell_into ?cost t (p : Point.t) s =
  start_cost cost;
  if not (Point.in_unit_square p) then
    invalid_arg "Pr_arena.cell_at: point outside bounds";
  let qx = fine_px p and qy = fine_py p in
  let leaf = leaf_of t 0 0 (hi_code qx qy) qx qy in
  let depth = leaf land 63 in
  note_visited cost (depth + 1);
  drain_chain t s t.head.(leaf lsr 6);
  depth

(* The leaf's block is its exact dyadic cell — the fine ordinates
   truncated to their top [depth] bits, side 2^-depth — which is bit for
   bit the box the [Box.child] midpoint cascade reaches. *)
let cell_block (p : Point.t) depth =
  let qx = fine_px p and qy = fine_py p in
  let sh = bits_fine - depth in
  let x0 = (qx lsr sh) lsl sh and y0 = (qy lsr sh) lsl sh in
  let side = 1 lsl sh in
  {
    Box.xmin = float_of_int x0 *. inv_fine_scale;
    ymin = float_of_int y0 *. inv_fine_scale;
    xmax = float_of_int (x0 + side) *. inv_fine_scale;
    ymax = float_of_int (y0 + side) *. inv_fine_scale;
  }

let cell_at ?cost t p =
  let s = scratch_sink () in
  let depth = cell_into ?cost t p s in
  (depth, cell_block p depth, points_of_sink s)

(* --- Snapshots -------------------------------------------------------

   An O(n) column copy, always heap-backed: Bigarray blits for the point
   columns up to the slot high-water mark and array blits for the node
   tables, free lists and counters included, so the copy is a full arena
   in its own right ([check_invariants] passes, churn may continue on
   either side). Far cheaper than freeze-then-thaw (no boxed node graph,
   no per-point cons), and completely disjoint from the source. The free
   lists come along, so the copy recycles slots and node blocks in the
   source's order: replaying one op sequence on both keeps them
   slot-for-slot identical, which is what lets the serving layer make
   its standby twin with one snapshot and then track the current epoch
   by replay alone. *)
let snapshot t =
  let pcap = max 16 t.slots in
  let s =
    {
      capacity = t.capacity;
      max_depth = t.max_depth;
      backing = Heap;
      seg_dir = None;
      seg_bytes = [];
      nodes = t.nodes;
      child = Array.copy t.child;
      count = Array.copy t.count;
      head = Array.copy t.head;
      size = t.size;
      xs = heap_f pcap;
      ys = heap_f pcap;
      codes = heap_i pcap;
      next = heap_i pcap;
      leaves = t.leaves;
      internals = t.internals;
      height = t.height;
      hist = Array.copy t.hist;
      slots = t.slots;
      free_slot = t.free_slot;
      free_node = t.free_node;
      path = Array.make (t.max_depth + 1) 0;
      depth_count = Array.copy t.depth_count;
      qbuf = heap_f 2;
    }
  in
  if t.slots > 0 then begin
    let open Bigarray.Array1 in
    blit (sub t.xs 0 t.slots) (sub s.xs 0 t.slots);
    blit (sub t.ys 0 t.slots) (sub s.ys 0 t.slots);
    blit (sub t.codes 0 t.slots) (sub s.codes 0 t.slots);
    blit (sub t.next 0 t.slots) (sub s.next 0 t.slots)
  end;
  s

let resident_bytes t =
  (8 * 4 * Bigarray.Array1.dim t.xs) + (8 * 3 * Array.length t.child)

let freeze t =
  let rec conv node =
    let base = t.child.(node) in
    if base < 0 then Pr_quadtree.Raw.Leaf (leaf_points t node)
    else
      Pr_quadtree.Raw.Node
        (Array.init 4 (fun q -> conv (base + quad_pair.(q))))
  in
  Pr_quadtree.Raw.make ~capacity:t.capacity ~max_depth:t.max_depth
    ~bounds:Box.unit ~size:t.size ~root:(conv 0)

let thaw tree =
  if not (Box.equal (Pr_quadtree.bounds tree) Box.unit) then
    invalid_arg "Pr_arena.thaw: tree bounds are not the unit square";
  let max_depth = Pr_quadtree.max_depth tree in
  if max_depth > bits_fine then
    invalid_arg "Pr_arena.thaw: tree max_depth exceeds 42";
  let capacity = Pr_quadtree.capacity tree in
  let n = Pr_quadtree.size tree in
  let t = create ~max_depth ~reserve:n ~capacity () in
  t.leaves <- 0;
  t.hist.(0) <- 0;
  t.depth_count.(0) <- 0;
  let slot = ref 0 in
  let rec conv node raw depth =
    match (raw : Pr_quadtree.Raw.raw_node) with
    | Leaf pts ->
      (* Chain so traversal follows the stored list order. *)
      let count = ref 0 in
      let last = ref (-1) in
      List.iter
        (fun (p : Point.t) ->
          let s = !slot in
          incr slot;
          t.xs.{s} <- p.Point.x;
          t.ys.{s} <- p.Point.y;
          t.codes.{s} <- Morton.encode p;
          t.next.{s} <- -1;
          if !last < 0 then t.head.(node) <- s else t.next.{!last} <- s;
          last := s;
          incr count)
        pts;
      t.count.(node) <- !count;
      note_leaf t depth !count
    | Node children ->
      t.internals <- t.internals + 1;
      let base = alloc_children t in
      t.child.(node) <- base;
      let before = !slot in
      Array.iteri
        (fun q c -> conv (base + quad_pair.(q)) c (depth + 1))
        children;
      (* Subtree count: every slot consumed under this node. *)
      t.count.(node) <- !slot - before
  in
  conv 0 (Pr_quadtree.Raw.root tree) 0;
  t.size <- !slot;
  t.slots <- !slot;
  t

let check_invariants t =
  let problems = ref (Pr_quadtree.check_invariants (freeze t)) in
  let report fmt =
    Format.kasprintf (fun s -> problems := !problems @ [ s ]) fmt
  in
  let leaves = ref 0
  and internals = ref 0
  and deepest = ref 0
  and stored = ref 0 in
  let hist = Array.make (t.capacity + 1) 0 in
  let depth_count = Array.make (t.max_depth + 1) 0 in
  let rec go node ~depth ~box =
    let base = t.child.(node) in
    if base < 0 then begin
      incr leaves;
      depth_count.(depth) <- depth_count.(depth) + 1;
      if depth > !deepest then deepest := depth;
      let c = t.count.(node) in
      let bucket = if c < t.capacity then c else t.capacity in
      hist.(bucket) <- hist.(bucket) + 1;
      let chain = ref 0 in
      let slot = ref t.head.(node) in
      while !slot >= 0 do
        let s = !slot in
        incr chain;
        incr stored;
        let p = Point.make t.xs.{s} t.ys.{s} in
        if not (Box.contains box p) then
          report "slot %d outside its leaf cell" s;
        if t.codes.{s} <> Morton.encode p then
          report "slot %d code diverges from its coordinates" s;
        slot := t.next.{s}
      done;
      if !chain <> c then
        report "leaf count field %d but %d slots chained" c !chain
    end
    else begin
      incr internals;
      for q = 0 to 3 do
        go
          (base + quad_pair.(q))
          ~depth:(depth + 1)
          ~box:(Box.child box (Quadrant.of_index q))
      done
    end
  in
  go 0 ~depth:0 ~box:Box.unit;
  if !leaves <> t.leaves then
    report "leaf counter %d but %d leaves present" t.leaves !leaves;
  if !internals <> t.internals then
    report "internal counter %d but %d internal nodes present" t.internals
      !internals;
  if !deepest <> t.height then
    report "height field %d but deepest leaf at %d" t.height !deepest;
  if !stored <> t.size then
    report "size field %d but %d slots chained" t.size !stored;
  if hist <> t.hist then report "incremental histogram diverges from a recount";
  if depth_count <> t.depth_count then
    report "per-depth leaf counts diverge from a recount";
  (* Canonicality under churn: every internal node must still cover
     more than [capacity] live points — eager merging's invariant. *)
  let rec subtree_count node =
    let base = t.child.(node) in
    if base < 0 then t.count.(node)
    else begin
      let s =
        subtree_count base
        + subtree_count (base + 1)
        + subtree_count (base + 2)
        + subtree_count (base + 3)
      in
      if s <= t.capacity then
        report "internal node %d covers only %d points (capacity %d): unmerged"
          node s t.capacity;
      (* Subtree-count maintenance: the stored per-node count must equal
         a recount — the containment-pruning kernels answer from it. *)
      if t.count.(node) <> s then
        report "internal node %d count field %d but subtree holds %d" node
          t.count.(node) s;
      s
    end
  in
  ignore (subtree_count 0 : int);
  (* Free-list accounting: stored plus freed slots must tile the slot
     high-water mark exactly, and tree nodes plus freed 4-blocks the
     node arena. Walks are cycle-guarded by the element counts. *)
  let free_slots = ref 0 in
  let cursor = ref t.free_slot in
  while !cursor >= 0 && !free_slots <= t.slots do
    incr free_slots;
    cursor := t.next.{!cursor}
  done;
  if !cursor >= 0 then report "free-slot list does not terminate (cycle?)"
  else if !stored + !free_slots <> t.slots then
    report "slot accounting: %d stored + %d free <> %d high-water" !stored
      !free_slots t.slots;
  let free_blocks = ref 0 in
  let cursor = ref t.free_node in
  while !cursor >= 0 && 4 * !free_blocks <= t.nodes do
    incr free_blocks;
    cursor := t.child.(!cursor)
  done;
  if !cursor >= 0 then report "free-node list does not terminate (cycle?)"
  else if !leaves + !internals + (4 * !free_blocks) <> t.nodes then
    report "node accounting: %d in tree + %d freed <> %d allocated"
      (!leaves + !internals) (4 * !free_blocks) t.nodes;
  !problems
