open Import

(** The arena-backed PR quadtree core: the same canonical PR
    decomposition as {!Pr_quadtree}, stored as a structure of arrays
    instead of a boxed node graph. It is the one mutable PR-tree
    implementation; {!Pr_quadtree} is the persistent reference it is
    tested against.

    Nodes are int indices into flat growable arrays — a child-base table
    ([-1] marks a leaf; a non-negative entry is the index of the first
    of four consecutive children), a per-leaf occupancy count, and a
    per-leaf head into an intrusive slot chain. Points live as Morton
    codes plus parallel coordinate columns; each point occupies one slot
    and leaves thread their slots through a [next] column. The point,
    key and scratch columns are [Bigarray]s ([float64] for coordinates,
    the word-sized unboxed [int] kind for codes and chains — not
    [int64], whose accessors box), so the columns live off the OCaml
    heap entirely, radix loops compile to unboxed loads, and an arena
    can be {b mmap-backed} ({!backing}) for out-of-core builds larger
    than RAM. There is no per-node boxing and no cons cell anywhere on
    the build path:

    - {b allocation-free inserts}: an insert is an integer walk down
      the child-base table driven by the point's Morton code — two bits
      per level — followed by three column writes. Splits redistribute
      an intrusive chain and bump-allocate four node indices. Nothing touches the minor
      heap except doubling a backing column ([make check] asserts the
      zero-minor-words claim via [Gc.minor_words]).
    - {b two build paths}: {!of_points} grows incrementally with O(1)
      statistics (size / leaves / internals / height / occupancy
      histogram maintained per insert, so per-step snapshots are free),
      and {!of_points_bulk} /
      {!bulk_of_fn} sort the Morton keys once — a top-down MSD radix
      partition, two bits per level — and emit the finished tree in a
      single pass, leaves left-to-right in Z-order. The bulk path has
      {b no point-count cap}: keys are two parallel columns (key word +
      slot), not a packed word, so nothing reroutes to incremental
      inserts at any n. With [?jobs] or [?pool] the top levels of the
      radix partition fan independent subtree ranges out on the
      deterministic {!Popan_parallel} pool and reduce node-id blocks in
      task order — the resulting arena is {b byte-identical} to the
      sequential build at every job count.
    - {b the unit square, to 42 levels}: the arena covers exactly
      {!Popan_geom.Box.unit} and [max_depth] is at most
      {!Popan_geom.Morton.bits_fine}[ = 42]. There the Morton bit at
      level [d] equals the float comparison [x >= midpoint] at every
      level a split can reach — cell boundaries are dyadic rationals,
      exactly representable, and [floor (x *. 2^42)] is computed without
      rounding — so both build paths produce bit-for-bit the
      decomposition {!Pr_quadtree.of_points} produces, and every build,
      churn and query path descends on integers the whole way. Data in other bounds is normalized into the unit square
      by the caller ([popan measure] does this at the CLI).

    {!freeze} converts a build into a persistent {!Pr_quadtree.t} and
    {!thaw} goes the other way, so snapshots, checkpoints and golden
    tables are unchanged by the representation; the test suite keeps
    the two qcheck-equal. *)

type t

(** Where the arena's point/key columns live. [Heap] allocates ordinary
    Bigarrays. [Mmap { dir }] maps each column from a segment file in a
    private subdirectory of [dir] (created per arena, so arenas never
    collide), letting builds larger than RAM page through the file
    cache; growth remaps the same file in place. If mapping ever fails
    the arena degrades to heap columns — loudly, via
    [Probe.arena_fallback], never silently. *)
type backing = Heap | Mmap of { dir : string }

(** [create ?max_depth ?reserve ?backing ~capacity ()] is an empty
    arena over the unit square with leaf capacity [capacity] (>= 1) and
    depth limit [max_depth] (default 16; 0 to 42). [reserve] (default 0)
    pre-sizes the point columns so the first [reserve] inserts never
    grow one. [backing] (default {!Heap}) places the columns. Raises
    [Invalid_argument] on a nonpositive capacity, a [max_depth] outside
    0..42 or a negative reserve. *)
val create :
  ?max_depth:int -> ?reserve:int -> ?backing:backing -> capacity:int ->
  unit -> t

(** [capacity t] is the leaf capacity. *)
val capacity : t -> int

(** [max_depth t] is the depth limit. *)
val max_depth : t -> int

(** [backing t] is the arena's {e effective} backing: {!Heap} when an
    {!Mmap} request degraded (see {!backing}). *)
val backing : t -> backing

(** [size t] is the number of stored points. O(1). *)
val size : t -> int

(** [is_empty t] is [size t = 0]. *)
val is_empty : t -> bool

(** [insert t p] adds [p], destructively. Duplicate points are stored
    again (multiset semantics). Raises [Invalid_argument] when [p] is
    outside the unit square. Allocation-free except when a backing
    column doubles. *)
val insert : t -> Point.t -> unit

(** [insert_all t ps] inserts every point of [ps] in order. *)
val insert_all : t -> Point.t list -> unit

(** [delete t p] removes one stored occurrence of [p] (multiset
    semantics: duplicates go one at a time) and returns whether a point
    was removed; absent points — including points outside the unit
    square —
    leave the arena untouched and return [false]. The slot is unlinked
    from its leaf's intrusive chain in O(chain), and every ancestor
    whose subtree population has fallen to at most [capacity] collapses
    back into a leaf — eager merging, which keeps the decomposition
    canonical: after any delete sequence, [freeze t] equals a fresh
    build over the surviving points. Freed slots and node blocks feed
    intrusive free lists that later inserts and splits reuse, so the
    arena footprint is bounded by the live-population high-water mark
    ({!slot_high_water}), not lifetime inserts — and a churn steady
    state is allocation-free: a no-merge delete, like a no-split
    insert, writes zero minor-heap words. *)
val delete : t -> Point.t -> bool

(** [update t p q] is a moving-object step: {!delete} [p] and, when it
    was present, {!insert} [q], returning whether the move happened
    ([p] absent leaves the arena untouched). Raises [Invalid_argument]
    when [q] is outside the unit square (checked before any
    mutation). *)
val update : t -> Point.t -> Point.t -> bool

(** [slot_high_water t] is the number of point slots ever in use at
    once — the bound on column footprint. Equal to [size t] for an
    arena that never deleted; under churn it tracks peak live
    population while lifetime inserts grow without bound. O(1). *)
val slot_high_water : t -> int

(** [of_points ?max_depth ~capacity ps] builds by successive
    destructive insertion — the same growth history (and the same
    decomposition) as {!Pr_quadtree.of_points}. *)
val of_points : ?max_depth:int -> capacity:int -> Point.t list -> t

(** [of_points_bulk ?max_depth ?backing ?jobs ?pool ~capacity ps]
    bulk-loads: encode every point's Morton key, sort once (top-down
    MSD radix, stopping exactly where leaves form), then emit the tree
    in a single linear pass. The PR decomposition is canonical, so the
    result equals {!of_points} on the same points; insertion history is
    not replayed, which makes this the fast path for build-then-measure
    experiments. There is no point-count cap.

    [?jobs] (or an existing [?pool] — [jobs] is ignored when both are
    given) runs the build's subtree ranges on the deterministic domain
    pool; the finished arena is byte-identical to the sequential build
    ([jobs] omitted) for every job count, including [jobs = 1].

    Sequential heap-backed builds with at most [2^21 - 1] points sort
    packed single-word keys (code shifted over slot) in plain int
    arrays instead of the two Bigarray key/slot columns — PR 5's
    kernel, kept because it moves half the words per partition level.
    The choice selects sort scratch only: both
    kernels are stable MSD partitions over the same codes, so the
    finished arena is byte-identical either way. Raises
    [Invalid_argument] as {!create} does, or when a point lies outside
    the unit square. *)
val of_points_bulk :
  ?max_depth:int -> ?backing:backing -> ?jobs:int ->
  ?pool:Popan_parallel.Pool.t -> capacity:int -> Point.t list -> t

(** [bulk_of_fn ?max_depth ?backing ?jobs ?pool ~capacity ~n f]
    is {!of_points_bulk} on the points [f 0 .. f (n-1)] without ever
    materializing them as a list — the large-n entry point (a boxed
    list of 10^8 points costs more than the whole arena). [f] is called
    strictly in order [0 .. n-1] on the calling domain, so a stateful
    generator (an RNG stream) draws exactly as it would building the
    list first. Raises [Invalid_argument] when [n < 0] or some [f i]
    falls outside the unit square. *)
val bulk_of_fn :
  ?max_depth:int -> ?backing:backing -> ?jobs:int ->
  ?pool:Popan_parallel.Pool.t -> capacity:int -> n:int -> (int -> Point.t) ->
  t

(** [bulk_footprint ~capacity ~n] estimates the peak resident bytes of
    a bulk build of [n] points: the four point columns, the four sort
    columns, and a generous bound on the node arrays. Advisory — the
    CLI prints it and checks it against available memory before
    committing to a large build. Raises [Invalid_argument] when
    [capacity < 1] or [n < 0]. *)
val bulk_footprint : capacity:int -> n:int -> int

(** [release t] deletes an mmap-backed arena's segment files (no-op for
    heap arenas). Existing mappings stay readable until collected —
    POSIX keeps unlinked files alive while mapped — but the arena must
    not grow afterwards. Idempotent. *)
val release : t -> unit

(** [leaf_count t] is the number of leaf blocks, counting empty ones.
    O(1). *)
val leaf_count : t -> int

(** [internal_count t] is the number of internal (gray) nodes. O(1). *)
val internal_count : t -> int

(** [height t] is the depth of the deepest leaf (0 for a single-leaf
    tree). O(1). *)
val height : t -> int

(** [occupancy_histogram t] counts leaves by occupancy; index [i] is the
    number of leaves holding exactly [i] points, over-capacity leaves at
    the depth limit clamped into the last cell — exactly
    {!Pr_quadtree.occupancy_histogram}, but O(capacity). *)
val occupancy_histogram : t -> int array

(** [average_occupancy t] is [size t / leaf_count t]. O(1). *)
val average_occupancy : t -> float

(** [fold_leaves t ~init ~f] folds [f] over every leaf with its depth,
    block, stored points and their count. Leaves are visited in the
    same child order as {!Pr_quadtree.fold_leaves} (NW, NE, SW, SE).
    The point lists are materialized per leaf; this is an analysis
    path, not a build path. *)
val fold_leaves :
  t -> init:'a ->
  f:('a -> depth:int -> box:Box.t -> points:Point.t list -> count:int -> 'a)
  -> 'a

(** [iter_points t ~f] applies [f] to every stored point. *)
val iter_points : t -> f:(Point.t -> unit) -> unit

(** [points t] lists all stored points (in no specified order). *)
val points : t -> Point.t list

(** {2 Arena-native queries}

    The query kernels walk the structure-of-arrays columns directly —
    no freeze to {!Pr_quadtree} per query — and mutate nothing, so any
    number of domains may query one arena concurrently; the serving
    layer fans batched queries out over one pinned epoch arena. Each
    kernel is differential-tested against its {!Pr_quadtree}
    counterpart, and each query kind has exactly one traversal: the
    cost counting below is an output of it, not a second copy.

    {b Integer cell descent.} Cells are dyadic sub-cells of the unit
    square no finer than the 2^-42 grid, so the kernels descend on
    integer cell corners — no box record per visited node; the count
    and nearest walks allocate nothing per node.

    {b Containment pruning.} Every node carries its exact subtree
    population, so a node whose cell the target box fully contains is
    answered wholesale — {!count_in_box} adds the stored count in O(1),
    {!range_into} drains the subtree's chains with no per-point test.
    Cost tracks the visited-node frontier (the Curien–Joseph
    partial-match regime), not the answer's population. Soundness rests
    on cells being half-open on their high edges, exactly
    {!Box.contains}'s convention. *)

(** Caller-owned per-query cost scratch. A kernel given [~cost] resets
    it on entry, then leaves in [visited] the number of tree nodes its
    traversal entered — a pruned subtree, disjoint or contained, costs
    exactly its root — and in [pruned] the number of subtrees the range
    and count kernels answered wholesale by containment. A query the
    kernel refuses (it raises [Invalid_argument]) reads zero. The
    visited count is the observable of the partial-match cost analysis:
    on a full-height strip query it grows as [n^((sqrt 17 - 3) / 2)]
    (Curien–Joseph). The serving layer reuses one scratch per domain,
    wrapped in its option once, so passing it costs no allocation. *)
type cost = { mutable visited : int; mutable pruned : int }

(** [cost ()] is a fresh zeroed scratch. *)
val cost : unit -> cost

(** {3 Answers into a sink}

    The range, k-NN, nearest and cell kernels append their answer
    points to a caller-owned {!Sink} in the wire's point format (16
    bytes per point, the IEEE-754 bits of [x] then [y], little-endian)
    and build nothing per answer point. A sink with a limit
    ({!Sink.set_limit}) stops a kernel's walk at the first point that
    would cross it: the kernel raises {!Sink.Full}, leaving the points
    already written. The answer order of each kernel is the order of
    the list its decoder below returns. *)

(** [range_into ?cost t b s] appends the stored points inside [b]
    (half-open, as {!Box.contains}) to [s], in the order of
    {!Pr_quadtree.query_box} on [freeze t]. Subtrees whose cells miss
    [b] are pruned; subtrees whose cells [b] contains are drained
    without per-point tests. *)
val range_into : ?cost:cost -> t -> Box.t -> Sink.t -> unit

(** [knn_into ?cost t k p s] appends up to [k] stored points closest to
    [p], nearest first (ties arbitrary), via the shared
    {!Pqueue.Neighbors} bound, on the same traversal as
    {!nearest_into}. Raises [Invalid_argument] if [k < 0]. *)
val knn_into : ?cost:cost -> t -> int -> Point.t -> Sink.t -> unit

(** [nearest_into ?cost t p s] appends a stored point at minimal
    Euclidean distance from [p] (ties arbitrary), or nothing when [t]
    is empty. Children are visited closest-first under the same
    clamp-distance bound as {!Pr_quadtree.nearest}; the child ranking
    packs into one int — no per-node scratch arrays. *)
val nearest_into : ?cost:cost -> t -> Point.t -> Sink.t -> unit

(** [cell_into ?cost t p s] finds the leaf cell containing [p], appends
    the points stored in it (chain order) and returns its depth — the
    arena analog of {!Pr_quadtree.leaf_at}. A point descent enters
    [depth + 1] nodes; it runs on integer Morton bits and writes
    nothing to the arena. Raises [Invalid_argument] when [p] is outside
    the unit square. *)
val cell_into : ?cost:cost -> t -> Point.t -> Sink.t -> int

(** [cell_block p depth] is the depth-[depth] dyadic cell containing
    [p]: the block of the leaf {!cell_into} found when it returned
    [depth]. *)
val cell_block : Point.t -> int -> Box.t

(** {3 Decoded answers}

    The same kernels, their points decoded into a list through a
    per-domain scratch sink: a point record and a cons cell per answer
    point, nothing else per point. For tests, analysis and callers that
    want values rather than bytes. *)

(** [query_box ?cost t b] is {!range_into}'s answer as a list —
    element for element the list {!Pr_quadtree.query_box} returns on
    [freeze t]. *)
val query_box : ?cost:cost -> t -> Box.t -> Point.t list

(** [count_in_box ?cost t b] is [List.length (query_box t b)] without
    materializing the points; boxes containing whole subtree cells are
    answered from the stored per-node counts in O(frontier). Allocates
    nothing. *)
val count_in_box : ?cost:cost -> t -> Box.t -> int

(** [nearest ?cost t p] is {!nearest_into}'s answer: [None] when [t] is
    empty. *)
val nearest : ?cost:cost -> t -> Point.t -> Point.t option

(** [k_nearest ?cost t k p] is {!knn_into}'s answer as a list, nearest
    first. Raises [Invalid_argument] if [k < 0]. *)
val k_nearest : ?cost:cost -> t -> int -> Point.t -> Point.t list

(** [cell_at ?cost t p] is the leaf cell containing [p]: its depth, its
    block ({!cell_block}), and the points {!cell_into} appends. It
    allocates only the answer. Raises [Invalid_argument] when [p] is
    outside the unit square. *)
val cell_at : ?cost:cost -> t -> Point.t -> int * Box.t * Point.t list

(** [snapshot t] is an independent heap-backed deep copy of the arena —
    columns, node tables, free lists and counters — sharing no mutable
    state with [t]: churn may continue on either side without the other
    observing it. O(slot high-water) Bigarray/array blits, far cheaper
    than [thaw (freeze t)] (no boxed node graph, no per-point cons).
    Because the free lists are copied too, the copy allocates slots and
    node blocks exactly as [t] would: the same insert/delete/update
    sequence applied to both leaves them with identical contents and
    slot layout (the serving layer's standby twin relies on this). *)
val snapshot : t -> t

(** [resident_bytes t] is the arena's resident footprint: the four point
    columns at their current capacity plus the three node tables. O(1);
    what an epoch holds in memory, whether heap- or mmap-backed. *)
val resident_bytes : t -> int

(** [freeze t] is the persistent tree with exactly [t]'s decomposition
    and contents: [equal_structure (freeze t) (Pr_quadtree.of_points
    ... same points ...)] always holds. O(nodes + points); the result
    shares nothing with the arena, so it stays valid however [t] grows
    afterwards. *)
val freeze : t -> Pr_quadtree.t

(** [thaw tree] is an arena resuming from a persistent tree's state,
    with all incremental statistics recomputed in one traversal. The
    input tree is not affected by subsequent inserts. Raises
    [Invalid_argument] when the tree's bounds are not the unit square
    or its [max_depth] exceeds 42. *)
val thaw : Pr_quadtree.t -> t

(** [check_invariants t] verifies the PR invariants of the frozen view
    plus the arena's own bookkeeping (chain lengths vs counts, counters
    and histogram vs a recount, every point's Morton code vs its
    coordinates, every point inside its leaf cell) and returns the
    violations found (empty when healthy). *)
val check_invariants : t -> string list
