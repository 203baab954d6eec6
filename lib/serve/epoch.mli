open Import

(** Epochs: the serving layer's reader/writer seam, as a left-right
    pair.

    The store holds exactly two arenas. The {e current} one is the
    published epoch: readers {!pin} it for the duration of a batch and
    query it with the arena-native kernels. The {e standby} is the
    writer's: it holds the previous epoch until the writer starts
    bringing it forward ({!write}), and {!publish} then swaps the two
    slots, so the standby becomes the next epoch and the old current
    epoch becomes the standby. The arenas share no mutable state, so a
    pinned epoch is immutable by construction: readers can never observe
    a torn arena, whatever the writer does to the other slot.

    Because only the current epoch can be pinned, at most two epochs are
    ever alive: the current one and a superseded one a reader still
    holds. A write to a standby a reader still pins is refused, so a
    pinned epoch stays byte-identical until its last pin drops.
    Publication copies nothing: the writer keeps the standby in step by
    replaying the ops that took the current epoch forward (the caller's
    op log), which costs O(ops), not O(n). {!create} pays the one copy,
    a {!Pr_arena.snapshot} that makes the standby twin.

    Counters: [serve.epochs.published] counts epoch 0 and every
    publication; [serve.epochs.retired] counts an epoch whose arena is
    overwritten by a write, plus both slots at {!shutdown}. The
    [serve.epoch.resident_bytes] gauge is set at each publication to
    the two slots' {!Pr_arena.resident_bytes}. All operations are
    mutex-protected: the writer may write and publish from one domain
    while readers pin from another. *)

type epoch

(** [id e] is the epoch's sequence number (0 for the bootstrap epoch,
    then 1, 2, ... in publication order). *)
val id : epoch -> int

(** [arena e] is the epoch's arena. Callers must only query it, and only
    while they hold a pin: once unpinned and superseded, the writer may
    overwrite it. *)
val arena : epoch -> Pr_arena.t

(** [pins e] is the epoch's current pin count. *)
val pins : epoch -> int

type t

(** [create arena] boots the pair with [arena] as epoch 0 and a
    {!Pr_arena.snapshot} of it as the standby twin. The store takes
    ownership of [arena]: {!shutdown} releases both slots. *)
val create : Pr_arena.t -> t

(** [write t f] runs [f] on the standby arena, which [f] may mutate
    freely, and returns its result. The first write after a publication
    retires the epoch the standby held ([serve.epochs.retired]). Raises
    [Invalid_argument], changing nothing, while a reader still pins that
    epoch. Runs [f] outside the lock, so readers keep pinning the
    current epoch meanwhile; a single writer is assumed. If [f] raises,
    the standby is left torn and {!publish} refuses from then on. *)
val write : t -> (Pr_arena.t -> 'a) -> 'a

(** [publish t] installs the standby as the next epoch and makes the old
    current epoch the standby. O(1). Raises [Invalid_argument] when the
    standby still holds a published epoch (no {!write} since the last
    publication) or was left torn by a failed write. *)
val publish : t -> epoch

(** [current t] is the current epoch, unpinned: a peek, valid only
    under an existing pin or for its [id]. *)
val current : t -> epoch

(** [current_id t] is [id (current t)]. *)
val current_id : t -> int

(** [live_count t] is the number of epochs readers can observe: the
    current one, plus the superseded one if a reader still pins it. *)
val live_count : t -> int

(** [pin t] pins and returns the current epoch: its arena stays intact,
    even across a subsequent {!publish}, until a matching {!unpin}. *)
val pin : t -> epoch

(** [unpin t e] drops one pin. Raises [Invalid_argument] if [e] is not
    pinned. *)
val unpin : t -> epoch -> unit

(** [shutdown t] retires both slots and releases their mmap-backed
    segments. The store must not be used afterwards. *)
val shutdown : t -> unit

(** [check_invariants t] audits the pair: the current epoch is intact
    and below the id allocator, pin counts are non-negative, a
    superseded epoch the standby still holds is the one just before the
    current, a pinned standby is intact, the two slots are distinct
    arenas, and each arena passes {!Pr_arena.check_invariants}: its slot
    accounting (stored + free lists tile the high-water mark), the
    per-slot ownership audit. The standby's arena is audited only while
    no write is in flight. Returns the problems found (empty when
    healthy). *)
val check_invariants : t -> string list
