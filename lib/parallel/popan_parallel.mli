(** A deterministic multicore trial engine: a hand-rolled OCaml 5
    [Domain] pool with chunked fan-out over task indices and an indexed
    reduction that assembles results in task order.

    Every experiment in this repository averages over independent trials
    whose randomness is pre-split from a master generator *before* any
    work is fanned out, so task [i]'s input never depends on which domain
    runs it or in what order chunks are claimed. Results are written into
    a per-index slot and read back in index order once the batch
    completes. Consequently:

    {b The deterministic-reduction contract.} For a task function [f]
    whose result depends only on its index (no shared mutable state, no
    ambient randomness), [map_list pool n ~f] returns
    [[f 0; f 1; ...; f (n-1)]] — byte-identical for every pool size,
    including a 1-job pool, which runs the tasks inline in ascending
    index order on the calling domain without spawning anything. If
    several tasks raise, the exception of the {e lowest} failing index is
    re-raised, so even failures are schedule-independent.

    The pool is intentionally minimal: one batch in flight at a time,
    submitted from a single owner domain (the submitter participates in
    the work, so a [jobs]-pool spawns [jobs - 1] worker domains). *)

(** [recommended_jobs ()] is the runtime's
    {!Domain.recommended_domain_count} — a sensible [-j] value for this
    machine. *)
val recommended_jobs : unit -> int

(** [default_jobs ()] is the ambient job count used when [?jobs] is
    omitted: initially [1] (fully sequential, the historical behavior)
    unless the [POPAN_JOBS] environment variable sets a positive count at
    startup ([0] means {!recommended_jobs}). *)
val default_jobs : unit -> int

(** [set_default_jobs n] sets the ambient job count; [n <= 0] means
    {!recommended_jobs}. The CLI's [-j] flag lands here. *)
val set_default_jobs : int -> unit

module Pool : sig
  type t

  (** [create ?jobs ()] spawns a pool of [jobs] total workers (the
      caller counts as one, so [jobs - 1] domains are spawned; [jobs]
      defaults to {!default_jobs}, values [< 1] are clamped to 1). *)
  val create : ?jobs:int -> unit -> t

  (** [jobs pool] is the total worker count, including the submitter. *)
  val jobs : t -> int

  (** [shutdown pool] terminates and joins the worker domains.
      Idempotent. Maps submitted afterwards still complete — they just
      run entirely on the calling domain. *)
  val shutdown : t -> unit

  (** [with_pool ?jobs f] runs [f] on a fresh pool and shuts it down
      afterwards, exceptions included. *)
  val with_pool : ?jobs:int -> (t -> 'a) -> 'a

  (** [map_array ?chunk pool n ~f] is [[| f 0; ...; f (n - 1) |]]
      computed across the pool's domains under the deterministic
      reduction contract above. Tasks are claimed in contiguous chunks of
      [chunk] indices (default 1 — trial-grade tasks are coarse enough
      that per-index claiming is noise). Raises [Invalid_argument] when
      [n < 0] or [chunk < 1], and re-raises the lowest-index task
      exception when tasks fail. Must be called from the domain that owns
      the pool; [f] must not submit to the same pool. *)
  val map_array : ?chunk:int -> t -> int -> f:(int -> 'a) -> 'a array

  (** [map_list ?chunk pool n ~f] is {!map_array} as a list. *)
  val map_list : ?chunk:int -> t -> int -> f:(int -> 'a) -> 'a list

  (** [iter ?chunk pool n ~f] runs [f i] for [0 <= i < n] across the
      pool, for effects ([f] writing task-owned slots). Same contract and
      restrictions as {!map_array}. *)
  val iter : ?chunk:int -> t -> int -> f:(int -> unit) -> unit
end

(** [map_list ?jobs ?chunk n ~f] is {!Pool.map_list} on a throwaway pool
    of [?jobs] workers — the convenience entry point for a single
    fan-out. With [jobs = 1] (the ambient default) no domain is ever
    spawned and the call degrades to an inline ascending loop. *)
val map_list : ?jobs:int -> ?chunk:int -> int -> f:(int -> 'a) -> 'a list

(** [map_array ?jobs ?chunk n ~f] — array variant of {!map_list}. *)
val map_array : ?jobs:int -> ?chunk:int -> int -> f:(int -> 'a) -> 'a array
