open Import

(** The request loop: batched arena-native query execution over a
    left-right {!Epoch} pair, behind the {!Wire} protocol.

    One server owns the epoch pair and a deterministic domain pool. A
    [Batch] request pins the current epoch and fans its queries out on
    the pool ([map_array]'s task-ordered reduction makes the response
    byte-identical at every job count). When churn is configured, a
    separate domain meanwhile brings the standby arena forward: it
    replays the previous churn slice, which the standby has not seen,
    then applies the next slice of the deterministic churn stream. The
    pair is swapped before the response is written, so publication
    costs O(churn ops), not a copy of the arena. Readers never observe
    a torn arena: the two slots share no mutable state. *)

(** [eval arena q] answers one query sequentially — the dispatch the
    pool's tasks run, and the oracle tests replay — decoded from the
    bytes the kernel wrote. With telemetry on
    ({!Probe.serve_telemetry_on}) the kernel also reports its
    visited-node and pruned-subtree counts and the query is recorded
    through {!Probe.serve_query_done} (latency/visited sketches and the
    flight recorder) under epoch 0. The answer is the same either way:
    both run the one kernel per query kind. *)
val eval : Pr_arena.t -> Wire.query -> Wire.answer

(** [run_batch ?chunk ?epoch pool arena queries] answers a whole batch
    on the pool in arrival order, results in request order, wrapped in
    the [serve:batch] probe (queue-depth gauge, latency histogram,
    per-kernel counters). Each pool task answers [chunk] (default 256)
    consecutive queries into its own answer sinks; the answers are
    decoded from the same bytes {!stream_batch} writes. Telemetry costs
    one {!Probe.serve_telemetry_on} check per batch, which holds for
    every query of it; recorded queries are tagged with [epoch]
    (default 0). Raises [Invalid_argument] when [chunk < 1]. *)
val run_batch :
  ?chunk:int ->
  ?epoch:int ->
  Parallel.Pool.t -> Pr_arena.t -> Wire.query array -> Wire.answer array

(** [stream_batch ?chunk ?epoch pool arena queries oc] answers the
    batch as {!run_batch} does and writes it to [oc] as one framed
    [Answers] response with epoch [epoch] ({!Wire.write_answers}),
    never building an answer value: the socket path's producer, on
    fresh sinks. Answers past {!Wire.max_frame} stop the batch, which
    is then refused. *)
val stream_batch :
  ?chunk:int ->
  ?epoch:int ->
  Parallel.Pool.t -> Pr_arena.t -> Wire.query array -> out_channel -> unit

type config = {
  jobs : int option;  (** pool width; [None] = the session default *)
  capacity : int;  (** leaf capacity of the served tree *)
  base_points : int;  (** initial population *)
  seed : int;  (** master seed: population and churn stream *)
  churn_ops : int;
      (** writer operations applied concurrently with each batch;
          [0] serves a static tree and never publishes *)
  insert_fraction : float;
  update_fraction : float;
  drift_sigma : float;
  mmap_dir : string option;
      (** back epoch 0's arena columns with mmap; the standby twin is a
          heap {!Pr_arena.snapshot} *)
}

(** 10k uniform points at capacity 8, seed 1987, 256 churn ops per
    batch with the PR 7 churn defaults, heap-backed. *)
val default_config : config

type t

(** [create ?pool config] builds the initial population
    (deterministically from [config.seed]), publishes epoch 0, and
    readies the pool ([?pool] borrows an existing one, which
    {!shutdown} then leaves running). Raises [Invalid_argument] on
    negative [base_points] or [churn_ops]. *)
val create : ?pool:Parallel.Pool.t -> config -> t

val epochs : t -> Epoch.t
val pool : t -> Parallel.Pool.t

(** [batches t] counts batches answered so far. *)
val batches : t -> int

(** [held_bytes t] is the bytes the server's answer sinks held when its
    last batch was answered: the batch's answer bytes, or, for a batch
    stopped at the frame limit, what it produced before stopping. *)
val held_bytes : t -> int

(** [retained_bytes t] is the storage the server's answer sinks keep
    between batches. It follows the recent batches' answers, not the
    largest ever served: once a batch is written, a sink more than four
    times larger than that batch needed (and over 64 KiB) gives its
    storage back, as does every sink of a refused batch. *)
val retained_bytes : t -> int

(** [run_queries t queries] answers one batch as described above and
    returns the answering epoch's id with the answers. *)
val run_queries : t -> Wire.query array -> int * Wire.answer array

(** [warm t ~batches ~queries] answers [batches] deterministic mixed
    self-batches of [queries] queries each (seeded from the config):
    they count toward {!batches} and advance churn epochs exactly like
    client batches, so a freshly started server has telemetry to show
    before a client drives load ([popan serve --warm]). *)
val warm : t -> batches:int -> queries:int -> unit

(** The requests answered without the arena: [Wire.Stats],
    [Wire.Telemetry] and [Wire.Quit]. A [Wire.Batch] has one producer,
    the streamed one in {!serve_channels}. *)
type control = Stats | Telemetry | Quit

(** [handle t req] answers one control request; the boolean is false
    when the loop should stop ([Quit]). *)
val handle : t -> control -> Wire.response * bool

(** [serve_channels t ic oc] reads framed requests from [ic] and writes
    framed responses to [oc] until EOF, [Quit], or a malformed frame. A
    [Batch] is answered into the server's reused answer sinks and its
    [Answers] frame streamed from them ({!Wire.write_answers}) — the
    bytes [Wire.write_response] frames for the {!run_queries} answers,
    with no answer value built. Once a batch's answers pass
    {!Wire.max_frame} it stops early, in bounded memory, and is refused
    ([Refused "response of more than M bytes exceeds frame limit"],
    [M] = {!Wire.max_frame}, counted in [serve.oversize.responses]); the
    refusal is the same at every job count. Every other request goes
    through {!handle}. A malformed frame is refused,
    then the loop stops — a broken frame leaves the stream position
    undefined. An I/O error on either channel ([Sys_error], e.g. a
    client that closed before reading its reply) ends the conversation
    too, counted by [Probe.serve_disconnect]. Returns [true] iff the
    client sent [Quit] — it asked the server itself to stop, as opposed
    to merely hanging up — even when its [Bye] could not be delivered. A
    process serving a socket should ignore [SIGPIPE], as [popan serve]
    does, so that a write to a departed client fails with [EPIPE]
    instead of killing it. *)
val serve_channels : t -> in_channel -> out_channel -> bool

(** [shutdown t] retires both epoch slots and releases their mmap
    segments, shuts down an owned pool, and flushes the obs
    counters to the default artifact store when one is configured. *)
val shutdown : t -> unit

(** [run ?pool ?socket ?warm_batches config] is the whole lifecycle:
    {!create}, [warm_batches] self-batches of 1024 queries (default 0),
    serve on stdin/stdout (or accept sequential connections on the Unix
    socket [?socket] until a client sends [Quit]), then {!shutdown} —
    which runs even if serving raises. *)
val run :
  ?pool:Parallel.Pool.t -> ?socket:string -> ?warm_batches:int -> config -> unit
