open Import

(** The serving wire protocol: request/response types, their codecs,
    and length-prefixed channel framing.

    Every frame on the wire is [4 bytes big-endian payload length]
    followed by one "PSTO" artifact ({!Codec.to_artifact}) of kind
    {!request_kind} or {!response_kind} at protocol {!version} — so a
    frame carries the store's magic, versioning and FNV-1a64 checksum.
    A truncated frame reads as [Truncated], a corrupted one as
    [Checksum_mismatch]; both surface as [Error] from {!read_frame},
    never as a silently wrong value. *)

(** One query against an epoch's arena. *)
type query =
  | Range of Box.t  (** all points in the (half-open) box *)
  | Count of Box.t  (** their number only *)
  | Knn of int * Point.t  (** the k nearest points, nearest first *)
  | Nearest of Point.t  (** the single nearest point *)
  | Cell of Point.t  (** the leaf cell containing the point *)

type request =
  | Batch of query array  (** answer all, one epoch, task-ordered *)
  | Stats  (** server introspection *)
  | Quit  (** orderly shutdown *)
  | Telemetry  (** the full scrape: metrics, quantiles, recent events *)

(** One query's result, positionally matching the request batch. *)
type answer =
  | Points of Point.t array
      (** [Range]: members; [Knn]: nearest first; [Nearest]: 0 or 1 *)
  | Count_of of int
  | Cell_info of int * Box.t * Point.t array  (** depth, block, contents *)
  | Rejected of string  (** an invalid query (e.g. out-of-bounds cell) *)

(** The [Telemetry] scrape: server identity and counters, both metric
    exports rendered server-side (so a collector needs no popan code),
    the merged serve-path sketch snapshots, the recent event lines, and
    the flight recorder's retained request records. *)
type telemetry = {
  epoch : int;
  size : int;
  batches : int;
  live_epochs : int;
  metrics_json : string;  (** {!Metrics.to_json} at scrape time *)
  prometheus : string;  (** {!Metrics.to_prometheus} at scrape time *)
  sketches : (string * Sketch.snapshot) list;
      (** name-sorted [serve.*] sketches, merged across domains *)
  events : string list;  (** {!Event.recent}, oldest first *)
  flight : Flight.entry list;  (** {!Flight.recent}, oldest first *)
}

type response =
  | Answers of { epoch : int; answers : answer array }
  | Stats_info of { epoch : int; size : int; batches : int; live_epochs : int }
  | Telemetry_info of telemetry
  | Refused of string  (** the request frame was malformed *)
  | Bye  (** acknowledges [Quit] *)

(** Protocol version, embedded in every frame's artifact header — [2]
    since the [Telemetry] exchange was added. A v1 peer refuses a v2
    frame on its version check rather than misparsing it. *)
val version : int

val request_kind : string
val response_kind : string

(** The codecs, exposed for tests and custom transports. *)
val query : query Codec.t

val request : request Codec.t
val answer : answer Codec.t
val telemetry : telemetry Codec.t
val response : response Codec.t

(** The largest frame either side reads, 64 MiB: a length prefix above
    it is refused before any of the frame is read. *)
val max_frame : int

(** [write_frame oc ~kind codec v] frames and writes [v], then flushes. *)
val write_frame : out_channel -> kind:string -> 'a Codec.t -> 'a -> unit

(** [read_frame ic ~kind codec] reads one frame: [None] at a clean EOF
    (no length prefix at all), [Some (Error reason)] on truncation, a
    bad checksum, an over-limit length prefix or an undecodable
    payload, [Some (Ok v)] otherwise. *)
val read_frame :
  in_channel -> kind:string -> 'a Codec.t -> ('a, string) result option

val write_request : out_channel -> request -> unit
val read_request : in_channel -> (request, string) result option

(** [write_response oc r] frames and writes [r]. A frame longer than
    {!max_frame}, which the peer would refuse, is not written: it is
    counted ({!Probe.serve_oversize}) and replaced by
    [Refused "response of N bytes exceeds frame limit"]. *)
val write_response : out_channel -> response -> unit

val read_response : in_channel -> (response, string) result option

(** {1 Streamed answers}

    The serving path never builds [answer] values. A batch is answered
    into an {!out}: one {!chunk} per pool chunk of queries, each with a
    [body] sink that the arena kernels write answer points into
    ({!Pr_arena.range_into} and friends) and a head sink for the fields
    the codec writes before them. {!write_answers} then streams the
    [Answers] frame straight from the chunks, hashing as it writes.
    Its bytes are exactly [write_response oc (Answers { epoch; answers
    = decode_answers o })]: the heads are written with the [answer]
    codec's own pieces and the points in {!Codec.point}'s format
    ({!Sink}). An [out] and its sinks are reused from batch to batch,
    so a warm server allocates nothing per answer point; once a batch
    is written or decoded, sinks far larger than it needed give their
    storage back ({!Sink.trim}). *)

type out
type chunk

(** [out ()] is an empty, reusable answer buffer. *)
val out : unit -> out

(** [start o ~chunks ~cap] readies [o] for a batch answered in
    [chunks] chunks, emptying them, and sets the batch's byte cap: once
    the answers produced pass [cap], no further answer starts and a
    walk in progress stops ({!open_answer}). The socket path uses
    {!max_frame}; in-process callers [max_int]. *)
val start : out -> chunks:int -> cap:int -> unit

(** [chunk o i] is chunk [i]. Chunks are filled independently — one
    domain each — and stream in index order. *)
val chunk : out -> int -> chunk

(** [body c] is the sink the kernels write the current answer's points
    into. *)
val body : chunk -> Sink.t

(** [open_answer c] is [false] when the batch is past its cap: skip the
    query. Otherwise it limits [body c] to the cap's remainder, so a
    kernel whose answer would take the batch past it raises
    {!Sink.Full} (then call {!close_full}). *)
val open_answer : chunk -> bool

(** Close the current answer: its points, if any, are in [body c]
    since the previous close. [close_points] makes it [Points];
    [close_count c n] a [Count_of n] (no points); [close_cell c depth
    block] a [Cell_info]; [close_rejected c m] a [Rejected m] (no
    points). Each adds the answer's bytes to the batch's tally. *)
val close_points : chunk -> unit

val close_count : chunk -> int -> unit
val close_cell : chunk -> int -> Box.t -> unit
val close_rejected : chunk -> string -> unit

(** [close_full c] records an answer whose walk stopped at the cap:
    the batch is over its cap and will be refused. *)
val close_full : chunk -> unit

(** [held o] is the bytes the batch's sinks hold: its answers, or for
    a batch stopped at its cap, what it produced before stopping. Read
    it before {!write_answers} or {!decode_answers}, which empty the
    sinks. *)
val held : out -> int

(** [capacity o] is the bytes of storage [o]'s sinks keep between
    batches. *)
val capacity : out -> int

(** [write_answers oc ~epoch o] frames and writes the batch as one
    [Answers] response, then flushes. A batch over its cap, or one
    whose frame would pass {!max_frame}, is counted
    ({!Probe.serve_oversize}) and refused as {!write_response} refuses
    an oversize frame. A frame that was sized names its length [N]; a
    batch stopped at its cap is refused with [Refused "response of more
    than M bytes exceeds frame limit"], [M] = {!max_frame}. A batch
    stops exactly when its answers' total passes the cap, so the
    response, refusal included, depends only on the epoch and the
    queries, never on the job count. The sinks are emptied, and a
    refused batch's storage is given back. *)
val write_answers : out_channel -> epoch:int -> out -> unit

(** [decode_answers o] is the batch's answers as values, decoded from
    the bytes {!write_answers} would stream, and empties the sinks as
    {!write_answers} does. Raises [Invalid_argument] on a batch over
    its cap. *)
val decode_answers : out -> answer array
