(** A reusable little-endian byte sink, and the one implementation of
    the store's value encodings: {!Popan_store.Codec} writes every
    value through the appends below, and the arena's query kernels
    write their answers into a sink in the same point format — 16
    bytes per point, the IEEE-754 bits of [x] then [y], little-endian —
    so an answer point never becomes a {!Popan_geom.Point.t}, a cons
    cell or an array slot on its way to a socket.

    A sink keeps its storage across {!clear}s, so a server that reuses
    one per pool chunk allocates nothing per answer once the sink has
    grown to its working size; {!trim} gives back storage that one
    large answer left far above that size. The record is exposed for
    readers of the written bytes ([bytes] in [\[0, len)]); appends go
    through the functions below.

    {b Limits.} [limit] is the length past which an append raises
    {!Full} instead of growing the sink: a caller that caps the bytes
    an answer may add sets it before the kernel runs, and the kernel's
    walk stops at the first point that would cross it. [room] is
    [min limit (Bytes.length bytes)], so an append pays one compare
    for both the capacity and the cap.

    {b Floats.} No append takes an unboxed float across a call: points
    and boxes go in as their records or as coordinate-column slots, so
    no float is boxed on the way in even where the compiler does not
    inline across modules. *)

open Import

type t = {
  mutable bytes : Bytes.t;  (** storage; valid in [0, len) *)
  mutable len : int;
  mutable room : int;  (** [min limit (Bytes.length bytes)] *)
  mutable limit : int;  (** appends past this length raise {!Full} *)
  mutable wanted : int;
      (** the length the append that raised {!Full} asked for *)
}

(** An append would cross the sink's [limit]. Nothing past the limit
    was written, and the sink's length is what it was before the
    append. *)
exception Full

(** [create ()] is an empty sink with a small initial capacity and no
    limit. *)
val create : unit -> t

(** [clear s] empties [s] and lifts its limit, keeping its storage. *)
val clear : t -> unit

(** [trim s] empties [s] and lifts its limit; when its storage is more
    than four times the [len] it had and over 64 KiB, the storage also
    drops back to the initial capacity. Call it once the bytes have
    been consumed: a sink that one large answer grew does not keep
    that size for answers a quarter of it. *)
val trim : t -> unit

(** [capacity s] is the bytes of storage [s] keeps. *)
val capacity : t -> int

(** [set_limit s n] makes appends that would take [s] past length [n]
    raise {!Full}. *)
val set_limit : t -> int -> unit

(** [reserve s n] makes room for [n] more bytes: afterwards
    [len + n <= room]. Growth doubles, but never past the limit; when
    [len + n] is past the limit it raises {!Full}, recording [wanted]. *)
val reserve : t -> int -> unit

(** {2 Appends}

    One byte, the unsigned LEB128 varint (counts and lengths), its
    zigzag form (signed ints), a little-endian 64-bit word, an IEEE-754
    double, a varint-length-prefixed string, a point and a box (their
    coordinates as doubles, in record order). *)

val add_byte : t -> int -> unit
val add_uvarint : t -> int -> unit
val add_int : t -> int -> unit
val add_int64 : t -> int64 -> unit
val add_float : t -> float -> unit
val add_string : t -> string -> unit
val add_point : t -> Point.t -> unit
val add_box : t -> Box.t -> unit

(** [uvarint_length n] is the number of bytes {!add_uvarint} writes for
    [n]. *)
val uvarint_length : int -> int

(** {2 Points from coordinate columns} *)

(** The bytes of one point. *)
val point_bytes : int

type column = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [add_slot s xs ys i] appends the point [(xs.{i}, ys.{i})]. *)
val add_slot : t -> column -> column -> int -> unit

(** [set_slot s off xs ys i] writes the point [(xs.{i}, ys.{i})] at
    byte [off], which must lie in storage already reserved
    ({!reserve}); it does not move [len]. *)
val set_slot : t -> int -> column -> column -> int -> unit

(** [point_at s off] is the point written at byte [off]. *)
val point_at : t -> int -> Point.t

(** [reverse_points s ~from] reverses the order of the points in
    [\[from, len)] in place. *)
val reverse_points : t -> from:int -> unit
