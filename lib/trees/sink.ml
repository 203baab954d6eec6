open Import

type t = {
  mutable bytes : Bytes.t;
  mutable len : int;
  mutable room : int;
  mutable limit : int;
  mutable wanted : int;
}

exception Full

let initial = 256

(* Storage above this is given back once a batch uses under a quarter
   of it; below it, reuse beats the reallocation. *)
let trim_floor = 1 lsl 16

let create () =
  {
    bytes = Bytes.create initial;
    len = 0;
    room = initial;
    limit = max_int;
    wanted = 0;
  }

let clear s =
  s.len <- 0;
  s.limit <- max_int;
  s.room <- Bytes.length s.bytes

let capacity s = Bytes.length s.bytes

let trim s =
  if Bytes.length s.bytes > max trim_floor (4 * s.len) then
    s.bytes <- Bytes.create initial;
  clear s

let set_limit s n =
  s.limit <- n;
  s.room <- min n (Bytes.length s.bytes)

(* The slow path of every append: the fast path is one compare of
   [len + n] against [room]. *)
let make_room s n =
  let need = s.len + n in
  if need > s.limit then begin
    s.wanted <- need;
    raise Full
  end;
  let cap = Bytes.length s.bytes in
  if need > cap then begin
    let cap' = min s.limit (max need (2 * cap)) in
    let b = Bytes.create cap' in
    Bytes.blit s.bytes 0 b 0 s.len;
    s.bytes <- b
  end;
  s.room <- min s.limit (Bytes.length s.bytes)

let[@inline] reserve s n = if s.len + n > s.room then make_room s n

let add_byte s c =
  reserve s 1;
  Bytes.unsafe_set s.bytes s.len (Char.unsafe_chr c);
  s.len <- s.len + 1

let uvarint_length n =
  let rec go n k = if n lsr 7 = 0 then k else go (n lsr 7) (k + 1) in
  go n 1

(* Unsigned LEB128 over the full 63-bit word: an int with the sign bit
   set is written as the corresponding large unsigned value, which is
   what zigzagged [min_int]-adjacent values produce. *)
let add_uvarint s n =
  let k = uvarint_length n in
  reserve s k;
  let n = ref n in
  for i = 0 to k - 2 do
    Bytes.unsafe_set s.bytes (s.len + i)
      (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Bytes.unsafe_set s.bytes (s.len + k - 1) (Char.unsafe_chr !n);
  s.len <- s.len + k

(* Zigzag: small magnitudes of either sign stay small on the wire. *)
let add_int s n = add_uvarint s ((n lsl 1) lxor (n asr 62))

let add_int64 s v =
  reserve s 8;
  Bytes.set_int64_le s.bytes s.len v;
  s.len <- s.len + 8

(* Fixed-width floats are stored through the bit-cast primitive, so no
   [int64] is boxed between a float and the bytes. *)
let[@inline] put_float s off x =
  Bytes.set_int64_le s.bytes off (Int64.bits_of_float x)

let add_float s x =
  reserve s 8;
  put_float s s.len x;
  s.len <- s.len + 8

let add_string s str =
  let n = String.length str in
  add_uvarint s n;
  reserve s n;
  Bytes.blit_string str 0 s.bytes s.len n;
  s.len <- s.len + n

let point_bytes = 16

let add_point s (p : Point.t) =
  reserve s point_bytes;
  put_float s s.len p.Point.x;
  put_float s (s.len + 8) p.Point.y;
  s.len <- s.len + point_bytes

let add_box s (b : Box.t) =
  reserve s 32;
  put_float s s.len b.Box.xmin;
  put_float s (s.len + 8) b.Box.ymin;
  put_float s (s.len + 16) b.Box.xmax;
  put_float s (s.len + 24) b.Box.ymax;
  s.len <- s.len + 32

type column = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let set_slot s off (xs : column) (ys : column) i =
  put_float s off xs.{i};
  put_float s (off + 8) ys.{i}

let add_slot s xs ys i =
  reserve s point_bytes;
  set_slot s s.len xs ys i;
  s.len <- s.len + point_bytes

let point_at s off =
  {
    Point.x = Int64.float_of_bits (Bytes.get_int64_le s.bytes off);
    y = Int64.float_of_bits (Bytes.get_int64_le s.bytes (off + 8));
  }

let reverse_points s ~from =
  let b = s.bytes in
  let i = ref from and j = ref (s.len - point_bytes) in
  while !i < !j do
    let x = Bytes.get_int64_le b !i and y = Bytes.get_int64_le b (!i + 8) in
    Bytes.set_int64_le b !i (Bytes.get_int64_le b !j);
    Bytes.set_int64_le b (!i + 8) (Bytes.get_int64_le b (!j + 8));
    Bytes.set_int64_le b !j x;
    Bytes.set_int64_le b (!j + 8) y;
    i := !i + point_bytes;
    j := !j - point_bytes
  done
