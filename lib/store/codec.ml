open Import

(* A cursor over an immutable byte string. Every read bounds-checks;
   [fail] aborts decoding with a message the framing layer surfaces as
   [Malformed]. *)
type cursor = { data : string; mutable pos : int; limit : int }

exception Malformed_input of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed_input s)) fmt

(* Every writer appends through {!Sink}, the one implementation of the
   encodings: the arena's answer kernels write points into the same
   kind of sink, in the same format, for the wire to stream. *)
type 'a t = {
  write : Sink.t -> 'a -> unit;
  read : cursor -> 'a;
}

let write c sink v = c.write sink v

let encode c v =
  let sink = Sink.create () in
  c.write sink v;
  Bytes.sub_string sink.Sink.bytes 0 sink.Sink.len

let decode c s =
  let cur = { data = s; pos = 0; limit = String.length s } in
  match c.read cur with
  | v ->
    if cur.pos <> cur.limit then
      failwith
        (Printf.sprintf "Codec.decode: %d trailing bytes" (cur.limit - cur.pos))
    else v
  | exception Malformed_input msg -> failwith ("Codec.decode: " ^ msg)

(* Primitives *)

let read_byte cur =
  if cur.pos >= cur.limit then fail "unexpected end of input";
  let b = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  b

let u8 =
  {
    write =
      (fun sink n ->
        if n < 0 || n > 255 then invalid_arg "Codec.u8: out of range";
        Sink.add_byte sink n);
    read = read_byte;
  }

let bool =
  {
    write = (fun sink b -> Sink.add_byte sink (if b then 1 else 0));
    read =
      (fun cur ->
        match read_byte cur with
        | 0 -> false
        | 1 -> true
        | b -> fail "bad boolean byte %d" b);
  }

(* Unsigned LEB128 over the full 63-bit word ({!Sink.add_uvarint}).
   The reader is a closure-free loop: a local recursive helper would
   capture the cursor and allocate a closure per varint. *)
let write_count = Sink.add_uvarint

let read_uvarint cur =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 62 then fail "varint too long";
    let b = read_byte cur in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

(* Zigzag: small magnitudes of either sign stay small on disk. *)
let int =
  {
    write = Sink.add_int;
    read =
      (fun cur ->
        let z = read_uvarint cur in
        (z lsr 1) lxor (-(z land 1)));
  }

(* Fixed-width words move as one little-endian load or store. A reader
   checks the remaining length once per value (once per point or box,
   not per word), then reads in place. [word] alone checks only against
   the end of the whole string, past the cursor's limit, so it always
   runs behind [need]. The float codecs convert with the bit-cast
   primitives, so no [int64] is boxed between a float and the bytes in
   either direction. *)
let need cur n = if cur.limit - cur.pos < n then fail "unexpected end of input"
let word cur off = String.get_int64_le cur.data (cur.pos + off)

let int64 =
  {
    write = Sink.add_int64;
    read =
      (fun cur ->
        need cur 8;
        let v = word cur 0 in
        cur.pos <- cur.pos + 8;
        v);
  }

let float =
  {
    write = Sink.add_float;
    read =
      (fun cur ->
        need cur 8;
        let x = Int64.float_of_bits (word cur 0) in
        cur.pos <- cur.pos + 8;
        x);
  }

let string =
  {
    write = Sink.add_string;
    read =
      (fun cur ->
        let n = read_uvarint cur in
        if n > cur.limit - cur.pos then
          fail "string length %d exceeds remaining input" n;
        let s = String.sub cur.data cur.pos n in
        cur.pos <- cur.pos + n;
        s);
  }

(* Combinators *)

let pair a b =
  {
    write =
      (fun sink (x, y) ->
        a.write sink x;
        b.write sink y);
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        (x, y));
  }

let triple a b c =
  {
    write =
      (fun sink (x, y, z) ->
        a.write sink x;
        b.write sink y;
        c.write sink z);
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        let z = c.read cur in
        (x, y, z));
  }

let option c =
  {
    write =
      (fun sink v ->
        match v with
        | None -> Sink.add_byte sink 0
        | Some x ->
          Sink.add_byte sink 1;
          c.write sink x);
    read =
      (fun cur ->
        match read_byte cur with
        | 0 -> None
        | 1 -> Some (c.read cur)
        | b -> fail "bad option tag %d" b);
  }

let list c =
  {
    write =
      (fun sink vs ->
        write_count sink (List.length vs);
        List.iter (c.write sink) vs);
    read =
      (fun cur ->
        let n = read_uvarint cur in
        if n > cur.limit - cur.pos then
          fail "list count %d exceeds remaining input" n;
        List.init n (fun _ -> c.read cur));
  }

let array c =
  {
    write =
      (fun sink vs ->
        write_count sink (Array.length vs);
        Array.iter (c.write sink) vs);
    read =
      (fun cur ->
        let n = read_uvarint cur in
        if n > cur.limit - cur.pos then
          fail "array count %d exceeds remaining input" n;
        Array.init n (fun _ -> c.read cur));
  }

let int_array = array int

let map c ~decode:f ~encode:g =
  { write = (fun sink v -> c.write sink (g v)); read = (fun cur -> f (c.read cur)) }

(* A tagged union: one byte of case tag, then the selected case's
   payload. [map] cannot express sum types (it needs a total inverse);
   this is the variant-codec builder the wire protocol's request and
   response types are built from. The cases sit in a 256-slot table
   indexed by tag, so dispatch is one load in either direction. *)
let choice ~tag cases =
  let table = Array.make 256 None in
  List.iter
    (fun (t, c) ->
      if t < 0 || t > 255 then invalid_arg "Codec.choice: tag out of range";
      if table.(t) <> None then
        invalid_arg (Printf.sprintf "Codec.choice: duplicate tag %d" t);
      table.(t) <- Some c)
    cases;
  {
    write =
      (fun sink v ->
        let t = tag v in
        match if t >= 0 && t <= 255 then table.(t) else None with
        | None -> invalid_arg (Printf.sprintf "Codec.choice: unknown tag %d" t)
        | Some c ->
          Sink.add_byte sink t;
          c.write sink v);
    read =
      (fun cur ->
        let t = read_byte cur in
        match table.(t) with
        | None -> fail "bad choice tag %d" t
        | Some c -> c.read cur);
  }

(* Domain codecs *)

(* A point is two words behind one length check. Non-finite coordinates
   are refused, as [box] refuses a degenerate extent: no structure in
   this library holds a NaN or infinite point, and a query on one has
   no defined answer. *)
let point =
  {
    write = Sink.add_point;
    read =
      (fun cur ->
        need cur 16;
        let x = Int64.float_of_bits (word cur 0) in
        let y = Int64.float_of_bits (word cur 8) in
        if not (Float.is_finite x && Float.is_finite y) then
          fail "non-finite point (%g, %g)" x y;
        cur.pos <- cur.pos + 16;
        { Point.x; y });
  }

let box =
  {
    write = Sink.add_box;
    read =
      (fun cur ->
        need cur 32;
        let xmin = Int64.float_of_bits (word cur 0) in
        let ymin = Int64.float_of_bits (word cur 8) in
        let xmax = Int64.float_of_bits (word cur 16) in
        let ymax = Int64.float_of_bits (word cur 24) in
        cur.pos <- cur.pos + 32;
        match Box.make ~xmin ~ymin ~xmax ~ymax with
        | b -> b
        | exception Invalid_argument msg -> fail "bad box: %s" msg);
  }

let xoshiro =
  {
    write =
      (fun sink rng -> Array.iter (int64.write sink) (Xoshiro.to_words rng));
    read =
      (fun cur ->
        let words = Array.init 4 (fun _ -> int64.read cur) in
        match Xoshiro.of_words words with
        | rng -> rng
        | exception Invalid_argument msg -> fail "bad rng state: %s" msg);
  }

let pr_quadtree =
  let points = list point in
  let rec write_node sink node =
    match node with
    | Pr_quadtree.Raw.Leaf pts ->
      Sink.add_byte sink 0;
      points.write sink pts
    | Pr_quadtree.Raw.Node children ->
      Sink.add_byte sink 1;
      Array.iter (write_node sink) children
  in
  let rec read_node cur =
    match read_byte cur with
    | 0 -> Pr_quadtree.Raw.Leaf (points.read cur)
    | 1 -> Pr_quadtree.Raw.Node (Array.init 4 (fun _ -> read_node cur))
    | b -> fail "bad node tag %d" b
  in
  {
    write =
      (fun sink tree ->
        int.write sink (Pr_quadtree.capacity tree);
        int.write sink (Pr_quadtree.max_depth tree);
        box.write sink (Pr_quadtree.bounds tree);
        int.write sink (Pr_quadtree.size tree);
        write_node sink (Pr_quadtree.Raw.root tree));
    read =
      (fun cur ->
        let capacity = int.read cur in
        let max_depth = int.read cur in
        let bounds = box.read cur in
        let size = int.read cur in
        let root = read_node cur in
        match Pr_quadtree.Raw.make ~capacity ~max_depth ~bounds ~size ~root with
        | tree -> tree
        | exception Invalid_argument msg -> fail "bad tree parameters: %s" msg);
  }

(* Framing *)

let magic = "PSTO"
let container_version = 1

(* FNV-1a 64, incrementally. The state is the running hash as 8
   little-endian bytes — exactly the checksum field that ends a frame —
   and [fnv_feed] is a plain loop with no closure, so the accumulator
   stays an unboxed register and a frame of any size, fed in any number
   of parts, is hashed without allocating. *)
type fnv = Bytes.t

let fnv_start () =
  let h = Bytes.create 8 in
  Bytes.set_int64_le h 0 0xcbf29ce484222325L;
  h

let fnv_feed h b off len =
  let acc = ref (Bytes.get_int64_le h 0) in
  for i = off to off + len - 1 do
    acc :=
      Int64.mul
        (Int64.logxor !acc (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  Bytes.set_int64_le h 0 !acc

let fnv_checksum h = h

let fnv1a64_sub b off len =
  let h = fnv_start () in
  fnv_feed h b off len;
  Bytes.get_int64_le h 0

let fnv1a64 s = fnv1a64_sub (Bytes.unsafe_of_string s) 0 (String.length s)

type error =
  | Bad_magic
  | Bad_container_version of int
  | Bad_kind of { expected : string; found : string }
  | Bad_version of { expected : int; found : int }
  | Bad_key of { expected : string; found : string }
  | Truncated
  | Checksum_mismatch
  | Trailing_garbage
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "bad magic (not an artifact)"
  | Bad_container_version v -> Printf.sprintf "unknown container version %d" v
  | Bad_kind { expected; found } ->
    Printf.sprintf "kind mismatch: expected %S, found %S" expected found
  | Bad_version { expected; found } ->
    Printf.sprintf "artifact version mismatch: expected %d, found %d" expected
      found
  | Bad_key { expected; found } ->
    Printf.sprintf "key mismatch (hash collision?): expected %S, found %S"
      expected found
  | Truncated -> "truncated artifact"
  | Checksum_mismatch -> "checksum mismatch (corrupted artifact)"
  | Trailing_garbage -> "trailing bytes after checksum"
  | Malformed msg -> "malformed payload: " ^ msg

(* Everything a frame holds before its payload, for a payload of [len]
   bytes. *)
let frame_header ~kind ~version ~key len =
  let header = Sink.create () in
  String.iter (fun c -> Sink.add_byte header (Char.code c)) magic;
  write_count header container_version;
  string.write header kind;
  write_count header version;
  string.write header key;
  write_count header len;
  Bytes.sub_string header.Sink.bytes 0 header.Sink.len

(* The payload is encoded once; the header, which ends with the payload
   length, is built after it. The frame is then allocated at its exact
   size and the payload copied into it once, and the checksum is
   computed over the frame in place. *)
let to_artifact ~kind ~version ~key codec v =
  let payload = Sink.create () in
  codec.write payload v;
  let len = payload.Sink.len in
  let header = frame_header ~kind ~version ~key len in
  let hlen = String.length header in
  let body = hlen + len in
  let frame = Bytes.create (body + 8) in
  Bytes.blit_string header 0 frame 0 hlen;
  Bytes.blit payload.Sink.bytes 0 frame hlen len;
  Bytes.set_int64_le frame body (fnv1a64_sub frame 0 body);
  Bytes.unsafe_to_string frame

(* Validate the frame of [s]; on success return (kind, version, key) and
   the payload extent. Shared by [of_artifact] and [probe]. *)
let check_frame s =
  let n = String.length s in
  if n < String.length magic + 8 then Error Truncated
  else if not (String.starts_with ~prefix:magic s) then Error Bad_magic
  else begin
    let stored = String.get_int64_le s (n - 8) in
    let computed = fnv1a64_sub (Bytes.unsafe_of_string s) 0 (n - 8) in
    if not (Int64.equal stored computed) then Error Checksum_mismatch
    else begin
      let cur = { data = s; pos = String.length magic; limit = n - 8 } in
      match
        let cv = read_uvarint cur in
        let kind = string.read cur in
        let version = read_uvarint cur in
        let key = string.read cur in
        let payload_len = read_uvarint cur in
        (cv, kind, version, key, payload_len, cur.pos)
      with
      | exception Malformed_input _ -> Error Truncated
      | cv, _, _, _, _, _ when cv <> container_version ->
        Error (Bad_container_version cv)
      | _, kind, version, key, payload_len, payload_start ->
        if payload_start + payload_len <> n - 8 then Error Truncated
        else Ok (kind, version, key, payload_start, payload_len)
    end
  end

let probe s =
  match check_frame s with
  | Error e -> Error e
  | Ok (kind, version, key, _, _) -> Ok (kind, version, key)

let of_artifact ~kind ~version ?key codec s =
  match check_frame s with
  | Error e -> Error e
  | Ok (found_kind, found_version, found_key, payload_start, payload_len) ->
    if found_kind <> kind then
      Error (Bad_kind { expected = kind; found = found_kind })
    else if found_version <> version then
      Error (Bad_version { expected = version; found = found_version })
    else begin
      match key with
      | Some expected when expected <> found_key ->
        Error (Bad_key { expected; found = found_key })
      | _ -> (
        let cur =
          { data = s; pos = payload_start; limit = payload_start + payload_len }
        in
        match codec.read cur with
        | v -> if cur.pos <> cur.limit then Error Trailing_garbage else Ok v
        | exception Malformed_input msg -> Error (Malformed msg))
    end
