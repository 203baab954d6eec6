let bits = 21

(* Spread the low 21 bits of [v] so bit i lands at position 2i, using the
   classic 2-D parallel-prefix magic numbers on 64-bit words. *)
let spread v =
  let v = v land 0x1FFFFF in
  let v = (v lor (v lsl 16)) land 0x0000FFFF0000FFFF in
  let v = (v lor (v lsl 8)) land 0x00FF00FF00FF00FF in
  let v = (v lor (v lsl 4)) land 0x0F0F0F0F0F0F0F0F in
  let v = (v lor (v lsl 2)) land 0x3333333333333333 in
  (v lor (v lsl 1)) land 0x5555555555555555

let compact v =
  let v = v land 0x5555555555555555 in
  let v = (v lor (v lsr 1)) land 0x3333333333333333 in
  let v = (v lor (v lsr 2)) land 0x0F0F0F0F0F0F0F0F in
  let v = (v lor (v lsr 4)) land 0x00FF00FF00FF00FF in
  let v = (v lor (v lsr 8)) land 0x0000FFFF0000FFFF in
  (v lor (v lsr 16)) land 0xFFFFFFFF

let interleave x y = spread x lor (spread y lsl 1)
let deinterleave code = (compact code, compact (code lsr 1))

let quantize x = int_of_float (x *. float_of_int (1 lsl bits))

let encode (p : Point.t) =
  if not (Point.in_unit_square p) then
    invalid_arg "Morton.encode: point outside unit square";
  interleave (quantize p.x) (quantize p.y)

let decode code =
  let x, y = deinterleave code in
  let scale = 1.0 /. float_of_int (1 lsl bits) in
  Point.make (float_of_int x *. scale) (float_of_int y *. scale)

let prefix ~depth code =
  if depth < 0 || depth > 2 * bits then
    invalid_arg "Morton.prefix: depth out of range";
  code lsr ((2 * bits) - depth)

(* Fine (two-word) codes: 42 bits per axis, split into a hi word — the
   21-bit-per-axis interleave above, unchanged — and a lo word
   interleaving the next 21 bits of each quantized ordinate. An 84-bit
   interleaved code does not fit an OCaml int; the split keeps each word
   in 42 bits and lets consumers descend the top 21 tree levels on the
   hi word alone (the historical representation) before touching lo. *)

let bits_fine = 2 * bits
let axis_mask = (1 lsl bits) - 1
let fine_scale = float_of_int (1 lsl bits_fine)

(* Exact for x in [0, 1): the multiply is by a power of two (only the
   exponent changes), and truncation of a positive value is floor. *)
let quantize_fine x = int_of_float (x *. fine_scale)

let encode_fine (p : Point.t) =
  if not (Point.in_unit_square p) then
    invalid_arg "Morton.encode_fine: point outside unit square";
  let qx = quantize_fine p.x and qy = quantize_fine p.y in
  ( interleave (qx lsr bits) (qy lsr bits),
    interleave (qx land axis_mask) (qy land axis_mask) )

let decode_fine (hi, lo) =
  let xh, yh = deinterleave hi and xl, yl = deinterleave lo in
  let scale = 1.0 /. fine_scale in
  Point.make
    (float_of_int ((xh lsl bits) lor xl) *. scale)
    (float_of_int ((yh lsl bits) lor yl) *. scale)

let cell_corner ~depth (hi, lo) =
  if depth < 0 || depth > bits_fine then
    invalid_arg "Morton.cell_corner: depth out of range";
  let xh, yh = deinterleave hi and xl, yl = deinterleave lo in
  let qx = (xh lsl bits) lor xl and qy = (yh lsl bits) lor yl in
  (* k/2^depth for depth <= 42: a dyadic rational, exact in a float. *)
  Point.make
    (ldexp (float_of_int (qx lsr (bits_fine - depth))) (-depth))
    (ldexp (float_of_int (qy lsr (bits_fine - depth))) (-depth))
