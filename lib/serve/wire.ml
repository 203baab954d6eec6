open Import

type query =
  | Range of Box.t
  | Count of Box.t
  | Knn of int * Point.t
  | Nearest of Point.t
  | Cell of Point.t

type request = Batch of query array | Stats | Quit | Telemetry

type answer =
  | Points of Point.t array
  | Count_of of int
  | Cell_info of int * Box.t * Point.t array
  | Rejected of string

type telemetry = {
  epoch : int;
  size : int;
  batches : int;
  live_epochs : int;
  metrics_json : string;
  prometheus : string;
  sketches : (string * Sketch.snapshot) list;
  events : string list;
  flight : Flight.entry list;
}

type response =
  | Answers of { epoch : int; answers : answer array }
  | Stats_info of { epoch : int; size : int; batches : int; live_epochs : int }
  | Telemetry_info of telemetry
  | Refused of string
  | Bye

(* Version 2: the [Telemetry] request and its response arm. The version
   sits in every frame's artifact header, so a v1 peer refuses a v2
   frame outright instead of misparsing it. *)
let version = 2
let request_kind = "serve-req"
let response_kind = "serve-resp"

(* One frame key for the whole protocol: the store's framing insists on
   a key (its content-addressing defense); the serving loop has no
   content address, so a fixed key doubles as a protocol marker. *)
let frame_key = "serve"

let query =
  let open Codec in
  choice
    ~tag:(function
      | Range _ -> 0 | Count _ -> 1 | Knn _ -> 2 | Nearest _ -> 3 | Cell _ -> 4)
    [
      ( 0,
        map box
          ~decode:(fun b -> Range b)
          ~encode:(function Range b -> b | _ -> assert false) );
      ( 1,
        map box
          ~decode:(fun b -> Count b)
          ~encode:(function Count b -> b | _ -> assert false) );
      ( 2,
        map (pair int point)
          ~decode:(fun (k, p) -> Knn (k, p))
          ~encode:(function Knn (k, p) -> (k, p) | _ -> assert false) );
      ( 3,
        map point
          ~decode:(fun p -> Nearest p)
          ~encode:(function Nearest p -> p | _ -> assert false) );
      ( 4,
        map point
          ~decode:(fun p -> Cell p)
          ~encode:(function Cell p -> p | _ -> assert false) );
    ]

let request =
  let open Codec in
  choice
    ~tag:(function Batch _ -> 0 | Stats -> 1 | Quit -> 2 | Telemetry -> 3)
    [
      ( 0,
        map (array query)
          ~decode:(fun qs -> Batch qs)
          ~encode:(function Batch qs -> qs | _ -> assert false) );
      (1, map (list u8) ~decode:(fun _ -> Stats) ~encode:(fun _ -> []));
      (2, map (list u8) ~decode:(fun _ -> Quit) ~encode:(fun _ -> []));
      (3, map (list u8) ~decode:(fun _ -> Telemetry) ~encode:(fun _ -> []));
    ]

(* The answer tags, shared by the codec and the streamed writer. *)
let points_tag = 0
let count_tag = 1
let cell_tag = 2
let rejected_tag = 3

let answer =
  let open Codec in
  choice
    ~tag:(function
      | Points _ -> points_tag
      | Count_of _ -> count_tag
      | Cell_info _ -> cell_tag
      | Rejected _ -> rejected_tag)
    [
      ( points_tag,
        map (array point)
          ~decode:(fun ps -> Points ps)
          ~encode:(function Points ps -> ps | _ -> assert false) );
      ( count_tag,
        map int
          ~decode:(fun n -> Count_of n)
          ~encode:(function Count_of n -> n | _ -> assert false) );
      ( cell_tag,
        map
          (triple int box (array point))
          ~decode:(fun (d, b, ps) -> Cell_info (d, b, ps))
          ~encode:(function
            | Cell_info (d, b, ps) -> (d, b, ps) | _ -> assert false) );
      ( rejected_tag,
        map string
          ~decode:(fun m -> Rejected m)
          ~encode:(function Rejected m -> m | _ -> assert false) );
    ]

(* The sketch and flight-entry codecs transport the records verbatim;
   semantic validation (ascending buckets, positive counts) lives in
   [Sketch.of_snapshot], which the displaying client runs. *)
let sketch_snapshot =
  let open Codec in
  map
    (pair
       (triple float float float)
       (pair (pair int float) (array (pair int int))))
    ~decode:(fun ((alpha, min_value, max_value), ((zeros, sum), buckets)) ->
      { Sketch.alpha; min_value; max_value; zeros; sum; buckets })
    ~encode:(fun (s : Sketch.snapshot) ->
      ((s.alpha, s.min_value, s.max_value), ((s.zeros, s.sum), s.buckets)))

let flight_entry =
  let open Codec in
  map
    (pair (triple float int int) (pair (pair int float) (pair int string)))
    ~decode:(fun ((ts, domain, kind), ((epoch, latency), (visited, note))) ->
      { Flight.ts; domain; kind; epoch; latency; visited; note })
    ~encode:(fun (e : Flight.entry) ->
      ((e.ts, e.domain, e.kind), ((e.epoch, e.latency), (e.visited, e.note))))

let telemetry =
  let open Codec in
  map
    (pair
       (pair (pair int int) (pair int int))
       (pair (pair string string)
          (triple
             (list (pair string sketch_snapshot))
             (list string) (list flight_entry))))
    ~decode:(fun
        ( ((epoch, size), (batches, live_epochs)),
          ((metrics_json, prometheus), (sketches, events, flight)) )
      ->
      {
        epoch;
        size;
        batches;
        live_epochs;
        metrics_json;
        prometheus;
        sketches;
        events;
        flight;
      })
    ~encode:(fun t ->
      ( ((t.epoch, t.size), (t.batches, t.live_epochs)),
        ((t.metrics_json, t.prometheus), (t.sketches, t.events, t.flight)) ))

let answers_tag = 0

let response =
  let open Codec in
  choice
    ~tag:(function
      | Answers _ -> answers_tag
      | Stats_info _ -> 1
      | Refused _ -> 2
      | Bye -> 3
      | Telemetry_info _ -> 4)
    [
      ( answers_tag,
        map
          (pair int (array answer))
          ~decode:(fun (epoch, answers) -> Answers { epoch; answers })
          ~encode:(function
            | Answers { epoch; answers } -> (epoch, answers)
            | _ -> assert false) );
      ( 1,
        map
          (pair (pair int int) (pair int int))
          ~decode:(fun ((epoch, size), (batches, live_epochs)) ->
            Stats_info { epoch; size; batches; live_epochs })
          ~encode:(function
            | Stats_info { epoch; size; batches; live_epochs } ->
              ((epoch, size), (batches, live_epochs))
            | _ -> assert false) );
      ( 2,
        map string
          ~decode:(fun m -> Refused m)
          ~encode:(function Refused m -> m | _ -> assert false) );
      (3, map (list u8) ~decode:(fun _ -> Bye) ~encode:(fun _ -> []));
      ( 4,
        map telemetry
          ~decode:(fun t -> Telemetry_info t)
          ~encode:(function Telemetry_info t -> t | _ -> assert false) );
    ]

(* Length-prefixed framing over channels: 4 bytes big-endian, then one
   "PSTO" artifact (versioned, checksummed). The length prefix bounds
   the read; everything inside it is validated by the store's frame
   check, so truncation surfaces as [Truncated] and corruption as
   [Checksum_mismatch] — both read as a malformed request, never as a
   wrong answer. *)

let max_frame = 1 lsl 26 (* 64 MiB: refuse absurd prefixes outright *)

let write_length oc n =
  output_byte oc ((n lsr 24) land 0xff);
  output_byte oc ((n lsr 16) land 0xff);
  output_byte oc ((n lsr 8) land 0xff);
  output_byte oc (n land 0xff)

let write_raw oc s =
  write_length oc (String.length s);
  output_string oc s;
  flush oc

let frame ~kind codec v = Codec.to_artifact ~kind ~version ~key:frame_key codec v
let write_frame oc ~kind codec v = write_raw oc (frame ~kind codec v)

let read_frame ic ~kind codec =
  match input_byte ic with
  | exception End_of_file -> None
  | b0 -> (
    try
      let b1 = input_byte ic in
      let b2 = input_byte ic in
      let b3 = input_byte ic in
      let n = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3 in
      if n > max_frame then
        Some (Error (Printf.sprintf "frame length %d exceeds limit" n))
      else begin
        let s = really_input_string ic n in
        match Codec.of_artifact ~kind ~version ~key:frame_key codec s with
        | Ok v -> Some (Ok v)
        | Error e -> Some (Error (Codec.error_to_string e))
      end
    with End_of_file -> Some (Error "truncated frame"))

let write_request oc r = write_frame oc ~kind:request_kind request r
let read_request ic = read_frame ic ~kind:request_kind request

(* A response the peer's [read_frame] would refuse is replaced by a
   short [Refused], which it can read. It names the frame's length [n]
   when the frame was sized; a batch stopped at its cap ([None]) was
   never sized, and the reason says only that it passed the limit, so
   the refusal is the same whichever answers finished before the stop. *)
let write_oversize oc n =
  Probe.serve_oversize ~bytes:(Option.value n ~default:(max_frame + 1));
  write_frame oc ~kind:response_kind response
    (Refused
       (match n with
       | Some n -> Printf.sprintf "response of %d bytes exceeds frame limit" n
       | None ->
         Printf.sprintf "response of more than %d bytes exceeds frame limit"
           max_frame))

(* A response is framed before a byte of it is written, so its length
   is known up front. *)
let write_response oc r =
  let s = frame ~kind:response_kind response r in
  let n = String.length s in
  if n <= max_frame then write_raw oc s else write_oversize oc (Some n)

let read_response ic = read_frame ic ~kind:response_kind response

(* --- Streamed answers ------------------------------------------------

   A batch's answers are produced as bytes, never as [answer] values:
   the kernels write each answer's points into the [body] sink of the
   chunk that answers it, and the fields the codec puts before those
   points — tag, count, depth, block, message — go into the chunk's
   [head] once the kernel has returned. [ends] records where each
   answer stops in both sinks, so the frame's payload is, answer by
   answer, head part then body part: byte for byte what [answer]'s
   codec writes for the decoded value. *)

type chunk = {
  head : Sink.t;
  body : Sink.t;
  mutable ends : int array;
      (** answer [i] ends at [ends.(2i)] in [head], [ends.(2i+1)] in
          [body] *)
  mutable answers : int;
  batch : out;
}

and out = {
  tally : int Atomic.t;
      (** answer bytes produced so far, by every chunk of the batch *)
  mutable cap : int;
  mutable chunks : chunk array;
  mutable used : int;
  prefix : Sink.t;
}

let out () =
  {
    tally = Atomic.make 0;
    cap = max_int;
    chunks = [||];
    used = 0;
    prefix = Sink.create ();
  }

let new_chunk batch =
  {
    head = Sink.create ();
    body = Sink.create ();
    ends = Array.make 64 0;
    answers = 0;
    batch;
  }

let start o ~chunks ~cap =
  if Array.length o.chunks < chunks then
    o.chunks <-
      Array.init chunks (fun i ->
          if i < Array.length o.chunks then o.chunks.(i) else new_chunk o);
  Atomic.set o.tally 0;
  o.cap <- cap;
  o.used <- chunks;
  for i = 0 to chunks - 1 do
    let c = o.chunks.(i) in
    Sink.clear c.head;
    Sink.clear c.body;
    c.answers <- 0
  done

let chunk o i = o.chunks.(i)
let body c = c.body

let last_end c k =
  if c.answers = 0 then 0 else c.ends.((2 * c.answers) - 2 + k)

(* Past the cap no answer starts; one that starts under it may add the
   cap's remainder to its sink, and its walk stops at the first point
   past that ({!Sink.Full}). The tally only counts finished answers, so
   the bytes a stopped batch holds stay within the cap plus one answer
   in progress per domain. *)
let open_answer c =
  let left = c.batch.cap - Atomic.get c.batch.tally in
  if left < 0 then false
  else begin
    Sink.set_limit c.body
      (if left > max_int - c.body.Sink.len then max_int
       else c.body.Sink.len + left);
    true
  end

let close c =
  let h0 = last_end c 0 and b0 = last_end c 1 in
  let k = 2 * c.answers in
  if k + 2 > Array.length c.ends then begin
    let ends = Array.make (2 * Array.length c.ends) 0 in
    Array.blit c.ends 0 ends 0 k;
    c.ends <- ends
  end;
  c.ends.(k) <- c.head.Sink.len;
  c.ends.(k + 1) <- c.body.Sink.len;
  c.answers <- c.answers + 1;
  ignore
    (Atomic.fetch_and_add c.batch.tally
       (c.head.Sink.len - h0 + (c.body.Sink.len - b0))
      : int)

(* The heads, in [answer]'s layout. An answer with no points is that
   codec's own bytes; one with points is its case tag and fields up to
   the point array's count, written with the codec's pieces — the
   points follow in [body], as [Codec.point] would write them. *)
let point_count c = (c.body.Sink.len - last_end c 1) / Sink.point_bytes

let close_points c =
  Codec.write Codec.u8 c.head points_tag;
  Codec.write_count c.head (point_count c);
  close c

let close_count c n =
  Codec.write answer c.head (Count_of n);
  close c

let close_cell c depth b =
  Codec.write Codec.u8 c.head cell_tag;
  Codec.write Codec.int c.head depth;
  Codec.write Codec.box c.head b;
  Codec.write_count c.head (point_count c);
  close c

let close_rejected c m =
  Codec.write answer c.head (Rejected m);
  close c

(* The walk stopped at the cap: count what the answer asked for, which
   takes the tally past the cap, so no later answer starts. *)
let close_full c =
  ignore
    (Atomic.fetch_and_add c.batch.tally
       (c.head.Sink.len - last_end c 0 + (c.body.Sink.wanted - last_end c 1))
      : int)

let over o = Atomic.get o.tally > o.cap

let held o =
  let n = ref 0 in
  for i = 0 to o.used - 1 do
    n := !n + o.chunks.(i).head.Sink.len + o.chunks.(i).body.Sink.len
  done;
  !n

let capacity o =
  Array.fold_left
    (fun n c -> n + Sink.capacity c.head + Sink.capacity c.body)
    (Sink.capacity o.prefix) o.chunks

(* Once a batch's bytes are written or decoded, [o] is emptied: each
   sink gives back storage far above what the batch put in it
   ({!Sink.trim}), and the chunks past four times the batch's count are
   let go, so one large batch does not leave its storage behind. A
   refused batch's bytes count as none. *)
let release ?(refused = false) o =
  if Array.length o.chunks > 4 * o.used then
    o.chunks <- Array.sub o.chunks 0 o.used;
  Array.iteri
    (fun i c ->
      if refused || i >= o.used then begin
        Sink.clear c.head;
        Sink.clear c.body
      end;
      Sink.trim c.head;
      Sink.trim c.body;
      c.answers <- 0)
    o.chunks;
  o.used <- 0;
  Atomic.set o.tally 0

(* Every part of the answers in order: per chunk, per answer, its head
   bytes then its body bytes. *)
let iter_parts o f =
  for i = 0 to o.used - 1 do
    let c = o.chunks.(i) in
    let h = ref 0 and b = ref 0 in
    for a = 0 to c.answers - 1 do
      let h1 = c.ends.(2 * a) and b1 = c.ends.((2 * a) + 1) in
      f c.head.Sink.bytes !h (h1 - !h);
      f c.body.Sink.bytes !b (b1 - !b);
      h := h1;
      b := b1
    done
  done

let answer_count o =
  let n = ref 0 in
  for i = 0 to o.used - 1 do
    n := !n + o.chunks.(i).answers
  done;
  !n

(* The [Answers] payload up to its first answer: tag, epoch, count. *)
let answers_prefix o ~epoch =
  let p = o.prefix in
  Sink.clear p;
  Codec.write Codec.u8 p answers_tag;
  Codec.write Codec.int p epoch;
  Codec.write_count p (answer_count o);
  p

(* The frame goes out as it is hashed: length prefix, header, payload
   prefix, the chunks' parts, checksum. Nothing frame-sized is built. A
   batch stopped at the cap, or one whose frame would pass
   [max_frame], is refused instead. Whether a batch stops depends only
   on its answers — the tally passes the cap exactly when their total
   does, whatever the schedule — so the response does too. *)
let write_answers oc ~epoch o =
  let refuse n =
    release ~refused:true o;
    write_oversize oc n
  in
  if over o then refuse None
  else begin
    let p = answers_prefix o ~epoch in
    let len = p.Sink.len + held o in
    let header =
      Codec.frame_header ~kind:response_kind ~version ~key:frame_key len
    in
    let n = String.length header + len + 8 in
    if n > max_frame then refuse (Some n)
    else begin
      write_length oc n;
      let h = Codec.fnv_start () in
      let part b off len =
        if len > 0 then begin
          Codec.fnv_feed h b off len;
          output oc b off len
        end
      in
      part (Bytes.unsafe_of_string header) 0 (String.length header);
      part p.Sink.bytes 0 p.Sink.len;
      iter_parts o part;
      output oc (Codec.fnv_checksum h) 0 8;
      release o;
      flush oc
    end
  end

let decode_answers o =
  if over o then invalid_arg "Wire.decode_answers: batch stopped at its cap";
  let buf = Buffer.create (16 + held o) in
  let p = o.prefix in
  Sink.clear p;
  Codec.write_count p (answer_count o);
  Buffer.add_subbytes buf p.Sink.bytes 0 p.Sink.len;
  iter_parts o (fun b off len -> Buffer.add_subbytes buf b off len);
  release o;
  Codec.decode (Codec.array answer) (Buffer.contents buf)
