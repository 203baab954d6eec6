(* Allocation regression guard for the arena's insert path.

   The claim under test: a no-split [Pr_arena.insert] into a
   pre-reserved arena over the unit square touches nothing but int and
   float arrays — zero minor-heap words per insert. The measurement is
   [Gc.minor_words] around a large insert loop; a small constant slack
   absorbs the boxing done by the measurement reads themselves, so any
   per-insert allocation (>= 2 words each across thousands of inserts)
   fails loudly while the harness noise does not.

   Only native code makes the claim — bytecode boxes floats at every
   turn — so the assertions are gated on [Sys.backend_type]. *)

module Point = Popan_geom.Point
module Pr_arena = Popan_trees.Pr_arena
module Pr_quadtree = Popan_trees.Pr_quadtree
module Xoshiro = Popan_rng.Xoshiro
module Sampler = Popan_rng.Sampler

let inserts = 10_000

(* Slack for the two [Gc.minor_words] float boxes and alcotest's own
   bookkeeping between the reads: far below one word per insert. *)
let slack = 256.0

let points () =
  Array.of_list
    (Sampler.points (Xoshiro.of_int_seed 77) Sampler.Uniform inserts)

let native = match Sys.backend_type with Sys.Native -> true | _ -> false

let measure f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let tests =
  [
    Alcotest.test_case "no-split arena insert allocates zero minor words"
      `Quick (fun () ->
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          (* capacity >= inserts: the root leaf absorbs everything, so
             no split runs; reserve: the point arrays never double. *)
          let t =
            Pr_arena.create ~capacity:inserts ~reserve:inserts ()
          in
          (* Warm up: first insert of each shape triggers any lazy
             initialization exactly once. *)
          Pr_arena.insert t pts.(0);
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  Pr_arena.insert t pts.(i)
                done)
          in
          Alcotest.check Alcotest.int "all stored" inserts (Pr_arena.size t);
          if words > slack then
            Alcotest.failf
              "insert loop allocated %.0f minor words over %d inserts \
               (%.2f words/insert); the arena hot path must not allocate"
              words (inserts - 1)
              (words /. float_of_int (inserts - 1))
        end);
    Alcotest.test_case "positive control: Pr_quadtree inserts do allocate"
      `Quick (fun () ->
        (* If the measurement harness ever stops seeing allocation, the
           zero-alloc assertion above becomes vacuous — the persistent
           tree, which copies its root-to-leaf path and conses a leaf
           list per insert, proves the meter still works. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          let t = ref (Pr_quadtree.create ~capacity:inserts ()) in
          t := Pr_quadtree.insert !t pts.(0);
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  t := Pr_quadtree.insert !t pts.(i)
                done)
          in
          if words < float_of_int inserts then
            Alcotest.failf
              "expected the persistent tree to allocate (got %.0f words); \
               the allocation meter is broken"
              words
        end);
    Alcotest.test_case "bulk build allocates O(1) minor words" `Quick
      (fun () ->
        (* The whole bulk pipeline — fill, radix partition, leaf
           emission — runs on Bigarray columns and int arrays, so its
           minor-heap traffic must not scale with n: a handful of
           Bigarray handles, closures and the recursion's spine, not a
           per-point cost. n = 65536 with a per-point budget of 1/16
           word makes any O(n) leak a loud failure while leaving a few
           thousand words of fixed overhead. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let n = 65_536 in
          let rng = Xoshiro.of_int_seed 91 in
          let pts =
            Array.init n (fun _ -> Sampler.point rng Sampler.Uniform)
          in
          (* Warm-up build: one-time lazy setup (metrics instruments,
             shared tables) charges the first build only. *)
          ignore (Pr_arena.bulk_of_fn ~capacity:8 ~n (fun i -> pts.(i)));
          let tree = ref None in
          let words =
            measure (fun () ->
                tree :=
                  Some (Pr_arena.bulk_of_fn ~capacity:8 ~n (fun i -> pts.(i))))
          in
          (match !tree with
          | Some t -> Alcotest.check Alcotest.int "all stored" n (Pr_arena.size t)
          | None -> assert false);
          if words > float_of_int (n / 16) then
            Alcotest.failf
              "bulk build allocated %.0f minor words for n=%d (%.3f \
               words/point); the Bigarray pipeline must be O(1)"
              words n
              (words /. float_of_int n)
        end);
    Alcotest.test_case "no-merge delete allocates zero minor words" `Quick
      (fun () ->
        (* The churn twin of the insert claim: with capacity >= live
           points the root leaf never splits, so deletes never merge —
           each one is a descent, an unlink and a free-list push, all
           over Bigarray columns and int arrays. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          let t = Pr_arena.create ~capacity:inserts ~reserve:inserts () in
          Array.iter (Pr_arena.insert t) pts;
          ignore (Pr_arena.delete t pts.(0) : bool);
          let ok = ref true in
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  ok := Pr_arena.delete t pts.(i) && !ok
                done)
          in
          Alcotest.check Alcotest.bool "all deletes hit" true !ok;
          Alcotest.check Alcotest.int "all removed" 0 (Pr_arena.size t);
          if words > slack then
            Alcotest.failf
              "delete loop allocated %.0f minor words over %d deletes \
               (%.2f words/delete); the churn hot path must not allocate"
              words (inserts - 1)
              (words /. float_of_int (inserts - 1))
        end);
    Alcotest.test_case "slot-reusing reinsert allocates zero minor words"
      `Quick (fun () ->
        (* Steady-state churn: delete one point, reinsert another,
           forever. Every insert pops the slot the delete just freed,
           so the columns never grow and the loop must write zero
           minor-heap words — the arena footprint claim, measured. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          let t = Pr_arena.create ~capacity:inserts ~reserve:inserts () in
          Array.iter (Pr_arena.insert t) pts;
          let high = Pr_arena.slot_high_water t in
          ignore (Pr_arena.delete t pts.(0) : bool);
          Pr_arena.insert t pts.(0);
          let ok = ref true in
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  ok := Pr_arena.delete t pts.(i) && !ok;
                  Pr_arena.insert t pts.(i)
                done)
          in
          Alcotest.check Alcotest.bool "all deletes hit" true !ok;
          Alcotest.check Alcotest.int "size steady" inserts (Pr_arena.size t);
          Alcotest.check Alcotest.int "footprint steady" high
            (Pr_arena.slot_high_water t);
          if words > slack then
            Alcotest.failf
              "churn loop allocated %.0f minor words over %d delete+insert \
               pairs (%.2f words/pair); slot reuse must not allocate"
              words (inserts - 1)
              (words /. float_of_int (inserts - 1))
        end);
    Alcotest.test_case "splits and growth stay amortized-modest" `Quick
      (fun () ->
        (* Not zero — splits bump-allocate node quads and growth doubles
           arrays — but a full 10k-point build must stay far below the
           boxed builder's per-point cons traffic. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          let t = Pr_arena.create ~capacity:8 ~reserve:inserts () in
          Pr_arena.insert t pts.(0);
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  Pr_arena.insert t pts.(i)
                done)
          in
          Alcotest.check Alcotest.bool "bounded" true
            (words /. float_of_int inserts < 4.0)
        end);
    Alcotest.test_case
      "integer-descent count and nearest allocate zero minor words" `Quick
      (fun () ->
        (* The read-path claim: [count_in_box] descends on integer cell
           coordinates and [nearest] ranks quadrants through packed int
           scratch — neither touches the minor heap per node. Each query
           kind has one kernel, and serving with telemetry on runs it
           with a reused, pre-wrapped cost scratch; the count loop is
           metered both without and with one. The boxes and probe
           points are built before the meter starts; the loops fold
           into int accumulators so nothing escapes. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let module Box = Popan_geom.Box in
          let pts = points () in
          let t = Pr_arena.create ~capacity:8 ~reserve:inserts () in
          Array.iter (Pr_arena.insert t) pts;
          let queries = 1_000 in
          let rng = Xoshiro.of_int_seed 4242 in
          let boxes =
            Array.init queries (fun _ ->
                let w = 0.01 +. (0.4 *. Xoshiro.float rng) in
                let x = (1.0 -. w) *. Xoshiro.float rng in
                let y = (1.0 -. w) *. Xoshiro.float rng in
                Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w))
          in
          let probes =
            Array.init queries (fun _ ->
                Sampler.point rng Sampler.Uniform)
          in
          ignore (Pr_arena.count_in_box t boxes.(0) : int);
          (match Pr_arena.nearest t probes.(0) with
          | Some _ -> ()
          | None -> assert false);
          let scratch = Pr_arena.cost () in
          let cost = Some scratch in
          List.iter
            (fun (what, cost) ->
              let total = ref 0 and visited = ref 0 in
              let count_words =
                measure (fun () ->
                    for i = 0 to queries - 1 do
                      total := !total + Pr_arena.count_in_box ?cost t boxes.(i);
                      visited := !visited + scratch.Pr_arena.visited
                    done)
              in
              Alcotest.check Alcotest.bool "counts nonzero" true (!total > 0);
              if cost <> None then
                Alcotest.check Alcotest.bool "visits counted" true
                  (!visited >= queries);
              if count_words > slack then
                Alcotest.failf
                  "count_in_box (%s) allocated %.0f minor words over %d \
                   queries (%.2f words/query); the integer-descent path \
                   must not allocate"
                  what count_words queries
                  (count_words /. float_of_int queries))
            [ ("no cost scratch", None); ("cost scratch", cost) ];
          let found = ref 0 in
          let nearest_words =
            measure (fun () ->
                for i = 0 to queries - 1 do
                  match Pr_arena.nearest t probes.(i) with
                  | Some _ -> incr found
                  | None -> ()
                done)
          in
          Alcotest.check Alcotest.int "all probes answered" queries !found;
          (* [nearest] has a constant per-call cost — the descent
             closures, the best-so-far scratch array and the
             [Some point] answer, ~53 words — and a zero per-node cost:
             the budget of 64 words/query passes on the constant but
             fails loudly on any per-node allocation (each visited node
             would add boxing on top). *)
          if nearest_words > (64.0 *. float_of_int queries) +. slack then
            Alcotest.failf
              "nearest allocated %.0f minor words over %d queries (%.2f \
               words/query); the descent must only allocate its answer"
              nearest_words queries
              (nearest_words /. float_of_int queries)
        end);
    Alcotest.test_case "cell_at allocates only its answer, nothing per level"
      `Quick (fun () ->
        (* The point descent picks each child by integer pair bits at
           every depth, the fine-ordinate levels below 21 included, and
           builds the leaf block from its exact dyadic corner. So a
           lookup allocates its answer and nothing else: the (depth,
           box, points) tuple (4 words), the box (5) and, per point, a
           cons cell and a point record (6). The probes are clusters at
           max_depth 42 whose points part only below level 21, so one
           word per level would add tens of thousands. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let rng = Xoshiro.of_int_seed 4343 in
          let clusters = 1_000 in
          let pts =
            List.concat
              (List.init clusters (fun _ ->
                   (* A corner on the 2^-20 grid, so the offsets below
                      never carry into the top 21 bits. *)
                   let x = ldexp (float_of_int (Xoshiro.int rng (1 lsl 20))) (-20)
                   and y = ldexp (float_of_int (Xoshiro.int rng (1 lsl 20))) (-20) in
                   [ Point.make x y;
                     Point.make (x +. ldexp 1.0 (-32)) y;
                     Point.make x (y +. ldexp 1.0 (-38));
                     Point.make (x +. ldexp 1.0 (-40)) (y +. ldexp 1.0 (-40)) ]))
          in
          let t = Pr_arena.of_points_bulk ~capacity:1 ~max_depth:42 pts in
          let probes = Array.of_list pts in
          ignore (Pr_arena.cell_at t probes.(0));
          let depths = ref 0 and answer = ref 0 in
          let words =
            measure (fun () ->
                Array.iter
                  (fun p ->
                    let depth, _, cell = Pr_arena.cell_at t p in
                    depths := !depths + depth;
                    answer := !answer + 9 + (6 * List.length cell))
                  probes)
          in
          let n = Array.length probes in
          Alcotest.check Alcotest.bool "descents go below level 21" true
            (!depths / n > 21);
          if words > float_of_int !answer +. slack then
            Alcotest.failf
              "cell_at allocated %.0f minor words over %d lookups for %d \
               answer words (mean depth %d); the descent must allocate \
               only its answer"
              words n !answer (!depths / n)
        end);
  ]

(* Epoch publication allocates O(churn ops), not O(n): a churn batch
   replays its ops onto the standby arena of the server's left-right
   epoch pair and swaps, copying nothing. The test counts every word
   allocated (minor plus direct-major, from [Gc.quick_stat]) by 8 empty
   batches at 64 churn ops, at n = 2^10 and n = 2^16, and bounds the
   ratio at 3. Replay keeps it near 1 (1.1 measured); copying the arena
   every batch gives 13.4, because the copied node tables are fresh
   OCaml arrays whose size grows with n. *)

module Server = Popan_serve.Server

let publish_words n =
  let config =
    {
      Server.default_config with
      base_points = n;
      churn_ops = 64;
      jobs = Some 1;
    }
  in
  let t = Server.create config in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      let batch () = ignore (Server.run_queries t [||] : int * _) in
      (* Warm up: the first two batches are the first writes to each
         arena of the pair. *)
      batch ();
      batch ();
      let allocated () =
        let s = Gc.quick_stat () in
        s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
      in
      let before = allocated () in
      for _ = 1 to 8 do
        batch ()
      done;
      allocated () -. before)

let publish_bound = 3.0

(* The serving path answers into reused per-chunk sinks and streams the
   frame from them, so once the sinks have grown a batch allocates per
   query (its decoded request, a few words of dispatch), not per answer
   point. The batch is range-heavy: 1024 queries alternating ranges
   over boxes of side 1-10% and counts over boxes of side 5-55%, on a
   2^16-point static server — about 116k answer points, 1.85 MB of
   answers. One conversation warms the sinks; a second, identical one
   is metered, request read and decode included, its frame written to
   /dev/null. Measured at 16.5 words per query (2-vCPU x86-64, OCaml
   5.1.1); a count's answer is one [Count_of] block, written through
   the answer codec. A server that materializes each answer point as a record in
   a list and then an array, and encodes from those, allocates 1185
   words per query on the same batch. *)

let stream_queries = 1024
let stream_bound = 64.0

let stream_words () =
  let t =
    Server.create
      {
        Server.default_config with
        base_points = 1 lsl 16;
        churn_ops = 0;
        jobs = Some 1;
      }
  in
  let rng = Xoshiro.of_int_seed 0x5e7e in
  let square lo hi =
    let w = lo +. ((hi -. lo) *. Xoshiro.float rng) in
    let x = (1.0 -. w) *. Xoshiro.float rng in
    let y = (1.0 -. w) *. Xoshiro.float rng in
    Popan_geom.Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w)
  in
  let batch =
    Popan_serve.Wire.Batch
      (Array.init stream_queries (fun i ->
           if i mod 2 = 0 then Popan_serve.Wire.Range (square 0.01 0.10)
           else Popan_serve.Wire.Count (square 0.05 0.55)))
  in
  let request = Filename.temp_file "popan" ".req" in
  let oc = open_out_bin request in
  Popan_serve.Wire.write_request oc batch;
  close_out oc;
  let null = open_out_bin "/dev/null" in
  let converse () =
    let ic = open_in_bin request in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> ignore (Server.serve_channels t ic null : bool))
  in
  Fun.protect
    ~finally:(fun () ->
      close_out null;
      Sys.remove request;
      Server.shutdown t)
    (fun () ->
      converse ();
      let words = measure converse in
      (words, Server.held_bytes t))

let serve_tests =
  [
    Alcotest.test_case "epoch publication allocates O(churn ops), not O(n)"
      `Quick (fun () ->
        let small = publish_words (1 lsl 10) in
        let large = publish_words (1 lsl 16) in
        Printf.printf "8 batches x 64 ops: %.0f words at n=2^10, %.0f at 2^16\n"
          small large;
        if large > publish_bound *. small then
          Alcotest.failf
            "publishing at n=2^16 allocated %.0f words, %.1fx the %.0f at \
             n=2^10 (bound %.0fx): publication scales with n"
            large (large /. small) small publish_bound);
    Alcotest.test_case
      "a streamed batch allocates per query, not per answer point" `Quick
      (fun () ->
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let words, held = stream_words () in
          let per_query = words /. float_of_int stream_queries in
          Printf.printf
            "%d queries, %d answer bytes: %.0f minor words (%.1f per query)\n"
            stream_queries held words per_query;
          if per_query > stream_bound then
            Alcotest.failf
              "answering and streaming %d queries (%d answer bytes) \
               allocated %.0f minor words, %.1f per query (bound %.0f): \
               answers are materialized on the way to the wire"
              stream_queries held words per_query stream_bound
        end);
  ]

(* The wire codec moves fixed-width values as single 8-byte loads and
   stores and hashes frames in place, so its allocation is the decoded
   values and the frame itself, never a boxed word per byte or per
   float. The three gates meter the checksum, a framed 10,000-point
   [Points] answer's decode, and its encode. *)

module Codec = Popan_store.Codec
module Wire = Popan_serve.Wire

let answer_points = 10_000

let points_frame () =
  let pts =
    Array.of_list
      (Sampler.points (Xoshiro.of_int_seed 5) Sampler.Uniform answer_points)
  in
  let response = Wire.Answers { epoch = 1; answers = [| Wire.Points pts |] } in
  let encode () =
    Codec.to_artifact ~kind:Wire.response_kind ~version:Wire.version
      ~key:"serve" Wire.response response
  in
  let decode frame =
    match
      Codec.of_artifact ~kind:Wire.response_kind ~version:Wire.version
        Wire.response frame
    with
    | Ok (Wire.Answers { answers = [| Wire.Points ps |]; _ }) -> ps
    | Ok _ -> Alcotest.fail "decoded to a different response"
    | Error e -> Alcotest.fail (Codec.error_to_string e)
  in
  (encode, decode)

(* Every word allocated, minor or directly in the major heap (large
   strings and arrays go there), from [Gc.quick_stat]. *)
let measure_all f =
  let total () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = total () in
  f ();
  total () -. before

let codec_tests =
  [
    Alcotest.test_case "fnv1a64 of 1 MiB allocates at most 16 minor words"
      `Quick (fun () ->
        if not native then print_endline "skipped: bytecode boxes int64s"
        else begin
          let s = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
          ignore (Codec.fnv1a64 s : int64);
          let words = measure (fun () -> ignore (Codec.fnv1a64 s : int64)) in
          if words > 16.0 then
            Alcotest.failf
              "fnv1a64 over 1 MiB allocated %.0f minor words; the hash \
               loop must not box its accumulator"
              words
        end);
    Alcotest.test_case "decoding a 10k-point answer allocates only its points"
      `Quick (fun () ->
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let encode, decode = points_frame () in
          let frame = encode () in
          ignore (decode frame : _ array);
          let n = ref 0 in
          let words =
            measure (fun () -> n := Array.length (decode frame))
          in
          Alcotest.check Alcotest.int "all points" answer_points !n;
          (* Three words per point (header and two unboxed floats); the
             array itself is allocated directly in the major heap. *)
          let bound = float_of_int ((3 * answer_points) + 1_024) in
          if words > bound then
            Alcotest.failf
              "decoding %d points allocated %.0f minor words (%.2f per \
               point, bound %.0f): a coordinate is boxed on the way"
              answer_points words
              (words /. float_of_int answer_points)
              bound
        end);
    Alcotest.test_case "encoding a 10k-point answer allocates O(bytes / word)"
      `Quick (fun () ->
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let encode, _ = points_frame () in
          let bytes = String.length (encode ()) in
          let minor = measure (fun () -> ignore (encode () : string)) in
          let total = measure_all (fun () -> ignore (encode () : string)) in
          let words = float_of_int (bytes / 8) in
          Printf.printf
            "%d-byte frame: %.0f minor words, %.0f words in all (%.2f x \
             bytes / word)\n"
            bytes minor total (total /. words);
          (* The payload buffer's doublings (under four times the
             payload) plus the one frame-sized copy stay well under
             eight words per eight bytes. A codec that boxes an int64 per
             float and copies the payload five times allocates about
             35. *)
          if minor > 1_024.0 then
            Alcotest.failf
              "encoding a %d-byte frame allocated %.0f minor words: values \
               are boxed on the way to the buffer"
              bytes minor;
          if total > (8.0 *. words) +. 1_024.0 then
            Alcotest.failf
              "encoding a %d-byte frame allocated %.0f words, %.2f x \
               bytes / word (bound 8): the payload is copied too often"
              bytes total (total /. words)
        end);
  ]

let () =
  Alcotest.run "popan_alloc"
    [ ("arena", tests); ("serve", serve_tests); ("codec", codec_tests) ]
