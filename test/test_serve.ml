(* Tests for the serving subsystem: arena-native query kernels
   (differential against Pr_quadtree, over fresh and churned arenas),
   the shared neighbor queue, epoch snapshots and pinning, the wire
   codecs and framing, and batch byte-identity across job counts. *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Quadrant = Popan_geom.Quadrant
module Xoshiro = Popan_rng.Xoshiro
module Sampler = Popan_rng.Sampler
module Pqueue = Popan_trees.Pqueue
module Pr_arena = Popan_trees.Pr_arena
module Pr_quadtree = Popan_trees.Pr_quadtree
module Sink = Popan_trees.Sink
module Workload = Popan_experiments.Workload
module Codec = Popan_store.Codec
module Parallel = Popan_parallel
module Epoch = Popan_serve.Epoch
module Wire = Popan_serve.Wire
module Server = Popan_serve.Server
module Metrics = Popan_obs.Metrics
module Event = Popan_obs.Event
module Flight = Popan_obs.Flight
module Sketch = Popan_obs.Sketch
module Probe = Popan_obs.Probe

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prop ?(count = 60) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let uniform_points seed n =
  Sampler.points (Xoshiro.of_int_seed seed) Sampler.Uniform n

let sorted_points ps = List.sort Point.compare ps

(* A random arena that has really churned: build from a base population,
   then run a deterministic insert/delete/update stream through it, so
   slot and node free lists are populated and chains are merge-shuffled. *)
let churned_arena ~seed ~base ~ops =
  let spec =
    Workload.Churn.make ~points:(max 1 base) ~trials:1 ~seed ~ops:(max 1 ops)
      ~insert_fraction:0.5 ~update_fraction:(1.0 /. 3.0) ~drift_sigma:0.05 ()
  in
  let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ r -> r)) in
  let st = Workload.Churn.start spec ~rng in
  let arena =
    Pr_arena.of_points_bulk ~capacity:4
      (Array.to_list (Workload.Churn.live st))
  in
  for _ = 1 to ops do
    match Workload.Churn.step spec st with
    | Workload.Churn.Insert p -> Pr_arena.insert arena p
    | Workload.Churn.Delete p -> ignore (Pr_arena.delete arena p : bool)
    | Workload.Churn.Update (p, q) -> ignore (Pr_arena.update arena p q : bool)
  done;
  arena

(* Generators *)

let gen_box =
  QCheck2.Gen.(
    let* x0 = float_bound_inclusive 0.98 in
    let* y0 = float_bound_inclusive 0.98 in
    let* w = float_range 0.01 (1.0 -. x0) in
    let* h = float_range 0.01 (1.0 -. y0) in
    return (Box.make ~xmin:x0 ~ymin:y0 ~xmax:(x0 +. w) ~ymax:(y0 +. h)))

let gen_point =
  QCheck2.Gen.(
    let* x = float_bound_exclusive 1.0 in
    let* y = float_bound_exclusive 1.0 in
    return (Point.make x y))

(* Near-coincident points at max_depth 30 or 42: clusters around
   corners on the 2^-20 grid, offset by 2^-23 .. 2^-40 so no offset
   carries into the top 21 bits. Capacity-1 trees part them only below
   level 21. *)
let gen_cluster =
  QCheck2.Gen.(
    let* max_depth = oneofl [ 30; 42 ] in
    let* corners =
      list_size (int_range 1 4) (pair (int_bound ((1 lsl 20) - 1))
        (int_bound ((1 lsl 20) - 1)))
    in
    let* offsets =
      list_size (int_range 2 6)
        (triple (int_range 23 40) (int_bound 3) (int_bound 3))
    in
    let corner i = ldexp (float_of_int i) (-20) in
    return
      ( max_depth,
        List.concat_map
          (fun (cx, cy) ->
            Point.make (corner cx) (corner cy)
            :: List.map
                 (fun (e, kx, ky) ->
                   Point.make
                     (corner cx +. ldexp (float_of_int kx) (-e))
                     (corner cy +. ldexp (float_of_int ky) (-e)))
                 offsets)
          corners ))

(* A population with its arena and frozen oracle: half the runs a fresh
   bulk build, half a churned arena (free lists live, chains shuffled).
   The oracle tree is frozen from the arena itself, so both sides hold
   exactly the same multiset whatever the churn stream did. *)
let gen_pair =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* churn = bool in
    let arena =
      if churn then churned_arena ~seed ~base:300 ~ops:600
      else
        Pr_arena.of_points_bulk ~capacity:4
          (uniform_points seed (100 + (seed mod 400)))
    in
    return (arena, Pr_arena.freeze arena))

(* The shared neighbor queue *)

let neighbors_tests =
  [
    Alcotest.test_case "create validates" `Quick (fun () ->
        Alcotest.check_raises "k" (Invalid_argument "Pqueue.Neighbors.create: k < 0")
          (fun () -> ignore (Pqueue.Neighbors.create (-1))));
    Alcotest.test_case "k = 0 accepts nothing" `Quick (fun () ->
        let n = Pqueue.Neighbors.create 0 in
        Alcotest.(check (float 0.0)) "worst" 0.0 (Pqueue.Neighbors.worst n);
        Pqueue.Neighbors.offer n ~dist:0.5 "a";
        check_int "size" 0 (Pqueue.Neighbors.size n));
    Alcotest.test_case "keeps the k best, nearest first" `Quick (fun () ->
        let n = Pqueue.Neighbors.create 3 in
        List.iteri
          (fun i d -> Pqueue.Neighbors.offer n ~dist:d i)
          [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
        Alcotest.(check (list int)) "best three" [ 1; 3; 4 ]
          (Pqueue.Neighbors.drain_nearest n));
    Alcotest.test_case "worst tracks the kth distance" `Quick (fun () ->
        let n = Pqueue.Neighbors.create 2 in
        check_bool "empty -> infinite" true
          (Pqueue.Neighbors.worst n = Float.infinity);
        Pqueue.Neighbors.offer n ~dist:3.0 ();
        check_bool "underfull -> infinite" true
          (Pqueue.Neighbors.worst n = Float.infinity);
        Pqueue.Neighbors.offer n ~dist:1.0 ();
        Alcotest.(check (float 0.0)) "full -> kth" 3.0 (Pqueue.Neighbors.worst n);
        Pqueue.Neighbors.offer n ~dist:2.0 ();
        Alcotest.(check (float 0.0)) "evicted" 2.0 (Pqueue.Neighbors.worst n));
  ]

(* Arena-native kernels, differential against the persistent tree *)

let knn_distances p ps = List.map (Point.distance_sq p) ps

(* The count kernel's visited-node tally, read through a cost scratch. *)
let count_in_box_visited arena b =
  let cost = Pr_arena.cost () in
  let n = Pr_arena.count_in_box ~cost arena b in
  (n, cost.Pr_arena.visited)

let kernel_tests =
  [
    prop ~count:80 "query_box ≡ Pr_quadtree.query_box"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, tree), b) ->
        (* Element for element: the tree is frozen from the arena, which
           keeps chain order, and both walks cons hits in quadrant
           order. *)
        Pr_arena.query_box arena b = Pr_quadtree.query_box tree b);
    prop ~count:80 "count_in_box ≡ Pr_quadtree.count_in_box"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, tree), b) ->
        Pr_arena.count_in_box arena b = Pr_quadtree.count_in_box tree b);
    prop ~count:60 "count_in_box_visited counts the same points"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, _), b) ->
        let count, visited = count_in_box_visited arena b in
        count = Pr_arena.count_in_box arena b && visited >= 1);
    prop ~count:60 "range and count walks report the same cost"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, _), b) ->
        (* The count walk packs its visits into its return value, the
           range walk adds them into the scratch: the same traversal
           must come out the same either way. *)
        let range = Pr_arena.cost () and count = Pr_arena.cost () in
        ignore (Pr_arena.query_box ~cost:range arena b : Point.t list);
        ignore (Pr_arena.count_in_box ~cost:count arena b : int);
        range = count);
    prop ~count:80 "k_nearest ≡ Pr_quadtree.k_nearest (distances)"
      QCheck2.Gen.(triple gen_pair gen_point (int_range 0 20))
      (fun ((arena, tree), p, k) ->
        (* Ties break arbitrarily, so compare the distance profiles —
           exact float equality, both sides use the same arithmetic —
           and membership of every returned point. *)
        let a = Pr_arena.k_nearest arena k p in
        let t = Pr_quadtree.k_nearest tree k p in
        knn_distances p a = knn_distances p t
        && List.for_all (Pr_quadtree.mem tree) a);
    prop ~count:80 "nearest ≡ Pr_quadtree.nearest (distance)"
      QCheck2.Gen.(pair gen_pair gen_point)
      (fun ((arena, tree), p) ->
        match (Pr_arena.nearest arena p, Pr_quadtree.nearest tree p) with
        | None, None -> true
        | Some a, Some t ->
          Point.distance_sq p a = Point.distance_sq p t
          && Pr_quadtree.mem tree a
        | _ -> false);
    prop ~count:80 "cell_at ≡ Pr_quadtree.leaf_at"
      QCheck2.Gen.(triple gen_pair gen_point gen_cluster)
      (fun ((arena, tree), p, (max_depth, cluster)) ->
        let agree arena tree p =
          let da, ba, pa = Pr_arena.cell_at arena p in
          let dt, bt, pt = Pr_quadtree.leaf_at tree p in
          da = dt && Box.equal ba bt && sorted_points pa = sorted_points pt
        in
        agree arena tree p
        &&
        (* The fine-ordinate levels of the descent (depth > 21), against
           a float-midpoint tree built independently from the points:
           every stored point's cell, from an incremental and a bulk
           arena. *)
        let reference = Pr_quadtree.of_points ~max_depth ~capacity:1 cluster in
        let deep = Pr_arena.of_points ~max_depth ~capacity:1 cluster in
        Pr_arena.height deep > 21
        && List.for_all
             (fun arena -> List.for_all (agree arena reference) (p :: cluster))
             [ deep; Pr_arena.of_points_bulk ~max_depth ~capacity:1 cluster ]);
    Alcotest.test_case "k_nearest validates" `Quick (fun () ->
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 7 50) in
        let cost = Pr_arena.cost () in
        ignore (Pr_arena.k_nearest ~cost arena 3 (Point.make 0.5 0.5));
        Alcotest.check_raises "k" (Invalid_argument "Pr_arena.k_nearest: k < 0")
          (fun () ->
            ignore (Pr_arena.k_nearest ~cost arena (-1) (Point.make 0.5 0.5)));
        check_int "refused query costs nothing" 0 cost.Pr_arena.visited);
    Alcotest.test_case "cell_at validates" `Quick (fun () ->
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 7 50) in
        let cost = Pr_arena.cost () in
        let depth, _, _ = Pr_arena.cell_at ~cost arena (Point.make 0.3 0.3) in
        check_int "a point descent visits depth + 1 nodes" (depth + 1)
          cost.Pr_arena.visited;
        Alcotest.check_raises "outside"
          (Invalid_argument "Pr_arena.cell_at: point outside bounds") (fun () ->
            ignore (Pr_arena.cell_at ~cost arena (Point.make 2.0 0.5)));
        check_int "refused query costs nothing" 0 cost.Pr_arena.visited);
  ]

(* The pruned kernels against the unpruned walk, and the boundary
   semantics both must share: half-open edges, targets that coincide
   with cells, degenerate boxes, duplicate chains at max depth.

   The unpruned oracles walk the frozen tree: every node whose cell
   meets the target is entered (and counted), and every point of a
   reached leaf is tested — no containment shortcut. That is exactly
   [Pr_quadtree.query_box]'s walk, which conses hits in quadrant
   order. *)
let count_in_box_unpruned_visited arena target =
  let count = ref 0 and visited = ref 0 in
  let rec go (node : Pr_quadtree.Raw.raw_node) box =
    incr visited;
    if Box.intersects box target then
      match node with
      | Leaf pts ->
        List.iter (fun p -> if Box.contains target p then incr count) pts
      | Node children ->
        Array.iteri
          (fun q c -> go c (Box.child box (Quadrant.of_index q)))
          children
  in
  go (Pr_quadtree.Raw.root (Pr_arena.freeze arena)) Box.unit;
  (!count, !visited)

let count_in_box_unpruned arena b = fst (count_in_box_unpruned_visited arena b)
let query_box_unpruned arena b = Pr_quadtree.query_box (Pr_arena.freeze arena) b

(* Random boxes, half of them unions of whole dyadic cells at depth 1..6
   — targets whose edges coincide with cell edges, where containment
   drains whole subtrees and any reordering would show. *)
let gen_pruning_box =
  QCheck2.Gen.(
    let* dyadic = bool in
    if not dyadic then gen_box
    else
      let* depth = int_range 1 6 in
      let cells = 1 lsl depth in
      let* x0 = int_bound (cells - 1) in
      let* y0 = int_bound (cells - 1) in
      let* w = int_range 1 (cells - x0) in
      let* h = int_range 1 (cells - y0) in
      let at k = ldexp (float_of_int k) (-depth) in
      return
        (Box.make ~xmin:(at x0) ~ymin:(at y0) ~xmax:(at (x0 + w))
           ~ymax:(at (y0 + h))))

let dup_arena ~copies =
  (* A duplicate chain saturated past the split depth: every copy of
     the point lands in the same deepest cell, so the chain outgrows
     [capacity] where splitting can no longer separate it. *)
  let arena = Pr_arena.create ~capacity:2 () in
  let p = Point.make 0.3 0.7 in
  for _ = 1 to copies do
    Pr_arena.insert arena p
  done;
  arena

let pruning_tests =
  [
    prop ~count:100 "query_box ≡ query_box_unpruned (exact order)"
      QCheck2.Gen.(pair gen_pair gen_pruning_box)
      (fun ((arena, _), b) ->
        (* Element-for-element, not as multisets: the bulk subtree drain
           must emit exactly the sequence the per-leaf walk does. *)
        Pr_arena.query_box arena b = query_box_unpruned arena b);
    prop ~count:100 "count_in_box ≡ count_in_box_unpruned"
      QCheck2.Gen.(pair gen_pair gen_pruning_box)
      (fun ((arena, _), b) ->
        Pr_arena.count_in_box arena b = count_in_box_unpruned arena b);
    prop ~count:80 "pruned visits ≤ unpruned visits, same count"
      QCheck2.Gen.(pair gen_pair gen_pruning_box)
      (fun ((arena, _), b) ->
        let count_p, visited_p = count_in_box_visited arena b in
        let count_u, visited_u = count_in_box_unpruned_visited arena b in
        count_p = count_u && visited_p <= visited_u && visited_p >= 1);
    Alcotest.test_case "half-open edges: low edge in, high edge out" `Quick
      (fun () ->
        let pts =
          [
            Point.make 0.25 0.25;
            Point.make 0.5 0.5;
            Point.make 0.5 0.25;
            Point.make 0.25 0.5;
            Point.make 0.375 0.375;
          ]
        in
        let arena = Pr_arena.of_points_bulk ~capacity:1 pts in
        let b = Box.make ~xmin:0.25 ~ymin:0.25 ~xmax:0.5 ~ymax:0.5 in
        (* Only the low-corner point and the interior point: every
           point with x = xmax or y = ymax is outside the half-open
           box. *)
        check_int "count" 2 (Pr_arena.count_in_box arena b);
        Alcotest.(check (list (pair (float 0.0) (float 0.0))))
          "query" [ (0.25, 0.25); (0.375, 0.375) ]
          (List.sort compare
             (List.map
                (fun (p : Point.t) -> (p.Point.x, p.Point.y))
                (Pr_arena.query_box arena b))));
    Alcotest.test_case "target exactly a cell triggers containment" `Quick
      (fun () ->
        (* [0.25, 0.5) x [0.25, 0.5) is precisely a depth-2 cell: the
           pruned kernel must stop at that subtree's root while the
           unpruned one walks all its leaves — and both agree on the
           answer, including the cell's own boundary points. *)
        let rng = Xoshiro.of_int_seed 55 in
        let pts =
          Point.make 0.25 0.25 :: Point.make 0.5 0.5
          :: List.init 600 (fun _ ->
                 Point.make (Xoshiro.float rng) (Xoshiro.float rng))
        in
        let arena = Pr_arena.of_points_bulk ~capacity:2 pts in
        let b = Box.make ~xmin:0.25 ~ymin:0.25 ~xmax:0.5 ~ymax:0.5 in
        check_int "count agrees" (count_in_box_unpruned arena b)
          (Pr_arena.count_in_box arena b);
        check_bool "range agrees" true
          (Pr_arena.query_box arena b = query_box_unpruned arena b);
        let _, visited_p = count_in_box_visited arena b in
        let _, visited_u = count_in_box_unpruned_visited arena b in
        check_bool "containment actually pruned" true (visited_p < visited_u));
    Alcotest.test_case "whole unit square counts everything in O(root)" `Quick
      (fun () ->
        let arena = churned_arena ~seed:23 ~base:800 ~ops:1_600 in
        check_int "count = size" (Pr_arena.size arena)
          (Pr_arena.count_in_box arena Box.unit);
        let _, visited = count_in_box_visited arena Box.unit in
        check_int "root containment: one visit" 1 visited);
    Alcotest.test_case "degenerate point and line boxes are empty" `Quick
      (fun () ->
        (* [Box.make] rejects zero-measure boxes, but the record type is
           open: a client can ship one over the wire. Half-open
           semantics make them contain nothing — even when their edges
           pass straight through stored points. *)
        let arena =
          Pr_arena.of_points_bulk ~capacity:2
            (Point.make 0.3 0.7 :: uniform_points 3 300)
        in
        let point_box = { Box.xmin = 0.3; ymin = 0.7; xmax = 0.3; ymax = 0.7 } in
        let line_box = { Box.xmin = 0.0; ymin = 0.7; xmax = 1.0; ymax = 0.7 } in
        List.iter
          (fun b ->
            check_int "count empty" 0 (Pr_arena.count_in_box arena b);
            check_int "count unpruned empty" 0 (count_in_box_unpruned arena b);
            check_bool "range empty" true (Pr_arena.query_box arena b = []))
          [ point_box; line_box ]);
    Alcotest.test_case "duplicate chain at max depth: count and drain" `Quick
      (fun () ->
        let copies = 40 in
        let arena = dup_arena ~copies in
        check_int "all copies counted" copies
          (Pr_arena.count_in_box arena Box.unit);
        check_int "drain returns every copy" copies
          (List.length (Pr_arena.query_box arena Box.unit));
        (* A tight box around the point still finds the whole chain;
           one epsilon to the side finds none of it. *)
        let hit = Box.make ~xmin:0.29 ~ymin:0.69 ~xmax:0.31 ~ymax:0.71 in
        let miss = Box.make ~xmin:0.31 ~ymin:0.69 ~xmax:0.33 ~ymax:0.71 in
        check_int "tight box" copies (Pr_arena.count_in_box arena hit);
        check_int "tight box unpruned" copies (count_in_box_unpruned arena hit);
        check_int "miss box" 0 (Pr_arena.count_in_box arena miss);
        match Pr_arena.nearest arena (Point.make 0.9 0.1) with
        | Some p ->
          check_bool "nearest finds the dup point" true
            (p.Point.x = 0.3 && p.Point.y = 0.7)
        | None -> Alcotest.fail "nearest found nothing");
  ]

(* Snapshots *)

let arena_bytes a = Codec.encode Codec.pr_quadtree (Pr_arena.freeze a)

let snapshot_tests =
  [
    prop ~count:30 "snapshot is a faithful independent copy"
      QCheck2.Gen.(int_range 1 1_000_000)
      (fun seed ->
        let arena = churned_arena ~seed ~base:200 ~ops:400 in
        let snap = Pr_arena.snapshot arena in
        let before = arena_bytes arena in
        (* The copy matches, passes its own audit, and survives churn on
           the source untouched. *)
        arena_bytes snap = before
        && Pr_arena.check_invariants snap = []
        && begin
             List.iter
               (fun p -> ignore (Pr_arena.delete arena p : bool))
               (Pr_arena.points arena);
             Pr_arena.insert arena (Point.make 0.25 0.75);
             arena_bytes snap = before
           end);
    Alcotest.test_case "snapshot of an empty arena" `Quick (fun () ->
        let arena = Pr_arena.create ~capacity:4 () in
        let snap = Pr_arena.snapshot arena in
        check_int "size" 0 (Pr_arena.size snap);
        (* Minimum capacities: 16 slots in each of the four 8-byte
           point columns, 16 nodes in each of the three node tables. *)
        check_int "resident bytes" ((4 * 8 * 16) + (3 * 8 * 16))
          (Pr_arena.resident_bytes snap);
        Alcotest.(check (list string)) "invariants" []
          (Pr_arena.check_invariants snap));
  ]

(* Epochs: the left-right pair's lifecycle, pinning, refusal *)

let no_problems what problems = Alcotest.(check (list string)) what [] problems

let epoch_tests =
  [
    Alcotest.test_case "publish supersedes, unpinned epochs retire" `Quick
      (fun () ->
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 3 100) in
        let t = Epoch.create arena in
        check_int "boot epoch" 0 (Epoch.current_id t);
        check_int "live" 1 (Epoch.live_count t);
        Epoch.write t (fun a -> Pr_arena.insert a (Point.make 0.5 0.5));
        let e1 = Epoch.publish t in
        check_int "next epoch" 1 (Epoch.id e1);
        check_int "current" 1 (Epoch.current_id t);
        check_int "written point published" 101
          (Pr_arena.size (Epoch.arena e1));
        (* Nobody pinned epoch 0: only the current epoch is live. *)
        check_int "live after publish" 1 (Epoch.live_count t);
        no_problems "invariants" (Epoch.check_invariants t);
        (* The standby still holds epoch 0: publishing it again would
           put stale contents back in front of readers. *)
        Alcotest.check_raises "publish without a write"
          (Invalid_argument
             "Epoch.publish: nothing written since the last publish")
          (fun () -> ignore (Epoch.publish t : Epoch.epoch));
        (* The next write overwrites epoch 0's arena: it must first catch
           up with epoch 1, exactly as the server's replay does. *)
        Epoch.write t (fun a ->
            Pr_arena.insert a (Point.make 0.5 0.5);
            Pr_arena.insert a (Point.make 0.25 0.75));
        let e2 = Epoch.publish t in
        check_int "third epoch" 2 (Epoch.id e2);
        check_int "epoch 2 size" 102 (Pr_arena.size (Epoch.arena e2));
        check_int "epoch 1 untouched" 101 (Pr_arena.size (Epoch.arena e1));
        no_problems "invariants after the swap" (Epoch.check_invariants t);
        Epoch.shutdown t);
    Alcotest.test_case "a pinned epoch survives concurrent deletes" `Quick
      (fun () ->
        (* The kill-mid-batch scenario: a reader pins, the writer deletes
           every point on the standby and publishes; the pinned epoch's
           contents must stay byte-identical, and the writer may not
           touch its arena again until the unpin. *)
        let t =
          Epoch.create
            (Pr_arena.of_points_bulk ~capacity:4 (uniform_points 5 500))
        in
        let pinned = Epoch.pin t in
        let before = arena_bytes (Epoch.arena pinned) in
        Epoch.write t (fun a ->
            List.iter
              (fun p -> ignore (Pr_arena.delete a p : bool))
              (Pr_arena.points a));
        let e1 = Epoch.publish t in
        check_int "everything deleted" 0 (Pr_arena.size (Epoch.arena e1));
        check_bool "pinned epoch unchanged" true
          (arena_bytes (Epoch.arena pinned) = before);
        check_int "pinned + current live" 2 (Epoch.live_count t);
        no_problems "invariants" (Epoch.check_invariants t);
        (* A second write would overwrite the pinned epoch: refused, and
           nothing moves — ids, pins, contents, invariants. *)
        Alcotest.check_raises "write over a pinned epoch"
          (Invalid_argument "Epoch.write: epoch 0 is still pinned")
          (fun () ->
            Epoch.write t (fun a -> Pr_arena.insert a (Point.make 0.5 0.5)));
        check_int "current id kept" 1 (Epoch.current_id t);
        check_int "pinned id kept" 0 (Epoch.id pinned);
        check_int "pins kept" 1 (Epoch.pins pinned);
        check_int "still two live" 2 (Epoch.live_count t);
        check_bool "pinned epoch still unchanged" true
          (arena_bytes (Epoch.arena pinned) = before);
        no_problems "invariants after the refusal" (Epoch.check_invariants t);
        Epoch.unpin t pinned;
        check_int "one live after unpin" 1 (Epoch.live_count t);
        (* Unpinned, the arena is the writer's again. *)
        Epoch.write t (fun a -> Pr_arena.insert a (Point.make 0.5 0.5));
        let e2 = Epoch.publish t in
        check_int "write lands after unpin" 2 (Epoch.id e2);
        no_problems "invariants after unpin" (Epoch.check_invariants t);
        Epoch.shutdown t);
    Alcotest.test_case "a failed write is never published" `Quick (fun () ->
        let t =
          Epoch.create
            (Pr_arena.of_points_bulk ~capacity:4 (uniform_points 7 50))
        in
        (match Epoch.write t (fun _ -> failwith "writer died") with
        | () -> Alcotest.fail "write should have raised"
        | exception Failure _ -> ());
        Alcotest.check_raises "torn standby"
          (Invalid_argument "Epoch.publish: the standby is torn") (fun () ->
            ignore (Epoch.publish t : Epoch.epoch));
        check_int "epoch 0 still current" 0 (Epoch.current_id t);
        Epoch.shutdown t);
    Alcotest.test_case "unpin validates" `Quick (fun () ->
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 9 50) in
        let t = Epoch.create arena in
        let e = Epoch.current t in
        Alcotest.check_raises "not pinned"
          (Invalid_argument "Epoch.unpin: epoch not pinned") (fun () ->
            Epoch.unpin t e));
  ]

(* Wire codecs and framing *)

let gen_query =
  QCheck2.Gen.(
    let* tag = int_range 0 4 in
    match tag with
    | 0 -> map (fun b -> Wire.Range b) gen_box
    | 1 -> map (fun b -> Wire.Count b) gen_box
    | 2 ->
      let* k = int_range 0 16 in
      map (fun p -> Wire.Knn (k, p)) gen_point
    | 3 -> map (fun p -> Wire.Nearest p) gen_point
    | _ -> map (fun p -> Wire.Cell p) gen_point)

let gen_request =
  QCheck2.Gen.(
    let* tag = int_range 0 6 in
    match tag with
    | 0 | 1 | 2 ->
      let* qs = array_size (int_range 0 50) gen_query in
      return (Wire.Batch qs)
    | 3 -> return Wire.Stats
    | 4 -> return Wire.Telemetry
    | _ -> return Wire.Quit)

let roundtrip codec v = Codec.decode codec (Codec.encode codec v) = v

let frame_roundtrip v =
  let path = Filename.temp_file "popan" ".frame" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Wire.write_request oc v;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Wire.read_request ic with
          | Some (Ok v') -> v' = v
          | _ -> false))

let corrupt_frame_rejected ~mangle =
  let path = Filename.temp_file "popan" ".frame" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Wire.write_request oc (Wire.Batch [| Wire.Count Box.unit |]);
      close_out oc;
      let raw =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let raw = mangle raw in
      let oc = open_out_bin path in
      output_string oc raw;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Wire.read_request ic with
          | Some (Error _) -> true
          | _ -> false))

let wire_tests =
  [
    prop ~count:100 "request codec round-trips" gen_request (fun r ->
        roundtrip Wire.request r);
    prop ~count:60 "query codec round-trips" gen_query (fun q ->
        roundtrip Wire.query q);
    prop ~count:40 "framed request round-trips" gen_request frame_roundtrip;
    Alcotest.test_case "truncated frame is rejected" `Quick (fun () ->
        check_bool "truncated" true
          (corrupt_frame_rejected ~mangle:(fun raw ->
               String.sub raw 0 (String.length raw - 3))));
    Alcotest.test_case "corrupted frame is rejected" `Quick (fun () ->
        check_bool "flipped byte" true
          (corrupt_frame_rejected ~mangle:(fun raw ->
               let b = Bytes.of_string raw in
               let i = String.length raw - 1 in
               Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
               Bytes.to_string b)));
    Alcotest.test_case "unknown choice tag is malformed" `Quick (fun () ->
        match Codec.decode Wire.query "\xff" with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "tag 255 decoded");
  ]

(* Batched execution: byte-identity across job counts *)

let answers_bytes answers =
  Codec.encode (Codec.array Wire.answer) answers

(* A mixed batch: ranges, counts, k-NN, nearest, cells. *)
let mixed_queries seed n =
  let rng = Xoshiro.of_int_seed seed in
  Array.init n (fun i ->
      let p = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
      match i mod 5 with
      | 0 ->
        let w = 0.01 +. (0.2 *. Xoshiro.float rng) in
        let x = (1.0 -. w) *. Xoshiro.float rng in
        let y = (1.0 -. w) *. Xoshiro.float rng in
        Wire.Range (Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w))
      | 1 ->
        Wire.Count
          (Box.make ~xmin:0.0 ~ymin:0.0 ~xmax:(max 0.01 p.Point.x)
             ~ymax:(max 0.01 p.Point.y))
      | 2 -> Wire.Knn (1 + (i mod 16), p)
      | 3 -> Wire.Nearest p
      | _ -> Wire.Cell p)

let batch_tests =
  [
    Alcotest.test_case "batch results byte-identical at jobs 1/2/4" `Quick
      (fun () ->
        let arena = churned_arena ~seed:11 ~base:2_000 ~ops:4_000 in
        let queries = mixed_queries 42 3_000 in
        let run jobs =
          Parallel.Pool.with_pool ~jobs (fun pool ->
              answers_bytes (Server.run_batch pool arena queries))
        in
        let sequential = Array.map (Server.eval arena) queries in
        let b1 = run 1 and b2 = run 2 and b4 = run 4 in
        check_bool "jobs 1 = sequential" true (b1 = answers_bytes sequential);
        check_bool "jobs 2 = jobs 1" true (b2 = b1);
        check_bool "jobs 4 = jobs 1" true (b4 = b1));
  ]

(* The server loop end to end, in process *)

let server_tests =
  [
    Alcotest.test_case "batches answer from a pinned epoch while churning"
      `Quick (fun () ->
        let config =
          {
            Server.default_config with
            base_points = 1_000;
            churn_ops = 200;
            jobs = Some 2;
          }
        in
        let t = Server.create config in
        Fun.protect
          ~finally:(fun () -> Server.shutdown t)
          (fun () ->
            let queries =
              Array.init 500 (fun i ->
                  Wire.Knn (1 + (i mod 8), Point.make 0.3 0.7))
            in
            let e0, a0 = Server.run_queries t queries in
            let e1, a1 = Server.run_queries t queries in
            check_int "first batch epoch" 0 e0;
            check_int "second batch epoch" 1 e1;
            check_int "answers" 500 (Array.length a0);
            check_int "answers" 500 (Array.length a1);
            Alcotest.(check (list string)) "epoch invariants" []
              (Epoch.check_invariants (Server.epochs t));
            check_int "batches" 2 (Server.batches t)));
    Alcotest.test_case "handle Stats and Quit" `Quick (fun () ->
        let config =
          { Server.default_config with base_points = 100; churn_ops = 0 }
        in
        let t = Server.create config in
        Fun.protect
          ~finally:(fun () -> Server.shutdown t)
          (fun () ->
            (match Server.handle t Server.Stats with
            | Wire.Stats_info { epoch; size; batches; live_epochs }, true ->
              check_int "epoch" 0 epoch;
              check_int "size" 100 size;
              check_int "batches" 0 batches;
              check_int "live" 1 live_epochs
            | _ -> Alcotest.fail "bad stats response");
            match Server.handle t Server.Quit with
            | Wire.Bye, false -> ()
            | _ -> Alcotest.fail "bad quit response"));
  ]

(* The left-right pair against a copy-per-batch reference. The
   reference is the simplest correct publisher: one arena, apply each
   churn slice to it, snapshot it. The server instead replays every
   slice onto a standby twin, so each of its two arenas is rewritten by
   replay on alternate batches; every epoch it serves must equal the
   reference's, down to the frozen tree's bytes. *)

type reference = {
  spec : Workload.Churn.spec;
  state : Workload.Churn.state;
  arena : Pr_arena.t;
  ops : int;
}

(* The same population and churn stream [Server.create] derives from a
   config. *)
let reference_of (c : Server.config) =
  let spec =
    Workload.Churn.make ~points:(max 1 c.base_points) ~trials:1 ~seed:c.seed
      ~ops:(max 1 c.churn_ops) ~insert_fraction:c.insert_fraction
      ~update_fraction:c.update_fraction ~drift_sigma:c.drift_sigma ()
  in
  let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ r -> r)) in
  let state = Workload.Churn.start spec ~rng in
  let arena =
    Pr_arena.of_points_bulk ~capacity:c.capacity
      (Array.to_list (Workload.Churn.live state))
  in
  { spec; state; arena; ops = c.churn_ops }

(* Publish the reference's next epoch: apply one slice, copy. *)
let reference_publish r =
  for _ = 1 to r.ops do
    match Workload.Churn.step r.spec r.state with
    | Workload.Churn.Insert p -> Pr_arena.insert r.arena p
    | Workload.Churn.Delete p -> ignore (Pr_arena.delete r.arena p : bool)
    | Workload.Churn.Update (p, q) ->
      ignore (Pr_arena.update r.arena p q : bool)
  done;
  Pr_arena.snapshot r.arena

let left_right_matches_reference ~seed ~mmap ~jobs =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "popan-test-segments"
  in
  let config =
    {
      Server.default_config with
      base_points = 1_500;
      churn_ops = 64;
      capacity = 4;
      seed;
      jobs = Some jobs;
      mmap_dir = (if mmap then Some dir else None);
    }
  in
  let what fmt =
    Printf.ksprintf
      (Printf.sprintf "seed %d%s jobs %d: %s" seed
         (if mmap then " mmap" else "") jobs)
      fmt
  in
  let t = Server.create config in
  let r = reference_of config in
  let queries = mixed_queries (seed + 1) 200 in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      let expected = ref (Pr_arena.snapshot r.arena) in
      for b = 0 to 15 do
        let e = Epoch.pin (Server.epochs t) in
        let served = Epoch.arena e in
        check_int (what "epoch id") b (Epoch.id e);
        check_bool (what "epoch %d structure" b) true
          (Pr_quadtree.equal_structure (Pr_arena.freeze served)
             (Pr_arena.freeze !expected));
        check_bool (what "epoch %d bytes" b) true
          (arena_bytes served = arena_bytes !expected);
        check_int (what "epoch %d slot high-water" b)
          (Pr_arena.slot_high_water !expected)
          (Pr_arena.slot_high_water served);
        Epoch.unpin (Server.epochs t) e;
        let id, answers = Server.run_queries t queries in
        check_int (what "answering epoch") b id;
        check_bool (what "batch %d answers" b) true
          (answers_bytes answers
          = answers_bytes (Array.map (Server.eval !expected) queries));
        no_problems (what "invariants after batch %d" b)
          (Epoch.check_invariants (Server.epochs t));
        expected := reference_publish r
      done)

let left_right_tests =
  [
    Alcotest.test_case "every epoch equals a copy-per-batch reference" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            List.iter
              (fun mmap ->
                List.iter
                  (fun jobs -> left_right_matches_reference ~seed ~mmap ~jobs)
                  [ 1; 2 ])
              [ false; true ])
          [ 1987; 4242 ]);
  ]

(* The Telemetry exchange: codec payloads with real sketch snapshots,
   framing rejection on the response side, the instrumented evaluator's
   answer identity, and a live scrape through [handle]. *)

let sample_telemetry () =
  let s = Sketch.create () in
  for i = 1 to 200 do
    Sketch.record s (float_of_int i *. 1e-4)
  done;
  Sketch.record s 0.0;
  let entry i =
    {
      Flight.ts = 1e9 +. float_of_int i;
      domain = i mod 3;
      kind = i mod 5;
      epoch = i;
      latency = 1e-5 *. float_of_int i;
      visited = 3 * i;
      note = (if i mod 7 = 0 then "cell out of tree" else "");
    }
  in
  {
    Wire.epoch = 3;
    size = 10_000;
    batches = 12;
    live_epochs = 2;
    metrics_json = {|{"schema":"popan-metrics-2"}|};
    prometheus = "# TYPE popan_x counter\npopan_x 1\n";
    sketches =
      [
        ("serve.latency.range", Sketch.snapshot s);
        ("serve.visited.range", Sketch.snapshot s);
      ];
    events =
      [ {|{"ts":1.0,"seq":0,"level":"info","event":"serve.epoch.publish"}|} ];
    flight = List.init 9 entry;
  }

let corrupt_response_frame_rejected ~mangle =
  let path = Filename.temp_file "popan" ".frame" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Wire.write_response oc (Wire.Telemetry_info (sample_telemetry ()));
      close_out oc;
      let raw =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let raw = mangle raw in
      let oc = open_out_bin path in
      output_string oc raw;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Wire.read_response ic with
          | Some (Error _) -> true
          | _ -> false))

let with_telemetry f =
  Metrics.reset ();
  Event.reset ();
  Flight.reset ();
  Metrics.set_enabled true;
  Flight.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Flight.disable ();
      Metrics.reset ();
      Event.reset ();
      Flight.reset ())
    f

let telemetry_tests =
  [
    Alcotest.test_case "telemetry response round-trips with snapshots intact"
      `Quick (fun () ->
        let t = sample_telemetry () in
        check_bool "codec round-trip" true
          (roundtrip Wire.response (Wire.Telemetry_info t));
        match Codec.decode Wire.response (Codec.encode Wire.response (Wire.Telemetry_info t)) with
        | Wire.Telemetry_info t' ->
          let _, snap = List.hd t'.Wire.sketches in
          check_bool "decoded snapshot still validates" true
            (Result.is_ok (Sketch.of_snapshot snap));
          check_bool "quantiles survive the wire" true
            (Sketch.snapshot_quantile snap 0.9
            = Sketch.snapshot_quantile (snd (List.hd t.Wire.sketches)) 0.9)
        | _ -> Alcotest.fail "decoded to a different response");
    Alcotest.test_case "truncated telemetry response frame is rejected"
      `Quick (fun () ->
        check_bool "truncated" true
          (corrupt_response_frame_rejected ~mangle:(fun raw ->
               String.sub raw 0 (String.length raw - 3))));
    Alcotest.test_case "corrupted telemetry response frame is rejected"
      `Quick (fun () ->
        check_bool "flipped byte" true
          (corrupt_response_frame_rejected ~mangle:(fun raw ->
               let b = Bytes.of_string raw in
               let i = String.length raw / 2 in
               Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
               Bytes.to_string b)));
    prop ~count:40 "eval answers alike with telemetry on"
      QCheck2.Gen.(pair gen_pair gen_query)
      (fun ((arena, _), q) ->
        with_telemetry (fun () -> Server.eval arena q) = Server.eval arena q);
    Alcotest.test_case "handle Telemetry scrapes a consistent snapshot"
      `Quick (fun () ->
        with_telemetry (fun () ->
            let config =
              {
                Server.default_config with
                base_points = 500;
                churn_ops = 100;
                jobs = Some 2;
              }
            in
            let t = Server.create config in
            Fun.protect
              ~finally:(fun () -> Server.shutdown t)
              (fun () ->
                let queries =
                  Array.init 200 (fun i ->
                      Wire.Knn (1 + (i mod 8), Point.make 0.3 0.7))
                in
                ignore (Server.run_queries t queries);
                match Server.handle t Server.Telemetry with
                | Wire.Telemetry_info info, true ->
                  check_int "epoch advanced by the churn batch" 1
                    info.Wire.epoch;
                  check_int "batches" 1 info.Wire.batches;
                  check_bool "size" true (info.Wire.size > 0);
                  (match Metrics.validate_prometheus info.Wire.prometheus with
                  | Ok n -> check_bool "prometheus samples" true (n > 0)
                  | Error m -> Alcotest.failf "bad prometheus: %s" m);
                  (match Popan_obs.Obs_json.parse info.Wire.metrics_json with
                  | Ok j ->
                    (match Metrics.validate_json j with
                    | Ok n -> check_bool "instruments" true (n > 0)
                    | Error m -> Alcotest.failf "bad metrics json: %s" m)
                  | Error m -> Alcotest.failf "unparseable metrics json: %s" m);
                  let sketch_count name =
                    match
                      List.find_opt
                        (fun (n, _) -> n = name)
                        info.Wire.sketches
                    with
                    | None -> Alcotest.failf "sketch %s missing" name
                    | Some (_, snap) -> (
                      match Sketch.of_snapshot snap with
                      | Ok s -> Sketch.count s
                      | Error m -> Alcotest.failf "sketch %s invalid: %s" name m)
                  in
                  check_int "one latency record per query" 200
                    (sketch_count "serve.latency.knn");
                  check_int "one visited record per query" 200
                    (sketch_count "serve.visited.knn");
                  let contains hay needle =
                    let nl = String.length needle and hl = String.length hay in
                    let rec go i =
                      i + nl <= hl
                      && (String.sub hay i nl = needle || go (i + 1))
                    in
                    go 0
                  in
                  check_bool "publish event scraped" true
                    (List.exists
                       (fun l -> contains l "serve.epoch.publish")
                       info.Wire.events);
                  check_int "one flight record per query" 200
                    (List.length info.Wire.flight);
                  List.iter
                    (fun e ->
                      check_int "flight kind is knn" 2 e.Flight.kind;
                      check_int "flight epoch is the pinned epoch" 0
                        e.Flight.epoch;
                      check_bool "flight visited positive" true
                        (e.Flight.visited > 0))
                    info.Wire.flight
                | _ -> Alcotest.fail "bad telemetry response")));
  ]

(* Golden frame bytes: the MD5 of every frame below, length prefix
   included, as the wire writes it. The digests pin the frame format
   itself — header, varints, float bit patterns, checksum — so any
   change to the codec that alters a single byte on the wire fails
   here, however the round-trip tests fare. *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let wire_bytes write v =
  let path = Filename.temp_file "popan" ".frame" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      write oc v;
      close_out oc;
      read_file path)

let golden_box = Box.make ~xmin:0.1 ~ymin:0.25 ~xmax:0.7 ~ymax:(1.0 /. 3.0)

let golden_frames () =
  let p x y = Point.make x y in
  let request r = wire_bytes Wire.write_request r in
  let response r = wire_bytes Wire.write_response r in
  [
    ( "batch request",
      request
        (Wire.Batch
           [|
             Wire.Range golden_box;
             Wire.Count Box.unit;
             Wire.Knn (7, p 0.1 0.2);
             Wire.Nearest (p 0.3 0.9);
             Wire.Cell (p 0.5 (2.0 /. 3.0));
           |]),
      "8283fd271d533dce0a457d9e61ee0bc7" );
    ("stats request", request Wire.Stats, "d165c2eb5002e12ee578947e92261d8c");
    ("quit request", request Wire.Quit, "8a8a941d83a8d1f3691e8b9e4073be22");
    ( "answers response",
      response
        (Wire.Answers
           {
             epoch = 5;
             answers =
               [|
                 Wire.Points [| p 0.1 0.2; p 0.75 (1.0 /. 7.0); p 0.0 0.999 |];
                 Wire.Points [||];
                 Wire.Count_of 12_345;
                 Wire.Count_of max_int;
                 Wire.Cell_info (3, golden_box, [| p 0.125 0.3 |]);
                 Wire.Rejected "k must be positive";
               |];
           }),
      "b3d642cb3e15ff91f792bd72e64046b8" );
    ( "stats response",
      response
        (Wire.Stats_info
           { epoch = 2; size = 65_536; batches = 17; live_epochs = 2 }),
      "825e66dd61eaf7ee0c0fd83c98e3cab6" );
    ( "refused response",
      response (Wire.Refused "truncated frame"),
      "b5a0b72addc145b96f63d2a7b8482c39" );
    ("bye response", response Wire.Bye, "c12d83366c0bfebc6b28499d0f9a409f");
    ( "telemetry response",
      response (Wire.Telemetry_info (sample_telemetry ())),
      "f69af1dc0bb8ff9e4ff78620b2891fbd" );
  ]

let golden_tests =
  [
    Alcotest.test_case "golden frame bytes are unchanged" `Quick (fun () ->
        List.iter
          (fun (what, bytes, digest) ->
            Alcotest.(check string)
              what digest
              (Digest.to_hex (Digest.string bytes)))
          (golden_frames ()));
  ]

(* Hostile input. A conversation is fed from a file and answered into
   another, so a test sees exactly the bytes a socket client would. *)

(* Every response frame in [bytes], in order. A frame that does not
   read back fails the test: the server only ever writes typed
   responses. *)
let responses_of_bytes path bytes =
  write_file path bytes;
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop acc =
        match Wire.read_response ic with
        | None -> List.rev acc
        | Some (Ok r) -> loop (r :: acc)
        | Some (Error e) -> Alcotest.failf "unreadable response frame: %s" e
      in
      loop [])

(* One conversation over [input]: whether it ended on [Quit], the
   responses written, and its wall time in seconds. *)
let converse ~scratch t input =
  let inp = scratch ^ ".in" and out = scratch ^ ".out" in
  write_file inp input;
  let ic = open_in_bin inp and oc = open_out_bin out in
  let t0 = Unix.gettimeofday () in
  let quit =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        close_out oc)
      (fun () -> Server.serve_channels t ic oc)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  (quit, responses_of_bytes inp (read_file out), seconds)

let with_scratch f =
  let scratch = Filename.temp_file "popan" ".conv" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ scratch; scratch ^ ".in"; scratch ^ ".out" ])
    (fun () -> f scratch)

let with_static_server f =
  let t =
    Server.create
      {
        Server.default_config with
        base_points = 300;
        churn_ops = 0;
        jobs = Some 1;
      }
  in
  Fun.protect ~finally:(fun () -> Server.shutdown t) (fun () -> f t)

(* The hostile oversize batch: 300 whole-square ranges on 2^16 points,
   300 MiB of answers against the 64 MiB frame limit. *)
let oversize_points = 1 lsl 16
let oversize_batch = Wire.Batch (Array.make 300 (Wire.Range Box.unit))
let oversize_answer = 1 + Sink.uvarint_length oversize_points + (16 * oversize_points)

let oversize_reason =
  Printf.sprintf "response of more than %d bytes exceeds frame limit"
    Wire.max_frame

let oversize_server ~jobs =
  Server.create
    {
      Server.default_config with
      base_points = oversize_points;
      churn_ops = 0;
      jobs = Some jobs;
    }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The wire fuzzer. Mutations apply to a request's payload, which is
   then framed again with a correct header, length and checksum, so the
   payload decoder itself is reached instead of the checksum refusing
   the frame; a second family lies in the 4-byte length prefix. *)

let uvarint n =
  let b = Buffer.create 10 in
  let n = ref n in
  while !n lsr 7 <> 0 do
    Buffer.add_char b (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.chr !n);
  Buffer.contents b

let be32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let with_prefix frame = be32 (String.length frame) ^ frame

let frame_key =
  lazy
    (let raw = wire_bytes Wire.write_request Wire.Stats in
     match Codec.probe (String.sub raw 4 (String.length raw - 4)) with
     | Ok (_, _, key) -> key
     | Error e -> Alcotest.fail (Codec.error_to_string e))

let reframe payload =
  let field s = uvarint (String.length s) ^ s in
  let body =
    String.concat ""
      [
        "PSTO";
        uvarint 1;
        field Wire.request_kind;
        uvarint Wire.version;
        field (Lazy.force frame_key);
        field payload;
      ]
  in
  let sum = Bytes.create 8 in
  Bytes.set_int64_le sum 0 (Codec.fnv1a64 body);
  with_prefix (body ^ Bytes.to_string sum)

let fuzz_batch =
  [|
    Wire.Range golden_box;
    Wire.Count Box.unit;
    Wire.Knn (5, Point.make 0.1 0.2);
    Wire.Nearest (Point.make 0.3 0.9);
    Wire.Cell (Point.make 0.5 0.25);
    Wire.Knn (0, Point.make 0.7 0.7);
  |]

let splice s i len repl =
  String.sub s 0 i ^ repl ^ String.sub s (i + len) (String.length s - i - len)

let set_byte s i c = splice s i 1 (String.make 1 (Char.chr c))

(* Two families of wire inputs: every one of the first is malformed
   and must be answered [Refused]; the second may or may not decode. *)
let fuzz_cases () =
  let rng = Xoshiro.of_int_seed 0xf022 in
  let batch = Codec.encode Wire.request (Wire.Batch fuzz_batch) in
  let simple =
    List.map (Codec.encode Wire.request)
      [ Wire.Stats; Wire.Telemetry; Wire.Quit ]
  in
  let payloads = batch :: simple in
  (* Byte offsets of the query tags: the request tag, the count, then
     each query's encoding in turn. *)
  let query_tags =
    let off = ref (1 + String.length (uvarint (Array.length fuzz_batch))) in
    Array.to_list
      (Array.map
         (fun q ->
           let at = !off in
           off := at + String.length (Codec.encode Wire.query q);
           at)
         fuzz_batch)
  in
  let knn_k = List.nth query_tags 2 + 1 in
  let malformed =
    List.concat
      [
        (* truncation at every length *)
        List.concat_map
          (fun p -> List.init (String.length p) (fun len -> String.sub p 0 len))
          payloads;
        (* unknown request tags *)
        List.init 252 (fun t -> set_byte batch 0 (t + 4));
        (* unknown query tags, at every query *)
        List.concat_map
          (fun at -> List.init 251 (fun t -> set_byte batch at (t + 5)))
          query_tags;
        (* over-long varints: ten continuation bytes, as the batch
           count and as a k-NN's k *)
        [
          splice batch 1 1 (String.make 10 '\xff' ^ "\x01");
          splice batch knn_k 1 (String.make 10 '\xff' ^ "\x01");
        ];
        (* lying counts: more queries than the payload holds *)
        List.map
          (fun n -> splice batch 1 1 (uvarint n))
          [ 7; 100; 1 lsl 20; max_int ];
        (* trailing bytes after a whole request *)
        List.map (fun p -> p ^ "\x00") payloads;
      ]
  in
  let maybe =
    List.concat
      [
        (* every single-bit flip of the batch *)
        List.concat_map
          (fun i ->
            List.init 8 (fun bit ->
                set_byte batch i (Char.code batch.[i] lxor (1 lsl bit))))
          (List.init (String.length batch) Fun.id);
        (* fewer queries than the payload holds *)
        List.map (fun n -> splice batch 1 1 (uvarint n)) [ 0; 1; 5 ];
        (* huge and negative k, as well-formed varints *)
        List.map
          (fun k -> splice batch knn_k 1 (Codec.encode Codec.int k))
          [ max_int; min_int; -1; 1 lsl 40 ];
        (* random garbage *)
        List.init 200 (fun _ ->
            String.init (Xoshiro.int rng 64) (fun _ ->
                Char.chr (Xoshiro.int rng 256)));
      ]
  in
  let valid = reframe batch in
  let frame = String.sub valid 4 (String.length valid - 4) in
  let n = String.length frame in
  let lying_prefixes =
    List.map
      (fun len -> be32 len ^ frame)
      [ 0; 1; n - 1; n + 1; n + 100; Wire.max_frame + 1; 0xffff_ffff ]
    @ [ valid ^ "\x00\x00"; String.sub valid 0 3 ]
  in
  ( List.map reframe malformed @ lying_prefixes,
    List.map reframe maybe )

let hostile_tests =
  [
    Alcotest.test_case "non-finite points are refused at decode" `Quick
      (fun () ->
        List.iter
          (fun (x, y) ->
            check_bool "refused" true
              (let raw = Codec.encode Codec.point { Point.x; y } in
               match Codec.decode Codec.point raw with
               | _ -> false
               | exception Failure _ -> true))
          [ (nan, 0.5); (0.5, nan); (infinity, 0.0); (0.0, neg_infinity) ];
        with_telemetry (fun () ->
            with_static_server (fun t ->
                with_scratch (fun scratch ->
                    let malformed = Metrics.counter "serve.malformed.frames" in
                    List.iteri
                      (fun i q ->
                        match
                          converse ~scratch t
                            (wire_bytes Wire.write_request
                               (Wire.Batch [| Wire.Count Box.unit; q |]))
                        with
                        | false, [ Wire.Refused reason ], _ ->
                          check_bool ("reason names the point: " ^ reason) true
                            (contains reason "non-finite point");
                          check_int "counted" (i + 1)
                            (Metrics.counter_value malformed)
                        | _ -> Alcotest.fail "non-finite query was not refused")
                      [
                        Wire.Nearest (Point.make nan 0.5);
                        Wire.Knn (3, Point.make infinity 0.0);
                        Wire.Cell (Point.make nan nan);
                      ]))));
    Alcotest.test_case "oversize response is refused before writing" `Quick
      (fun () ->
        with_telemetry (fun () ->
            with_scratch (fun scratch ->
                let oversize = Metrics.counter "serve.oversize.responses" in
                let huge =
                  Wire.Answers
                    {
                      epoch = 0;
                      answers =
                        [| Wire.Rejected (String.make Wire.max_frame 'x') |];
                    }
                in
                let bytes = wire_bytes Wire.write_response huge in
                check_int "counted" 1 (Metrics.counter_value oversize);
                check_bool "small frame written" true
                  (String.length bytes < 1024);
                match responses_of_bytes scratch bytes with
                | [ Wire.Refused reason ] ->
                  let n =
                    Scanf.sscanf reason
                      "response of %d bytes exceeds frame limit" Fun.id
                  in
                  check_bool "the refused length is over the limit" true
                    (n > Wire.max_frame)
                | _ -> Alcotest.fail "expected one Refused response")));
    Alcotest.test_case "an oversize batch stops early in bounded memory" `Quick
      (fun () ->
        (* 300 whole-square ranges on 2^16 points would answer 300 MiB.
           The sinks' shared tally stops the batch once the frame limit
           is passed: what they hold stays within the limit plus one
           answer in progress per domain, and the refusal is typed. The
           refused batch's storage is given back, and the server then
           answers the next batch as usual. *)
        with_telemetry (fun () ->
            with_scratch (fun scratch ->
                let jobs = 2 in
                let t = oversize_server ~jobs in
                Fun.protect
                  ~finally:(fun () -> Server.shutdown t)
                  (fun () ->
                    let ask req =
                      match
                        converse ~scratch t (wire_bytes Wire.write_request req)
                      with
                      | false, [ r ], _ -> r
                      | _ -> Alcotest.fail "expected one response"
                    in
                    (match ask oversize_batch with
                    | Wire.Refused reason ->
                      Alcotest.(check string)
                        "the refusal" oversize_reason reason
                    | _ -> Alcotest.fail "the oversize batch was not refused");
                    check_int "counted" 1
                      (Metrics.counter_value
                         (Metrics.counter "serve.oversize.responses"));
                    let held = Server.held_bytes t in
                    if held > Wire.max_frame + (jobs * oversize_answer) then
                      Alcotest.failf
                        "the stopped batch held %d bytes, past the %d-byte \
                         limit plus one %d-byte answer per domain"
                        held Wire.max_frame oversize_answer;
                    let kept = Server.retained_bytes t in
                    if kept > 1 lsl 20 then
                      Alcotest.failf
                        "the sinks kept %d bytes after refusing the batch" kept;
                    match ask (Wire.Batch [| Wire.Count Box.unit |]) with
                    | Wire.Answers { answers = [| Wire.Count_of c |]; _ } ->
                      check_int "the next batch is answered" oversize_points c
                    | _ -> Alcotest.fail "no answer after the refusal"))));
    Alcotest.test_case "an oversize refusal is the same at jobs 1, 2 and 4"
      `Quick (fun () ->
        (* Which answers finish before the batch stops depends on the
           schedule; the response and the per-kernel counters must
           not. *)
        let request = wire_bytes Wire.write_request oversize_batch in
        let run jobs =
          with_telemetry (fun () ->
              with_scratch (fun scratch ->
                  let t = oversize_server ~jobs in
                  Fun.protect
                    ~finally:(fun () -> Server.shutdown t)
                    (fun () ->
                      let _, responses, _ = converse ~scratch t request in
                      check_bool
                        (Printf.sprintf "a refusal at jobs %d" jobs)
                        true
                        (responses = [ Wire.Refused oversize_reason ]);
                      ( read_file (scratch ^ ".out"),
                        Metrics.counter_value
                          (Metrics.counter "serve.queries.range") ))))
        in
        let bytes, ranges = run 1 in
        check_int "every query counted at jobs 1" 300 ranges;
        List.iter
          (fun jobs ->
            let bytes', ranges' = run jobs in
            check_bool
              (Printf.sprintf "refusal bytes at jobs %d = jobs 1" jobs)
              true (bytes' = bytes);
            check_int
              (Printf.sprintf "every query counted at jobs %d" jobs)
              300 ranges')
          [ 2; 4 ]);
    Alcotest.test_case "a large batch's sink storage is given back" `Quick
      (fun () ->
        (* 512 ranges of a sixteenth of the square each answer about
           4096 points: 32 MiB of answers, legal. The sinks grow to
           hold them; the next, one-count batch needs under a quarter
           of that, so they give it back. *)
        with_scratch (fun scratch ->
            let t = oversize_server ~jobs:2 in
            Fun.protect
              ~finally:(fun () -> Server.shutdown t)
              (fun () ->
                let ask req =
                  match
                    converse ~scratch t (wire_bytes Wire.write_request req)
                  with
                  | false, [ r ], _ -> r
                  | _ -> Alcotest.fail "expected one response"
                in
                let quarter =
                  Box.make ~xmin:0.25 ~ymin:0.25 ~xmax:0.5 ~ymax:0.5
                in
                (match ask (Wire.Batch (Array.make 512 (Wire.Range quarter))) with
                | Wire.Answers { answers; _ } ->
                  check_int "all answered" 512 (Array.length answers)
                | _ -> Alcotest.fail "the large batch was not answered");
                let large = Server.held_bytes t in
                if large < 1 lsl 24 then
                  Alcotest.failf "the large batch held only %d bytes" large;
                if Server.retained_bytes t < large then
                  Alcotest.fail "the sinks did not grow to the large batch";
                (match ask (Wire.Batch [| Wire.Count Box.unit |]) with
                | Wire.Answers { answers = [| Wire.Count_of _ |]; _ } -> ()
                | _ -> Alcotest.fail "the small batch was not answered");
                let held = Server.held_bytes t
                and kept = Server.retained_bytes t in
                if held > 64 then
                  Alcotest.failf "the small batch held %d bytes" held;
                if kept > 1 lsl 20 then
                  Alcotest.failf
                    "after a %d-byte batch and a %d-byte one, the sinks \
                     kept %d bytes"
                    large held kept)));
    Alcotest.test_case "fuzzed frames get a typed response or a clean close"
      `Quick (fun () ->
        check_bool "reframe reproduces the wire's bytes" true
          (reframe (Codec.encode Wire.request (Wire.Batch fuzz_batch))
          = wire_bytes Wire.write_request (Wire.Batch fuzz_batch));
        let malformed, maybe = fuzz_cases () in
        with_static_server (fun t ->
            with_scratch (fun scratch ->
                let run ~must_refuse input =
                  match converse ~scratch t input with
                  | exception e ->
                    Alcotest.failf "server raised %s on a fuzzed frame"
                      (Printexc.to_string e)
                  | quit, responses, seconds ->
                    if seconds > 2.0 then
                      Alcotest.failf "a fuzzed frame took %.1f s" seconds;
                    (match List.rev responses with
                    | Wire.Bye :: _ -> check_bool "bye ends on quit" true quit
                    | _ -> ());
                    if must_refuse then
                      match List.rev responses with
                      | Wire.Refused _ :: _ -> ()
                      | _ -> Alcotest.fail "malformed frame was not refused"
                in
                List.iter (run ~must_refuse:true) malformed;
                List.iter (run ~must_refuse:false) maybe)));
    Alcotest.test_case "a client that hangs up unread costs only its conversation"
      `Quick (fun () ->
        (* As [popan serve] does: a reply written to a departed client
           must fail with EPIPE, not kill the process. *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        with_telemetry (fun () ->
            let path = Filename.temp_file "popan" ".sock" in
            Sys.remove path;
            let n = 50_000 in
            let server =
              Domain.spawn (fun () ->
                  Server.run ~socket:path
                    {
                      Server.default_config with
                      base_points = n;
                      churn_ops = 0;
                      jobs = Some 1;
                    })
            in
            let connect () =
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              let rec go tries =
                match Unix.connect fd (Unix.ADDR_UNIX path) with
                | () -> fd
                | exception
                    Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
                  when tries > 0 ->
                  Unix.sleepf 0.05;
                  go (tries - 1)
              in
              go 200
            in
            (* The whole square's points make a reply of about 800 KB,
               more than the socket buffers hold: whether the client is
               gone before the write starts or leaves while it blocks,
               the server's write meets a closed peer. *)
            let oc = Unix.out_channel_of_descr (connect ()) in
            Wire.write_request oc (Wire.Batch [| Wire.Range Box.unit |]);
            close_out oc;
            let fd = connect () in
            let ic = Unix.in_channel_of_descr fd
            and oc = Unix.out_channel_of_descr fd in
            let ask req =
              Wire.write_request oc req;
              flush oc;
              Wire.read_response ic
            in
            (match ask Wire.Stats with
            | Some (Ok (Wire.Stats_info { size; _ })) ->
              check_int "the next client is served" n size
            | _ -> Alcotest.fail "no Stats reply after a client hung up");
            (match ask Wire.Quit with
            | Some (Ok Wire.Bye) -> ()
            | _ -> Alcotest.fail "no Bye reply to Quit");
            close_out oc;
            Domain.join server;
            check_int "counted in serve.disconnects" 1
              (Metrics.counter_value (Metrics.counter "serve.disconnects"))));
  ]

(* The streamed producer against the codec. [Server.stream_batch]
   writes an [Answers] frame from the kernels' bytes; it must be byte
   for byte the frame the codec builds from [Server.run_batch]'s
   decoded answers, at jobs 1, 2 and 4 and at any chunk size. The arena
   holds duplicate-heavy depth-42 leaves beside a uniform population,
   and the batches mix every answer shape: empty and full [Points],
   [Count_of], [Cell_info] (depth-42 leaves included) and [Rejected]
   (k < 0, a cell outside the square). The decoded answers must also
   be the values the list-returning kernels give. *)

let hot = [ (0.3, 0.3); (0.71, 0.2); (0.5, 0.5) ]

let stream_arena =
  lazy
    (let dups =
       List.concat_map
         (fun (x, y) -> List.init 40 (fun _ -> Point.make x y))
         hot
     in
     let near =
       [
         Point.make 0.3 (0.3 +. ldexp 1.0 (-41));
         Point.make (0.71 +. ldexp 1.0 (-40)) 0.2;
       ]
     in
     Pr_arena.of_points ~max_depth:42 ~capacity:2
       (uniform_points 0x5717 3_000 @ dups @ near))

let gen_hot =
  QCheck2.Gen.(
    oneof
      [ map (fun (x, y) -> Point.make x y) (oneofl hot); gen_point ])

let gen_stream_query =
  QCheck2.Gen.(
    let* tag = int_range 0 9 in
    match tag with
    | 0 -> map (fun b -> Wire.Range b) gen_box
    | 1 -> map (fun b -> Wire.Count b) gen_box
    | 2 ->
      let* k = int_range 0 60 in
      map (fun p -> Wire.Knn (k, p)) gen_hot
    | 3 -> map (fun p -> Wire.Nearest p) gen_point
    | 4 -> map (fun p -> Wire.Cell p) gen_hot
    | 5 ->
      let* k = int_range (-3) (-1) in
      map (fun p -> Wire.Knn (k, p)) gen_point
    | 6 -> return (Wire.Cell (Point.make 1.5 0.5))
    | 7 ->
      (* a small box on a duplicate cluster, or an empty sliver beside
         one *)
      let* x, y = oneofl hot in
      let* off, w = oneofl [ (1e-12, 1e-12); (0.0, 1e-9); (0.0, 0.01) ] in
      return
        (Wire.Range
           (Box.make ~xmin:(x +. off) ~ymin:(y +. off) ~xmax:(x +. off +. w)
              ~ymax:(y +. off +. w)))
    | 8 -> map (fun p -> Wire.Knn (0, p)) gen_point
    | _ -> map (fun b -> Wire.Count b) gen_box)

(* The answer values the list-returning kernels give, assembled as the
   server once did: the oracle for what the streamed bytes say. *)
let listed_answer arena = function
  | Wire.Range b -> Wire.Points (Array.of_list (Pr_arena.query_box arena b))
  | Wire.Count b -> Wire.Count_of (Pr_arena.count_in_box arena b)
  | Wire.Knn (k, p) -> (
    match Pr_arena.k_nearest arena k p with
    | ps -> Wire.Points (Array.of_list ps)
    | exception Invalid_argument m -> Wire.Rejected m)
  | Wire.Nearest p ->
    Wire.Points
      (match Pr_arena.nearest arena p with None -> [||] | Some q -> [| q |])
  | Wire.Cell p -> (
    match Pr_arena.cell_at arena p with
    | d, b, ps -> Wire.Cell_info (d, b, Array.of_list ps)
    | exception Invalid_argument m -> Wire.Rejected m)

let stream_tests =
  [
    Alcotest.test_case "streamed frame equals the framed run_batch answers"
      `Quick (fun () ->
        let arena = Lazy.force stream_arena in
        let key = Lazy.force frame_key in
        let epoch = 7 in
        Parallel.Pool.with_pool ~jobs:2 (fun p2 ->
            Parallel.Pool.with_pool ~jobs:4 (fun p4 ->
                Parallel.Pool.with_pool ~jobs:1 (fun p1 ->
                    let law (qs, chunk) =
                      let streamed pool =
                        wire_bytes
                          (fun oc qs ->
                            Server.stream_batch ~chunk ~epoch pool arena qs oc)
                          qs
                      in
                      let framed pool =
                        with_prefix
                          (Codec.to_artifact ~kind:Wire.response_kind
                             ~version:Wire.version ~key Wire.response
                             (Wire.Answers
                                {
                                  epoch;
                                  answers =
                                    Server.run_batch ~chunk ~epoch pool arena qs;
                                }))
                      in
                      let s1 = streamed p1 in
                      answers_bytes (Server.run_batch ~chunk p1 arena qs)
                      = answers_bytes (Array.map (listed_answer arena) qs)
                      && List.for_all
                           (fun pool -> streamed pool = s1 && framed pool = s1)
                           [ p1; p2; p4 ]
                    in
                    QCheck2.Test.check_exn
                      (QCheck2.Test.make ~count:40
                         ~name:"streamed = framed run_batch"
                         QCheck2.Gen.(
                           pair
                             (array_size (int_range 0 600) gen_stream_query)
                             (int_range 1 300))
                         law)))));
  ]

let () =
  Alcotest.run "popan-serve"
    [
      ("neighbors", neighbors_tests);
      ("kernels", kernel_tests);
      ("pruning", pruning_tests);
      ("snapshot", snapshot_tests);
      ("epochs", epoch_tests);
      ("wire", wire_tests);
      ("batch", batch_tests @ stream_tests);
      ("server", server_tests);
      ("leftright", left_right_tests);
      ("telemetry", telemetry_tests);
      ("hostile", hostile_tests);
      ("golden", golden_tests);
    ]
