(** Short names for the modules used throughout this library. *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Xoshiro = Popan_rng.Xoshiro
module Pr_arena = Popan_trees.Pr_arena
module Pr_quadtree = Popan_trees.Pr_quadtree
module Sink = Popan_trees.Sink
module Parallel = Popan_parallel
module Codec = Popan_store.Codec
module Store = Popan_store.Artifact_store
module Workload = Popan_experiments.Workload
module Probe = Popan_obs.Probe
module Clock = Popan_obs.Clock
module Metrics = Popan_obs.Metrics
module Event = Popan_obs.Event
module Flight = Popan_obs.Flight
module Sketch = Popan_obs.Sketch
