open Import

(* Per-domain cost scratch for the telemetry path, wrapped in its option
   once so that passing it as [?cost] allocates nothing per query. *)
let cost_scratch = Domain.DLS.new_key (fun () -> Some (Pr_arena.cost ()))

let kernel_of : Wire.query -> _ = function
  | Wire.Range _ -> `Range
  | Wire.Count _ -> `Count
  | Wire.Knn _ -> `Knn
  | Wire.Nearest _ -> `Nearest
  | Wire.Cell _ -> `Cell

(* Answer one query into chunk [c] — the single dispatch the pool's
   tasks run and the oracle the tests replay, so "batched equals
   sequential" is equality of schedules, not of two implementations.
   The kernels write the answer's points straight into the chunk's body
   sink; the answer's head (tag, count, cell, message) follows once the
   kernel returns. The kernels are the same with telemetry on or off;
   on, they report their cost into the domain's scratch and the query
   is timed into the latency/visited sketches and the flight recorder
   through [serve_query_done], which takes only immediates — no
   closure, no boxing, no allocation per answer point. A batch past its
   byte cap skips the query, counting it all the same, so the per-kernel
   counters do not depend on which answers finished first; a walk that
   would take it past the cap stops at the first point over
   ([Sink.Full]). *)
let dispatch ~telemetry ~epoch arena c (q : Wire.query) =
  if Wire.open_answer c then begin
    let t0 = if telemetry then Clock.now_ns () else 0 in
    let cost = if telemetry then Domain.DLS.get cost_scratch else None in
    let note = ref "" in
    let s = Wire.body c in
    (try
       match q with
       | Wire.Range b ->
         Pr_arena.range_into ?cost arena b s;
         Wire.close_points c
       | Wire.Count b ->
         Wire.close_count c (Pr_arena.count_in_box ?cost arena b)
       | Wire.Knn (k, p) -> (
         match Pr_arena.knn_into ?cost arena k p s with
         | () -> Wire.close_points c
         | exception Invalid_argument m ->
           note := m;
           Wire.close_rejected c m)
       | Wire.Nearest p ->
         Pr_arena.nearest_into ?cost arena p s;
         Wire.close_points c
       | Wire.Cell p -> (
         match Pr_arena.cell_into ?cost arena p s with
         | depth -> Wire.close_cell c depth (Pr_arena.cell_block p depth)
         | exception Invalid_argument m ->
           note := m;
           Wire.close_rejected c m)
     with Sink.Full -> Wire.close_full c);
    let kernel = kernel_of q in
    match cost with
    | None -> Probe.serve_query ~kernel
    | Some k ->
      Probe.serve_pruned_subtrees k.Pr_arena.pruned;
      Probe.serve_query_done ~kernel ~epoch ~t0 ~visited:k.Pr_arena.visited
        ~note:!note
  end
  else Probe.serve_query ~kernel:(kernel_of q)

(* Fan a batch out on the deterministic pool, in arrival order: chunk
   [i] answers queries [i * chunk ..] into [Wire.chunk o i], and chunks
   stream in index order, so the response is byte-identical at every
   job count whichever domain answers which chunk; the chunk keeps
   per-task overhead amortized over thousands of tiny queries.
   Telemetry is one flag check per batch. *)
let fill ?(chunk = 256) ?(epoch = 0) ~cap pool arena queries o =
  if chunk < 1 then invalid_arg "Server.run_batch: chunk < 1";
  let n = Array.length queries in
  let chunks = (n + chunk - 1) / chunk in
  let telemetry = Probe.serve_telemetry_on () in
  Wire.start o ~chunks ~cap;
  Probe.serve_batch ~queries:n ~jobs:(Parallel.Pool.jobs pool) (fun () ->
      Parallel.Pool.iter pool chunks ~f:(fun i ->
          let c = Wire.chunk o i in
          for j = i * chunk to min n ((i + 1) * chunk) - 1 do
            dispatch ~telemetry ~epoch arena c queries.(j)
          done))

(* One reusable answer buffer per domain for [eval]. *)
let eval_out = Domain.DLS.new_key Wire.out

let eval arena q =
  let o = Domain.DLS.get eval_out in
  Wire.start o ~chunks:1 ~cap:max_int;
  dispatch ~telemetry:(Probe.serve_telemetry_on ()) ~epoch:0 arena
    (Wire.chunk o 0) q;
  (Wire.decode_answers o).(0)

let run_batch ?chunk ?epoch pool arena queries =
  let o = Wire.out () in
  fill ?chunk ?epoch ~cap:max_int pool arena queries o;
  Wire.decode_answers o

let stream_batch ?chunk ?(epoch = 0) pool arena queries oc =
  let o = Wire.out () in
  fill ?chunk ~epoch ~cap:Wire.max_frame pool arena queries o;
  Wire.write_answers oc ~epoch o

type config = {
  jobs : int option;  (** pool width; [None] = the session default *)
  capacity : int;  (** leaf capacity of the served tree *)
  base_points : int;  (** initial population *)
  seed : int;  (** master seed: population and churn stream *)
  churn_ops : int;  (** writer ops applied concurrently per batch; 0 = static *)
  insert_fraction : float;
  update_fraction : float;
  drift_sigma : float;
  mmap_dir : string option;  (** back epoch 0's arena columns with mmap *)
}

let default_config =
  {
    jobs = None;
    capacity = 8;
    base_points = 10_000;
    seed = 1987;
    churn_ops = 256;
    insert_fraction = 0.5;
    update_fraction = 1.0 /. 3.0;
    drift_sigma = 0.01;
    mmap_dir = None;
  }

type t = {
  config : config;
  pool : Parallel.Pool.t;
  owns_pool : bool;
  epochs : Epoch.t;
  churn : (Workload.Churn.spec * Workload.Churn.state) option;
  mutable slice : Workload.Churn.event array;
      (** the churn ops that took the standby's epoch to the current one;
          only the writer touches it *)
  mutable batches : int;
  mutable epoch_batches : int;  (** batches answered from the current epoch *)
  out : Wire.out;  (** the answer sinks, reused by every batch *)
  mutable held : int;  (** bytes the sinks held after the last batch *)
}

let create ?pool config =
  if config.base_points < 0 then invalid_arg "Server.create: base_points < 0";
  if config.churn_ops < 0 then invalid_arg "Server.create: churn_ops < 0";
  let spec =
    Workload.Churn.make ~points:(max 1 config.base_points) ~trials:1
      ~seed:config.seed
      ~ops:(max 1 config.churn_ops)
      ~insert_fraction:config.insert_fraction
      ~update_fraction:config.update_fraction ~drift_sigma:config.drift_sigma
      ()
  in
  let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ rng -> rng)) in
  let state = Workload.Churn.start spec ~rng in
  let base =
    if config.base_points = 0 then []
    else Array.to_list (Workload.Churn.live state)
  in
  let backing =
    Option.map (fun dir -> Pr_arena.Mmap { dir }) config.mmap_dir
  in
  let arena = Pr_arena.of_points_bulk ?backing ~capacity:config.capacity base in
  let pool, owns_pool =
    match pool with
    | Some p -> (p, false)
    | None -> (Parallel.Pool.create ?jobs:config.jobs (), true)
  in
  {
    config;
    pool;
    owns_pool;
    epochs = Epoch.create arena;
    churn = (if config.churn_ops > 0 then Some (spec, state) else None);
    slice = [||];
    batches = 0;
    epoch_batches = 0;
    out = Wire.out ();
    held = 0;
  }

let epochs t = t.epochs
let pool t = t.pool
let batches t = t.batches
let held_bytes t = t.held
let retained_bytes t = Wire.capacity t.out

let apply arena = function
  | Workload.Churn.Insert p -> Pr_arena.insert arena p
  | Workload.Churn.Delete p -> ignore (Pr_arena.delete arena p : bool)
  | Workload.Churn.Update (p, q) -> ignore (Pr_arena.update arena p q : bool)

(* Bring the standby two epochs forward: it holds the epoch before the
   current one, so replay the slice that produced the current epoch,
   then draw and apply the next slice of the churn stream. Both arenas
   started as one arena and its snapshot, and insert/delete/update are
   deterministic down to slot and node-block reuse, so the standby ends
   up exactly the arena a copy-per-batch writer would have published. *)
let advance t spec state standby =
  Array.iter (apply standby) t.slice;
  t.slice <-
    Array.init t.config.churn_ops (fun _ ->
        let op = Workload.Churn.step spec state in
        apply standby op;
        op)

(* Answer one batch from the pinned current epoch while the churn writer
   advances the standby on its own domain, then swap the two. The
   overlap is real, but the two arenas share nothing, so answers are
   torn-free and depend only on the epoch's contents; and the churn
   stream is deterministic, so the next published epoch is too.
   Responses are therefore byte-identical at every job count. The
   writer domain is spawned per batch: a long-lived idle one would
   still have to join every stop-the-world minor collection. *)
let answer_batch t ~cap queries =
  let e = Epoch.pin t.epochs in
  let writer =
    Option.map
      (fun (spec, state) ->
        Domain.spawn (fun () -> Epoch.write t.epochs (advance t spec state)))
      t.churn
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Domain.join writer;
      (* Publish after the writer lands: each batch serves epoch [n]
         and leaves epoch [n+1] installed for the next one. *)
      (match writer with
      | Some _ ->
        ignore (Epoch.publish t.epochs : Epoch.epoch);
        t.epoch_batches <- 0
      | None ->
        t.epoch_batches <- t.epoch_batches + 1;
        Probe.serve_epoch_batch ~age:t.epoch_batches);
      Epoch.unpin t.epochs e)
    (fun () ->
      fill ~epoch:(Epoch.id e) ~cap t.pool (Epoch.arena e) queries t.out);
  t.batches <- t.batches + 1;
  t.held <- Wire.held t.out;
  Epoch.id e

let run_queries t queries =
  let epoch = answer_batch t ~cap:max_int queries in
  (epoch, Wire.decode_answers t.out)

(* Deterministic mixed self-batches (the serve smoke's query mix,
   seeded from the config), so a freshly started server has telemetry
   to show before — or without — a client driving load. *)
let warm t ~batches ~queries:qn =
  let rng = Xoshiro.of_int_seed (t.config.seed lxor 0x77a7) in
  for _ = 1 to batches do
    let qs =
      Array.init qn (fun i ->
          let p = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
          match i mod 5 with
          | 0 ->
            let w = 0.005 +. (0.05 *. Xoshiro.float rng) in
            let x = (1.0 -. w) *. Xoshiro.float rng in
            let y = (1.0 -. w) *. Xoshiro.float rng in
            Wire.Range (Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w))
          | 1 ->
            Wire.Count
              (Box.make ~xmin:0.0 ~ymin:0.0
                 ~xmax:(Float.max 0.01 p.Point.x)
                 ~ymax:(Float.max 0.01 p.Point.y))
          | 2 -> Wire.Knn (1 + (i mod 16), p)
          | 3 -> Wire.Nearest p
          | _ -> Wire.Cell p)
    in
    ignore (answer_batch t ~cap:max_int qs : int)
  done

let current_size t = Pr_arena.size (Epoch.arena (Epoch.current t.epochs))

type control = Stats | Telemetry | Quit

let handle t = function
  | Stats ->
    ( Wire.Stats_info
        {
          epoch = Epoch.current_id t.epochs;
          size = current_size t;
          batches = t.batches;
          live_epochs = Epoch.live_count t.epochs;
        },
      true )
  | Telemetry ->
    ( Wire.Telemetry_info
        {
          epoch = Epoch.current_id t.epochs;
          size = current_size t;
          batches = t.batches;
          live_epochs = Epoch.live_count t.epochs;
          metrics_json = Metrics.to_json ();
          prometheus = Metrics.to_prometheus ();
          sketches = Metrics.sketch_snapshots ~prefix:"serve." ();
          events = Event.recent ();
          flight = Flight.recent ();
        },
      true )
  | Quit -> (Wire.Bye, false)

let shutdown t =
  Probe.serve_shutdown ~batches:t.batches ~epoch:(Epoch.current_id t.epochs);
  Epoch.shutdown t.epochs;
  if t.owns_pool then Parallel.Pool.shutdown t.pool;
  (* The at-exit flushes only cover experiment commands; a server must
     leave its admission counters in the store's stats log itself. *)
  Option.iter Store.flush_counters (Store.default ())

(* Drive one client conversation to its end. Returns [true] when the
   client asked the server to quit ([Wire.Quit]), [false] when the
   conversation merely ended — EOF, a malformed frame, or a client gone
   mid-conversation — and the server should keep accepting. *)
let serve_channels t ic oc =
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  (* Set as soon as [Quit] is read, so the server stops even when the
     client is gone before its [Bye] can be written. *)
  let quit = ref false in
  let rec loop () =
    match Wire.read_request ic with
    | None -> ()
    | Some (Error reason) ->
      (* A bad frame leaves the stream position undefined: refuse the
         request and stop reading rather than resynchronize by
         guesswork. *)
      Probe.serve_malformed ~reason;
      Wire.write_response oc (Wire.Refused reason)
    | Some (Ok (Wire.Batch queries)) ->
      let epoch = answer_batch t ~cap:Wire.max_frame queries in
      Wire.write_answers oc ~epoch t.out;
      loop ()
    | Some (Ok Wire.Stats) -> reply Stats
    | Some (Ok Wire.Telemetry) -> reply Telemetry
    | Some (Ok Wire.Quit) -> reply Quit
  and reply req =
    let resp, continue = handle t req in
    quit := not continue;
    Wire.write_response oc resp;
    if continue then loop ()
  in
  (* A client that hangs up before reading its reply makes the write
     fail with EPIPE (SIGPIPE is ignored by the serve command), and one
     that resets the connection makes the next read fail: either ends
     this conversation only. *)
  (try loop () with Sys_error reason -> Probe.serve_disconnect ~reason);
  !quit

(* Accept clients one after another on the same socket until one of
   them sends [Quit]. Conversations are strictly sequential — the next
   accept happens only after the previous client's fd is closed — so
   the epoch/churn cadence any single client observes is the same as it
   was under the one-shot accept, just resumable by a later client. *)
let serve_socket t path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let quit =
          Fun.protect
            (* Closing the channel flushes what it still can and closes
               [fd]. A departed client's unwritten reply is discarded
               with it, never left for the at-exit flush to write into
               a descriptor a later accept has reused. *)
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> serve_channels t ic oc)
        in
        if not quit then accept_loop ()
      in
      accept_loop ())

let run ?pool ?socket ?(warm_batches = 0) config =
  let t = create ?pool config in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      if warm_batches > 0 then warm t ~batches:warm_batches ~queries:1024;
      match socket with
      | None -> ignore (serve_channels t stdin stdout : bool)
      | Some path -> serve_socket t path)
