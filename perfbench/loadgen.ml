(* The benchmark's load generator and layer tracer. Three commands, each
   printing one JSON object on stdout:

   [replay] answers a workload's batches in process through the library
   — [Server.run_batch] on the pinned epoch, then an empty
   [Server.run_queries] that applies the churn slice and publishes the
   next epoch, as the server does after each batch — and saves the
   expected response of every batch. With [--trace] it also times each
   server-side phase of a batch and every kernel one query at a time.

   [serve] starts `popan serve` on a Unix socket once per session and
   drives it from this single-threaded process over one connection,
   closed loop: a batch is written only after the previous response has
   been read and decoded. Every answer is checked against the replay.

   [churn-layers] times the churn-experiment layers on the workload's
   population: bulk build, arena writes, the churn stream, the churn
   model and whole trials at one job and at the workload's job count.

   Hygiene the numbers depend on: this process creates no domain pool
   while it drives a server (the replay and the churn layers run as
   separate invocations), each session is a fresh server process, and
   every query is valid with an answer far below the wire's frame
   limit. *)

module Wire = Popan_serve.Wire
module Server = Popan_serve.Server
module Epoch = Popan_serve.Epoch
module Codec = Popan_store.Codec
module Pr_arena = Popan_trees.Pr_arena
module Workload = Popan_experiments.Workload
module Churn = Popan_experiments.Churn
module Churn_model = Popan_core.Churn_model
module Parallel = Popan_parallel
module Clock = Popan_obs.Clock
module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Xoshiro = Popan_rng.Xoshiro

let batch_size = 1024
let ms_since t0 = float_of_int (Clock.now_ns () - t0) /. 1e6

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Query families. Boxes are squares at uniform non-dyadic positions, so
   the kernels cannot answer them from a few aligned cells. *)

type family = Point_like | Range_heavy

let family_of_string = function
  | "point" -> Point_like
  | "range" -> Range_heavy
  | s -> failwith ("unknown query family " ^ s)

let random_point rng =
  let x = Xoshiro.float rng in
  let y = Xoshiro.float rng in
  Point.make x y

let square rng ~min_side ~max_side =
  let w = min_side +. ((max_side -. min_side) *. Xoshiro.float rng) in
  let x = (1.0 -. w) *. Xoshiro.float rng in
  let y = (1.0 -. w) *. Xoshiro.float rng in
  Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w)

let query family rng i : Wire.query =
  match family, i mod 4, i mod 3 with
  | Point_like, 0, _ -> Wire.Knn (1 + Xoshiro.int rng 16, random_point rng)
  | Point_like, 1, _ -> Wire.Nearest (random_point rng)
  | Point_like, 2, _ -> Wire.Cell (random_point rng)
  | Point_like, _, _ -> Wire.Count (square rng ~min_side:0.001 ~max_side:0.011)
  | Range_heavy, _, 0 -> Wire.Range (square rng ~min_side:0.01 ~max_side:0.10)
  | Range_heavy, _, 1 -> Wire.Count (square rng ~min_side:0.05 ~max_side:0.55)
  | Range_heavy, _, _ -> Wire.Knn (32, random_point rng)

(* The query stream has its own generator, apart from the server's
   population and churn streams, which [--seed] also drives. *)
let batches family ~seed ~count =
  let rng = Xoshiro.of_int_seed ((seed * 1_000_003) + 0x5eed) in
  Array.init count (fun _ -> Array.init batch_size (query family rng))

(* Framing. The wire embeds a fixed artifact key in every frame; read it
   back from a frame [Wire] itself wrote, so expected frames are built
   exactly as the server builds them. *)

let frame_key workdir =
  let path = Filename.concat workdir "key.frame" in
  let oc = open_out_bin path in
  Wire.write_request oc Wire.Stats;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Codec.probe (String.sub s 4 (String.length s - 4)) with
  | Ok (_, _, key) -> key
  | Error e -> failwith (Codec.error_to_string e)

let encode_response key r =
  Codec.to_artifact ~kind:Wire.response_kind ~version:Wire.version ~key
    Wire.response r

let decode_response s =
  Codec.of_artifact ~kind:Wire.response_kind ~version:Wire.version
    Wire.response s

let answer_digests answers =
  Array.map (fun a -> Digest.string (Codec.encode Wire.answer a)) answers

(* The expected outcome of one batch, from the in-process replay. *)
type expected = { epoch : int; frame : Digest.t; answers : Digest.t array }

(* The self-test's corruption: one wrong answer in an otherwise valid
   frame. *)
let corrupt_first key epoch answers =
  let a = Array.copy answers in
  a.(0) <-
    (match a.(0) with
    | Wire.Count_of c -> Wire.Count_of (c + 1)
    | Wire.Points ps -> Wire.Points (Array.append ps [| Point.make 0.5 0.5 |])
    | Wire.Cell_info (d, b, ps) -> Wire.Cell_info (d + 1, b, ps)
    | Wire.Rejected m -> Wire.Rejected (m ^ "!"));
  (a, encode_response key (Wire.Answers { epoch; answers = a }))

(* Failed queries of one batch: every query of a refused or undecodable
   response or one from the wrong epoch, else each answer that differs
   from the replay's or is [Rejected] (only valid queries are sent). The
   whole frame is compared first; answers are compared one by one only
   when the bytes differ. *)
let failures key ~corrupt (x : expected) raw = function
  | Ok (Wire.Answers { epoch; answers })
    when epoch = x.epoch && Array.length answers = Array.length x.answers ->
    let answers, raw =
      if corrupt then corrupt_first key epoch answers else (answers, raw)
    in
    let rejected =
      Array.fold_left
        (fun n a -> match a with Wire.Rejected _ -> n + 1 | _ -> n)
        0 answers
    in
    if Digest.string raw = x.frame then rejected
    else begin
      let wrong = ref 0 in
      Array.iteri
        (fun i d -> if d <> x.answers.(i) then incr wrong)
        (answer_digests answers);
      max 1 (max !wrong rejected)
    end
  | _ -> Array.length x.answers

(* Socket sessions *)

type config = {
  popan : string;
  workdir : string;
  family : family;
  points : int;
  churn_ops : int;
  jobs : int;
  seed : int;
  batches : int;  (** per session *)
  seconds : float;
  min_sessions : int;
  trace : bool;
  corrupt : bool;
}

type session = {
  setup_s : float;
  rtt_ms : float list;
  decode_ms : float list;  (** the client's response decode, inside [rtt_ms] *)
  run_s : float;
  vm_hwm_kb : int;
  threads : int;
  attempted : int;
  failed : int;
}

let proc_status pid field =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.starts_with ~prefix line ->
        let v = String.sub line (String.length prefix)
            (String.length line - String.length prefix) in
        Scanf.sscanf v " %d" Fun.id
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let spawn_server cfg ~socket ~log =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [| cfg.popan; "serve"; "--socket"; socket; "-n"; string_of_int cfg.points;
       "--churn-ops"; string_of_int cfg.churn_ops; "-j"; string_of_int cfg.jobs;
       "--seed"; string_of_int cfg.seed |]
  in
  let pid = Unix.create_process cfg.popan args devnull devnull err in
  Unix.close devnull;
  Unix.close err;
  pid

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let reap pid =
  if not (exited pid) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  end

let rec connect ~pid ~socket ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    if exited pid then failwith "popan serve exited before accepting";
    if Unix.gettimeofday () > deadline then
      failwith "popan serve did not accept within the deadline";
    Unix.sleepf 0.002;
    connect ~pid ~socket ~deadline

let read_raw ic =
  let b0 = input_byte ic in
  let b1 = input_byte ic in
  let b2 = input_byte ic in
  let b3 = input_byte ic in
  let n = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3 in
  (* The wire's own frame limit, 64 MiB. *)
  if n > 1 lsl 26 then raise (Sys_error "oversized response frame");
  really_input_string ic n

let run_session cfg key queries expected ~index =
  let socket = Filename.concat cfg.workdir "serve.sock" in
  let log = Filename.concat cfg.workdir (Printf.sprintf "serve-%d.log" index) in
  let t_spawn = Clock.now_ns () in
  let pid = spawn_server cfg ~socket ~log in
  Fun.protect ~finally:(fun () -> reap pid) (fun () ->
      let fd =
        connect ~pid ~socket ~deadline:(Unix.gettimeofday () +. 150.0)
      in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Wire.write_request oc Wire.Stats;
      (match Wire.read_response ic with
      | Some (Ok (Wire.Stats_info _)) -> ()
      | _ -> failwith "popan serve: no Stats reply");
      let setup_s = ms_since t_spawn /. 1000.0 in
      let rtts = ref [] and decodes = ref [] in
      let failed = ref 0 and alive = ref true in
      Array.iteri
        (fun b qs ->
          if not !alive then failed := !failed + Array.length qs
          else begin
            let t0 = Clock.now_ns () in
            match
              Wire.write_request oc (Wire.Batch qs);
              let raw = read_raw ic in
              let t1 = Clock.now_ns () in
              let response = decode_response raw in
              (raw, response, ms_since t0, ms_since t1)
            with
            | raw, response, rtt, decode ->
              rtts := rtt :: !rtts;
              decodes := decode :: !decodes;
              failed :=
                !failed
                + failures key ~corrupt:(cfg.corrupt && b = 0) expected.(b) raw
                    response
            | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
              failed := !failed + Array.length qs;
              alive := false
          end)
        queries;
      let vm_hwm_kb = proc_status pid "VmHWM" in
      let threads = proc_status pid "Threads" in
      if !alive then begin
        Wire.write_request oc Wire.Quit;
        (match Wire.read_response ic with
        | Some (Ok Wire.Bye) -> ()
        | _ -> failwith "popan serve did not acknowledge Quit");
        close_in_noerr ic;
        ignore (Unix.waitpid [] pid : int * Unix.process_status)
      end
      else close_in_noerr ic;
      {
        setup_s;
        rtt_ms = List.rev !rtts;
        decode_ms = List.rev !decodes;
        run_s = ms_since t_spawn /. 1000.0;
        vm_hwm_kb;
        threads;
        attempted = Array.length queries * batch_size;
        failed = !failed;
      })

(* Sessions repeat, each in a fresh server, until [seconds] have passed
   and at least [min_sessions] have run. Every session sends the same
   batches, so one replay checks them all. *)
let run_sessions cfg key queries expected =
  let t0 = Clock.now_ns () in
  let rec loop i acc =
    if i >= cfg.min_sessions && ms_since t0 /. 1000.0 >= cfg.seconds then
      List.rev acc
    else loop (i + 1) (run_session cfg key queries expected ~index:i :: acc)
  in
  loop 0 []

(* The in-process replay: the oracle for every socket answer and, with
   [trace], the per-layer profile of a batch. *)

type kind_acc = { mutable ns : int; mutable n : int }

type replay = {
  expected : expected array;
  layers : (string * float) list;
  phase_sum_ms : float;
      (** median server-side batch: request decode, run_batch, publish,
          response encode *)
}

let kind_name : Wire.query -> string = function
  | Wire.Range _ -> "range"
  | Wire.Count _ -> "count"
  | Wire.Knn _ -> "knn"
  | Wire.Nearest _ -> "nearest"
  | Wire.Cell _ -> "cell"

let kinds = [ "range"; "count"; "knn"; "nearest"; "cell" ]

(* Kernels the family never sends still get timed, on 64 probe queries
   each per batch, so every kernel has a number on every workload. *)
let probe_queries family rng =
  let probes f = List.init 64 (fun _ -> f ()) in
  match family with
  | Point_like ->
    probes (fun () -> Wire.Range (square rng ~min_side:0.001 ~max_side:0.011))
  | Range_heavy ->
    probes (fun () -> Wire.Nearest (random_point rng))
    @ probes (fun () -> Wire.Cell (random_point rng))

let answer_points : Wire.answer -> int = function
  | Wire.Points ps -> Array.length ps
  | Wire.Cell_info (_, _, ps) -> Array.length ps
  | Wire.Count_of _ | Wire.Rejected _ -> 0

(* What `popan serve -n -j --churn-ops --seed` runs. *)
let server_config cfg =
  {
    Server.default_config with
    jobs = Some cfg.jobs;
    base_points = cfg.points;
    seed = cfg.seed;
    churn_ops = cfg.churn_ops;
  }

let replay cfg key queries =
  let minor () = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = Clock.now_ns () in
  let server = Server.create (server_config cfg) in
  let create_s = ms_since t0 /. 1000.0 in
  let epochs = Server.epochs server in
  let pool = Server.pool server in
  let acc = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace acc k { ns = 0; n = 0 }) kinds;
  let probe_rng = Xoshiro.of_int_seed (cfg.seed + 0x9e37) in
  let seq_ns = ref 0 and batch_ns = ref 0 in
  let seq_words = ref 0.0 and seq_queries = ref 0 in
  let dec = ref [] and bat = ref [] and pub = ref [] and enc = ref []
  and bytes = ref [] and words = ref [] and points = ref []
  and sums = ref [] in
  let live_max = ref 0 in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let expected =
    Array.map
      (fun qs ->
        let request =
          Codec.to_artifact ~kind:Wire.request_kind ~version:Wire.version ~key
            Wire.request (Wire.Batch qs)
        in
        let w0 = minor () in
        let t = Clock.now_ns () in
        (match
           Codec.of_artifact ~kind:Wire.request_kind ~version:Wire.version
             Wire.request request
         with
        | Ok (Wire.Batch _) -> ()
        | _ -> failwith "replay: request frame did not decode");
        let d_dec = ms_since t in
        let e = Epoch.pin epochs in
        let t = Clock.now_ns () in
        let answers = Server.run_batch pool (Epoch.arena e) qs in
        let d_bat_ns = Clock.now_ns () - t in
        let w1 = minor () in
        if cfg.trace then begin
          let arena = Epoch.arena e in
          let timed q =
            let ws = Gc.minor_words () in
            let t = Clock.now_ns () in
            let a = Server.eval arena q in
            let dt = Clock.now_ns () - t in
            let k = Hashtbl.find acc (kind_name q) in
            k.ns <- k.ns + dt;
            k.n <- k.n + 1;
            (a, dt, Gc.minor_words () -. ws)
          in
          Array.iter
            (fun q ->
              let _, dt, w = timed q in
              seq_ns := !seq_ns + dt;
              seq_words := !seq_words +. w;
              incr seq_queries)
            qs;
          List.iter
            (fun q -> ignore (timed q : Wire.answer * int * float))
            (probe_queries cfg.family probe_rng)
        end;
        batch_ns := !batch_ns + d_bat_ns;
        let w2 = minor () in
        let t = Clock.now_ns () in
        ignore (Server.run_queries server [||] : int * Wire.answer array);
        live_max := max !live_max (Epoch.live_count epochs);
        let epoch = Epoch.id e in
        Epoch.unpin epochs e;
        let d_pub = ms_since t in
        let response = Wire.Answers { epoch; answers } in
        let t = Clock.now_ns () in
        let frame = encode_response key response in
        let d_enc = ms_since t in
        let w3 = minor () in
        let d_bat = float_of_int d_bat_ns /. 1e6 in
        dec := d_dec :: !dec;
        bat := d_bat :: !bat;
        pub := d_pub :: !pub;
        enc := d_enc :: !enc;
        bytes := float_of_int (String.length frame) :: !bytes;
        words := (w1 -. w0 +. (w3 -. w2)) :: !words;
        points :=
          float_of_int (Array.fold_left (fun n a -> n + answer_points a) 0 answers)
          :: !points;
        sums := (d_dec +. d_bat +. d_pub +. d_enc) :: !sums;
        { epoch; frame = Digest.string frame; answers = answer_digests answers })
      queries
  in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  (match Epoch.check_invariants epochs with
  | [] -> ()
  | problems -> failwith ("replay: epoch invariants: " ^ String.concat "; " problems));
  Server.shutdown server;
  let per_query k =
    let a = Hashtbl.find acc k in
    if a.n = 0 then nan else float_of_int a.ns /. float_of_int a.n /. 1e3
  in
  let layers =
    [
      ("setup.server_create_s", create_s);
      ("epoch.publish_ms", median !pub);
      ("epoch.live_max", float_of_int !live_max);
      ("server.run_batch_ms", median !bat);
      ( "pool.efficiency",
        float_of_int !seq_ns /. (float_of_int cfg.jobs *. float_of_int !batch_ns) );
      ("arena.answer_points", median !points);
      ( "arena.query_minor_words",
        !seq_words /. float_of_int (max 1 !seq_queries) );
      ("wire.request_decode_ms", median !dec);
      ("wire.response_encode_ms", median !enc);
      ("wire.response_bytes", median !bytes);
      ("gc.minor_words_per_batch", median !words);
      ("gc.major_collections", float_of_int majors);
    ]
    @ List.map (fun k -> ("arena." ^ k ^ "_us", per_query k)) kinds
  in
  { expected; layers; phase_sum_ms = median !sums }

(* Churn-experiment layers, timed on the workload's own population size
   with the server's churn mix; whole studies use the workload's own
   trials, ops and mixes. *)

type study = {
  capacity : int;
  trials : int;
  ops : int;
  mixes : (float * float) list;
  study_jobs : int;
}

let churn_layers cfg study =
  let ops_timed = 65_536 in
  let spec =
    Workload.Churn.make ~points:cfg.points ~trials:1 ~seed:cfg.seed
      ~ops:ops_timed ~insert_fraction:Server.default_config.insert_fraction
      ~update_fraction:Server.default_config.update_fraction
      ~drift_sigma:Server.default_config.drift_sigma ()
  in
  let state () =
    let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ rng -> rng)) in
    Workload.Churn.start spec ~rng
  in
  let base = Array.to_list (Workload.Churn.live (state ())) in
  let builds =
    List.init 3 (fun _ ->
        let t = Clock.now_ns () in
        let a = Pr_arena.of_points_bulk ~capacity:study.capacity base in
        let d = ms_since t in
        Pr_arena.release a;
        d)
  in
  let arena = Pr_arena.of_points_bulk ~capacity:study.capacity base in
  let s = state () in
  let ins = { ns = 0; n = 0 } and del = { ns = 0; n = 0 }
  and upd = { ns = 0; n = 0 } in
  let timed acc f =
    let t = Clock.now_ns () in
    f ();
    acc.ns <- acc.ns + (Clock.now_ns () - t);
    acc.n <- acc.n + 1
  in
  for _ = 1 to ops_timed do
    match Workload.Churn.step spec s with
    | Workload.Churn.Insert p -> timed ins (fun () -> Pr_arena.insert arena p)
    | Workload.Churn.Delete p ->
      timed del (fun () -> ignore (Pr_arena.delete arena p : bool))
    | Workload.Churn.Update (p, q) ->
      timed upd (fun () -> ignore (Pr_arena.update arena p q : bool))
  done;
  (match Pr_arena.check_invariants arena with
  | [] -> ()
  | problems -> failwith ("churn layers: " ^ String.concat "; " problems));
  Pr_arena.release arena;
  let s = state () in
  let t = Clock.now_ns () in
  for _ = 1 to ops_timed do
    ignore (Workload.Churn.step spec s : Workload.Churn.event)
  done;
  let stream_ns = float_of_int (Clock.now_ns () - t) /. float_of_int ops_timed in
  let q = Churn.effective_insert_fraction spec in
  let models =
    List.init 5 (fun _ ->
        let t = Clock.now_ns () in
        ignore
          (Churn_model.steady_state ~branching:4 ~capacity:study.capacity
             ~insert_fraction:q ()
            : Popan_core.Fixed_point.report);
        ms_since t)
  in
  (* As `popan churn -j` runs it: the job count is the ambient default,
     so nested fan-outs see it too. *)
  let run_study jobs =
    Parallel.set_default_jobs jobs;
    let t = Clock.now_ns () in
    let rows =
      Churn.study ~points:cfg.points ~trials:study.trials ~seed:cfg.seed
        ~ops:study.ops ~mixes:study.mixes ~capacity:study.capacity ()
    in
    (rows, ms_since t)
  in
  let rows1, ms1 = run_study 1 in
  let rowsj, msj = run_study study.study_jobs in
  if rows1 <> rowsj then failwith "churn study differs between job counts";
  let per_op a = if a.n = 0 then nan else float_of_int a.ns /. float_of_int a.n in
  ( [
      ("arena.bulk_build_ms", median builds);
      ("arena.insert_ns", per_op ins);
      ("arena.delete_ns", per_op del);
      ("arena.update_ns", per_op upd);
      ("churn.stream_ns_per_op", stream_ns);
      ("core.churn_model_ms", median models);
      ( "experiment.trial_ms",
        ms1 /. float_of_int (study.trials * List.length study.mixes) );
      ("pool.trial_speedup", ms1 /. msj);
    ],
    msj )

(* Output *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_floats xs = "[" ^ String.concat ", " (List.map json_float xs) ^ "]"

let json_layers layers =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_float v)) layers)
  ^ "}"

(* Command line *)

(* [--name value] pairs plus the bare flags [--trace] and [--corrupt]. *)
let parse argv =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | [] -> ()
    | (("--trace" | "--corrupt") as f) :: rest ->
      Hashtbl.replace tbl f "";
      go rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace tbl k v;
      go rest
    | a :: _ -> failwith ("loadgen: unexpected argument " ^ a)
  in
  go argv;
  let get k =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None -> failwith ("loadgen: missing " ^ k)
  in
  let opt k d = Option.value (Hashtbl.find_opt tbl k) ~default:d in
  let int k = int_of_string (get k) in
  let cfg =
    {
      popan = opt "--popan" "";
      workdir = get "--workdir";
      family = family_of_string (get "--family");
      points = int "--points";
      churn_ops = int "--churn-ops";
      jobs = int "--jobs";
      seed = int "--seed";
      batches = int "--batches";
      seconds = float_of_string (opt "--seconds" "0");
      min_sessions = int_of_string (opt "--min-sessions" "1");
      trace = Hashtbl.mem tbl "--trace";
      corrupt = Hashtbl.mem tbl "--corrupt";
    }
  in
  let study () =
    {
      capacity = int "--capacity";
      trials = int "--trials";
      ops = int "--ops";
      mixes =
        List.map
          (fun m -> Scanf.sscanf m "%f:%f" (fun q u -> (q, u)))
          (String.split_on_char ',' (get "--mixes"));
      study_jobs = int "--study-jobs";
    }
  in
  (cfg, study)

let expected_path cfg = Filename.concat cfg.workdir "expected.bin"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "replay" :: rest ->
    let cfg, _ = parse rest in
    let key = frame_key cfg.workdir in
    let r = replay cfg key (batches cfg.family ~seed:cfg.seed ~count:cfg.batches) in
    let oc = open_out_bin (expected_path cfg) in
    Marshal.to_channel oc (r.expected : expected array) [];
    close_out oc;
    Printf.printf "{\"phase_sum_ms\": %s, \"layers\": %s}\n"
      (json_float r.phase_sum_ms)
      (json_layers (if cfg.trace then r.layers else []))
  | _ :: "churn-layers" :: rest ->
    let cfg, study = parse rest in
    let layers, study_ms = churn_layers cfg (study ()) in
    Printf.printf "{\"study_ms\": %s, \"layers\": %s}\n" (json_float study_ms)
      (json_layers layers)
  | _ :: "serve" :: rest ->
    let cfg, _ = parse rest in
    let key = frame_key cfg.workdir in
    let queries = batches cfg.family ~seed:cfg.seed ~count:cfg.batches in
    let expected : expected array =
      let ic = open_in_bin (expected_path cfg) in
      let x = Marshal.from_channel ic in
      close_in ic;
      x
    in
    if Array.length expected <> Array.length queries then
      failwith "loadgen: the replay has a different batch count";
    let sessions = run_sessions cfg key queries expected in
    let floats f = json_floats (List.map f sessions) in
    let sum f = List.fold_left (fun n s -> n + f s) 0 sessions in
    Printf.printf
      "{\"attempted\": %d, \"failed\": %d, \"setup_s\": %s, \"run_s\": %s, \
       \"vm_hwm_kb\": %s, \"threads\": %s, \"batch_queries\": %d, \
       \"rtt_ms\": %s, \"decode_ms\": %s}\n"
      (sum (fun s -> s.attempted))
      (sum (fun s -> s.failed))
      (floats (fun s -> s.setup_s))
      (floats (fun s -> s.run_s))
      (floats (fun s -> float_of_int s.vm_hwm_kb))
      (floats (fun s -> float_of_int s.threads))
      batch_size
      ("[" ^ String.concat ", " (List.map (fun s -> json_floats s.rtt_ms) sessions)
       ^ "]")
      (json_floats (List.concat_map (fun s -> s.decode_ms) sessions))
  | _ ->
    prerr_endline
      "usage: loadgen (replay | serve | churn-layers) --workdir DIR \
       --family point|range --points N --churn-ops C --jobs J --seed S \
       --batches B [--trace] [--popan EXE --seconds T --min-sessions K \
       --corrupt] [--capacity M --trials T --ops O --mixes Q:U,... \
       --study-jobs J]";
    exit 2
