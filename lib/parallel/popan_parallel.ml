module Probe = Popan_obs.Probe

let recommended_jobs () = Domain.recommended_domain_count ()

let clamp_jobs n = if n <= 0 then recommended_jobs () else n

let ambient_jobs =
  let initial =
    match Sys.getenv_opt "POPAN_JOBS" with
    | None -> 1
    | Some s -> (match int_of_string_opt s with
        | Some n -> clamp_jobs n
        | None -> 1)
  in
  Atomic.make initial

let default_jobs () = Atomic.get ambient_jobs
let set_default_jobs n = Atomic.set ambient_jobs (clamp_jobs n)

module Pool = struct
  type batch = {
    total : int;
    chunk : int;
    next : int Atomic.t;  (* first unclaimed index *)
    run : int -> unit;    (* never raises: errors are recorded inside *)
  }

  type t = {
    jobs : int;
    mutex : Mutex.t;
    work : Condition.t;   (* a batch arrived, or the pool is stopping *)
    finished : Condition.t;  (* the current batch fully completed *)
    mutable batch : batch option;
    mutable pending : int;  (* tasks of the current batch not yet run *)
    mutable seq : int;      (* batch sequence number, to re-arm workers *)
    mutable stop : bool;
    mutable workers : unit Domain.t list;
  }

  (* Claim and run chunks until the batch is exhausted, then account for
     what we ran. Which domain runs which chunk is scheduling noise: every
     task writes only its own result slot. *)
  let drain t b =
    let ran = ref 0 in
    let continue = ref true in
    while !continue do
      let start = Atomic.fetch_and_add b.next b.chunk in
      if start >= b.total then continue := false
      else begin
        let stop = min (start + b.chunk) b.total in
        (* One probe per claimed chunk — the scheduling unit — not per
           element: a per-element span put two clock reads and a
           histogram observation inside every task body, which at
           chunk=256 over a 1024-query serve batch was a measurable
           slice of the telemetry overhead bar. *)
        Probe.pool_task ~index:start (fun () ->
            for i = start to stop - 1 do b.run i done);
        ran := !ran + (stop - start)
      end
    done;
    if !ran > 0 then begin
      Mutex.lock t.mutex;
      t.pending <- t.pending - !ran;
      if t.pending = 0 then begin
        t.batch <- None;
        Condition.broadcast t.finished
      end;
      Mutex.unlock t.mutex
    end

  let rec worker_loop t last_seq =
    Mutex.lock t.mutex;
    let rec await () =
      if t.stop then None
      else
        match t.batch with
        | Some b when t.seq <> last_seq -> Some (t.seq, b)
        | _ -> Condition.wait t.work t.mutex; await ()
    in
    let claimed = await () in
    Mutex.unlock t.mutex;
    match claimed with
    | None -> ()
    | Some (seq, b) ->
      drain t b;
      worker_loop t seq

  let create ?jobs () =
    let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
    let t =
      {
        jobs;
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        batch = None;
        pending = 0;
        seq = 0;
        stop = false;
        workers = [];
      }
    in
    t.workers <-
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
    t

  let jobs t = t.jobs

  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []

  let with_pool ?jobs f =
    let t = create ?jobs () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  (* Submit one batch and run it to completion. The submitter works too,
     so a 1-job pool (no spawned domains) runs everything inline, in
     ascending index order — the sequential path is literally the same
     code. *)
  let run_batch t ~total ~chunk run =
    if total > 0 then begin
      if t.workers = [] then begin
        (* Same chunk-granular probes as [drain], so what telemetry
           records does not depend on whether domains were spawned. *)
        let start = ref 0 in
        while !start < total do
          let lo = !start in
          let hi = min (lo + chunk) total in
          Probe.pool_task ~index:lo (fun () ->
              for i = lo to hi - 1 do run i done);
          start := hi
        done
      end
      else begin
        Mutex.lock t.mutex;
        while t.batch <> None do Condition.wait t.finished t.mutex done;
        let b = { total; chunk; next = Atomic.make 0; run } in
        t.batch <- Some b;
        t.pending <- total;
        t.seq <- t.seq + 1;
        Condition.broadcast t.work;
        Mutex.unlock t.mutex;
        drain t b;
        Mutex.lock t.mutex;
        while t.pending > 0 do Condition.wait t.finished t.mutex done;
        Mutex.unlock t.mutex
      end
    end

  let map_array ?(chunk = 1) t n ~f =
    if n < 0 then invalid_arg "Parallel.map_array: n < 0";
    if chunk < 1 then invalid_arg "Parallel.map_array: chunk < 1";
    if n = 0 then [||]
    else begin
      let results = Array.make n None in
      (* Failures are deterministic too: the lowest failing index wins,
         whatever the schedule was. *)
      let error = Atomic.make None in
      let run i =
        match f i with
        | v -> results.(i) <- Some v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          let rec record () =
            let cur = Atomic.get error in
            let better =
              match cur with None -> true | Some (j, _, _) -> i < j
            in
            if better && not (Atomic.compare_and_set error cur (Some (i, e, bt)))
            then record ()
          in
          record ()
      in
      Probe.pool_map ~tasks:n ~jobs:t.jobs (fun () ->
          run_batch t ~total:n ~chunk run);
      (match Atomic.get error with
       | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
       | None -> ());
      Probe.pool_reduce ~tasks:n (fun () ->
          Array.map (function Some v -> v | None -> assert false) results)
    end

  let map_list ?chunk t n ~f = Array.to_list (map_array ?chunk t n ~f)

  let iter ?chunk t n ~f = ignore (map_array ?chunk t n ~f)
end

let map_array ?jobs ?chunk n ~f =
  (* A 1-job pool spawns no domains, so the ambient-default call is an
     inline ascending loop plus a couple of allocations. *)
  Pool.with_pool ?jobs (fun pool -> Pool.map_array ?chunk pool n ~f)

let map_list ?jobs ?chunk n ~f = Array.to_list (map_array ?jobs ?chunk n ~f)
