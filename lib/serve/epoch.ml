open Import

type epoch = {
  id : int;
  arena : Pr_arena.t;
  mutable pins : int;
  mutable retired : bool;  (* its arena has been (or is being) overwritten *)
}

let id e = e.id
let arena e = e.arena
let pins e = e.pins

type t = {
  mutex : Mutex.t;
  mutable current : epoch;
  (* The other arena. While [standby.retired] is false it still holds
     the superseded epoch [standby.id], which readers may pin; once a
     write retires it, it is the writer's alone. The twin made at
     [create] holds no epoch and starts out retired (id -1). *)
  mutable standby : epoch;
  mutable writing : bool;  (* a write is in flight, or one failed *)
  mutable next_id : int;
}

let resident t =
  Pr_arena.resident_bytes t.current.arena
  + Pr_arena.resident_bytes t.standby.arena

let create arena =
  let e = { id = 0; arena; pins = 0; retired = false } in
  let twin =
    { id = -1; arena = Pr_arena.snapshot arena; pins = 0; retired = true }
  in
  let t =
    {
      mutex = Mutex.create ();
      current = e;
      standby = twin;
      writing = false;
      next_id = 1;
    }
  in
  Probe.serve_publish ~epoch:0 ~size:(Pr_arena.size arena)
    ~resident_bytes:(resident t);
  t

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let retire e =
  if not e.retired then begin
    e.retired <- true;
    Probe.serve_retire ~epoch:e.id
  end

let write t f =
  let arena =
    locked t (fun () ->
        let s = t.standby in
        if s.pins > 0 then
          invalid_arg
            (Printf.sprintf "Epoch.write: epoch %d is still pinned" s.id);
        retire s;
        t.writing <- true;
        s.arena)
  in
  (* Outside the lock: only the current epoch can be pinned, so no
     reader can reach this arena until [publish] swaps it in. On an
     exception [writing] stays set and the torn standby is never
     published. *)
  let r = f arena in
  locked t (fun () -> t.writing <- false);
  r

let publish t =
  locked t (fun () ->
      if t.writing then invalid_arg "Epoch.publish: the standby is torn";
      if not t.standby.retired then
        invalid_arg "Epoch.publish: nothing written since the last publish";
      let e =
        { id = t.next_id; arena = t.standby.arena; pins = 0; retired = false }
      in
      t.next_id <- t.next_id + 1;
      t.standby <- t.current;
      t.current <- e;
      Probe.serve_publish ~epoch:e.id ~size:(Pr_arena.size e.arena)
        ~resident_bytes:(resident t);
      e)

let current t = locked t (fun () -> t.current)
let current_id t = locked t (fun () -> t.current.id)

let live_count t =
  locked t (fun () -> if t.standby.pins > 0 then 2 else 1)

let pin t =
  locked t (fun () ->
      let e = t.current in
      e.pins <- e.pins + 1;
      Probe.serve_pin ~epoch:e.id;
      e)

let unpin t e =
  locked t (fun () ->
      if e.pins <= 0 then invalid_arg "Epoch.unpin: epoch not pinned";
      e.pins <- e.pins - 1)

let shutdown t =
  locked t (fun () ->
      List.iter
        (fun e ->
          retire e;
          Pr_arena.release e.arena)
        [ t.standby; t.current ])

let check_invariants t =
  locked t (fun () ->
      let problems = ref [] in
      let report fmt =
        Format.kasprintf (fun s -> problems := !problems @ [ s ]) fmt
      in
      let c = t.current and s = t.standby in
      if c.retired then report "current epoch %d is retired" c.id;
      if c.id >= t.next_id then
        report "current epoch %d at or above the next id %d" c.id t.next_id;
      List.iter
        (fun e ->
          if e.pins < 0 then report "epoch %d has negative pin count" e.id)
        [ c; s ];
      if s.pins > 0 && s.retired then
        report "standby epoch %d is pinned but overwritten" s.id;
      if (not s.retired) && s.id <> c.id - 1 then
        report "standby holds epoch %d, not the predecessor of %d" s.id c.id;
      (* Slot ownership: the two slots must be distinct arenas, each
         accounting for every one of its own slots (stored + free lists
         tile the high-water mark), or the writer's replay on one would
         corrupt the epoch readers query on the other. *)
      if c.arena == s.arena then report "current and standby share one arena";
      let audit e =
        List.iter
          (fun p -> report "epoch %d: %s" e.id p)
          (Pr_arena.check_invariants e.arena)
      in
      audit c;
      if not t.writing then audit s;
      !problems)
