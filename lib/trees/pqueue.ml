(* Values live in a plain array, filled on first insert from that first
   value, so an insert writes two slots and allocates nothing (an
   ['a option] slot would cost a [Some] block per insert). A vacated
   slot keeps its stale value until it is overwritten. *)
type 'a t = {
  mutable keys : float array;
  mutable values : 'a array;
  mutable size : int;
}

let create () = { keys = Array.make 16 0.0; values = [||]; size = 0 }

let size q = q.size
let is_empty q = q.size = 0

let grow q =
  let capacity = 2 * Array.length q.keys in
  let keys = Array.make capacity 0.0 in
  let values = Array.make capacity q.values.(0) in
  Array.blit q.keys 0 keys 0 q.size;
  Array.blit q.values 0 values 0 q.size;
  q.keys <- keys;
  q.values <- values

let swap q i j =
  let k = q.keys.(i) in
  q.keys.(i) <- q.keys.(j);
  q.keys.(j) <- k;
  let v = q.values.(i) in
  q.values.(i) <- q.values.(j);
  q.values.(j) <- v

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if q.keys.(i) < q.keys.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < q.size && q.keys.(left) < q.keys.(!smallest) then smallest := left;
  if right < q.size && q.keys.(right) < q.keys.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let insert q priority value =
  if Float.is_nan priority then invalid_arg "Pqueue.insert: NaN priority";
  if q.size = 0 && Array.length q.values = 0 then
    q.values <- Array.make (Array.length q.keys) value
  else if q.size = Array.length q.keys then grow q;
  q.keys.(q.size) <- priority;
  q.values.(q.size) <- value;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let peek_min q = if q.size = 0 then None else Some (q.keys.(0), q.values.(0))

(* Drop the root without building the entry: move the last element up
   and sift it down. *)
let remove_min q =
  q.size <- q.size - 1;
  q.keys.(0) <- q.keys.(q.size);
  q.values.(0) <- q.values.(q.size);
  if q.size > 0 then sift_down q 0

let pop_min q =
  match peek_min q with
  | None -> None
  | Some _ as entry ->
    remove_min q;
    entry

let drain q =
  let rec go acc =
    match pop_min q with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

(* A bounded best-k collector on top of the min-heap: keys are negated
   distances, so the root is the current kth-best (worst retained)
   candidate and every offer costs O(log k). Shared by the persistent
   and arena k-NN kernels so the pruning bound lives in one place. *)
module Neighbors = struct
  type nonrec 'a t = { k : int; heap : 'a t }

  let create k =
    if k < 0 then invalid_arg "Pqueue.Neighbors.create: k < 0";
    { k; heap = create () }

  let capacity n = n.k
  let size n = size n.heap

  let worst n =
    if n.k = 0 then 0.0
    else if size n < n.k then Float.infinity
    else -.n.heap.keys.(0)

  let offer n ~dist v =
    if dist < worst n then begin
      insert n.heap (-.dist) v;
      if size n > n.k then remove_min n.heap
    end

  (* The negated-distance heap pops farthest-first. *)
  let drain_farthest n ~f =
    while n.heap.size > 0 do
      let v = n.heap.values.(0) in
      remove_min n.heap;
      f v
    done

  let drain_nearest n =
    let acc = ref [] in
    drain_farthest n ~f:(fun v -> acc := v :: !acc);
    !acc
end
