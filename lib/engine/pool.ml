(* Fixed work-pool over OCaml 5 domains; see pool.mli.

   [size - 1] resident worker domains plus the caller's domain run
   one job per barrier; workers are spawned once and parked on a
   condition variable between jobs, so the per-round cost of
   parallelism is two mutex handshakes, not a [Domain.spawn].  A pool
   of size 1 never spawns a domain and [run] degenerates to a plain
   call — sequential and parallel clients share one code path. *)

type t = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;  (** signalled when a new job is published. *)
  finished : Condition.t;  (** signalled when the last shard completes. *)
  mutable job : int -> unit;
  mutable epoch : int;  (** bumped per job; workers run each epoch once. *)
  mutable pending : int;  (** worker shards still running this epoch. *)
  mutable stop : bool;
  mutable failed : exn option;
      (** first worker exception, re-raised by [run]. *)
  mutable domains : unit Domain.t list;
}

let size t = t.size

let worker t shard =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while t.epoch = !seen && not t.stop do
      Condition.wait t.work t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      seen := t.epoch;
      let job = t.job in
      Mutex.unlock t.mutex;
      (try job shard
       with e ->
         Mutex.lock t.mutex;
         if t.failed = None then t.failed <- Some e;
         Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  (* The OCaml runtime caps live domains at 128. *)
  if size > 64 then invalid_arg "Pool.create: size must be <= 64";
  let t =
    {
      size;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = ignore;
      epoch = 0;
      pending = 0;
      stop = false;
      failed = None;
      domains = [];
    }
  in
  t.domains <-
    List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

(** Run [job shard] for every shard [0 .. size-1]; returns when all
    have completed.  Exceptions raised by any shard are re-raised here
    (the caller's shard first). *)
let run t job =
  if t.size = 1 then job 0
  else begin
    Mutex.lock t.mutex;
    t.job <- job;
    t.pending <- t.size - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    let caller = (try job 0; None with e -> Some e) in
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.finished t.mutex
    done;
    let from_worker = t.failed in
    t.failed <- None;
    Mutex.unlock t.mutex;
    match (caller, from_worker) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()
  end

let shutdown t =
  if t.domains <> [] then begin
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool size f =
  let t = create size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
