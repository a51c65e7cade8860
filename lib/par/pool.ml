(* A fixed-size domain pool with deterministic, task-indexed results.

   Tasks [0, n) are dealt out as contiguous per-worker blocks, and each
   block is a per-worker deque: the owner pops from the bottom ([lo]),
   an idle worker steals from the top ([hi - 1]). Because this pool
   never spawns tasks mid-run, a deque is always a contiguous index
   range [lo, hi), so a mutex per deque — held for a couple of int
   updates — keeps both ends consistent; contention is one brief lock
   per task transfer, not a central run-list lock on every scheduler
   operation (the libgomp bottleneck the laser runtime notes call out).
   A worker exits after its own deque and a full victim scan come up
   empty, which is stable precisely because nothing is ever pushed.

   Determinism argument: scheduling decides only *who* runs a task,
   never *what* it computes — slot [i] of the result array is written
   exactly once, by whichever worker executed task [i], and every
   worker domain is joined before the array is read, so the caller
   observes a fully written array regardless of interleaving.
   Exceptions are captured per task and re-raised in the caller, lowest
   task index first. A pure task function therefore produces the same
   array at any [jobs] count; a failing run fails identically too.

   Domains are spawned per {!tasks} call rather than parked between
   calls: the tasks this repo fans out (traffic engines, allocations,
   fuzz inputs batched by the caller) cost milliseconds to minutes, so
   a few hundred microseconds of spawn cost disappears, and there is no
   pool lifecycle to leak or deadlock. *)

type t = { n_jobs : int; steals : int Atomic.t }

let create ?(jobs = 1) () =
  if jobs < 1 then Fmt.invalid_arg "Pool.create: jobs must be >= 1 (got %d)" jobs;
  { n_jobs = jobs; steals = Atomic.make 0 }

let sequential = { n_jobs = 1; steals = Atomic.make 0 }

let jobs t = t.n_jobs
let steal_count t = Atomic.get t.steals

(* The contiguous block deal the deques start from (and the static
   schedule {!plan} models): worker [k] of [w] owns [k*n/w, (k+1)*n/w)
   — every task dealt, blocks within one task of equal size. *)
let block_lo ~n ~w k = k * n / w
let block_hi ~n ~w k = (k + 1) * n / w

type deque = { lock : Mutex.t; mutable lo : int; mutable hi : int }

let pop_own d =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then begin
      let i = d.lo in
      d.lo <- i + 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let pop_steal d =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then begin
      let i = d.hi - 1 in
      d.hi <- i;
      Some i
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let tasks t n f =
  if n < 0 then Fmt.invalid_arg "Pool.tasks: negative task count %d" n;
  let results = Array.make n None in
  let run i =
    results.(i) <- Some (match f i with v -> Ok v | exception e -> Error e)
  in
  let w = min t.n_jobs n in
  if w <= 1 then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let deques =
      Array.init w (fun k ->
          { lock = Mutex.create (); lo = block_lo ~n ~w k; hi = block_hi ~n ~w k })
    in
    let worker k () =
      let continue = ref true in
      while !continue do
        match pop_own deques.(k) with
        | Some i -> run i
        | None ->
          (* own deque dry: scan victims starting at the right-hand
             neighbour; a full empty scan means no task remains
             anywhere, so the worker can exit *)
          let found = ref None in
          let v = ref 1 in
          while !found = None && !v < w do
            (match pop_steal deques.((k + !v) mod w) with
            | Some i -> found := Some i
            | None -> ());
            incr v
          done;
          (match !found with
          | Some i ->
            Atomic.incr t.steals;
            run i
          | None -> continue := false)
      done
    in
    (* the caller's domain is worker number zero *)
    let spawned = Array.init (w - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    Array.iter Domain.join spawned
  end;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false (* every index < n is claimed exactly once *))
    results

let map_array t f xs = tasks t (Array.length xs) (fun i -> f xs.(i))

let map_list t f xs =
  Array.to_list (map_array t f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* Virtual-time scheduling model.

   [plan] replays a scheduling policy over a vector of task costs in
   deterministic virtual time. [`Steal] is the policy {!tasks} runs: all
   workers run at unit speed, and whenever several could act, the
   earliest-free worker (ties to the lowest index) takes the next task
   by exactly the policy above — own bottom first, then a victim scan
   from the right-hand neighbour, stealing the victim's top. [`Fixed]
   is the static schedule it improves on: each worker runs exactly its
   dealt block. [plan] is a pure function of (strategy, jobs, costs), so
   `bench simspeed` and the test suite can assert scheduling properties
   — makespans, steal counts, the steal-never-loses bound — that a wall
   clock on a single-core host could never show.

   Steal never loses to fixed here: the deal is identical, stealing
   only happens when a worker would otherwise idle while tasks remain,
   and a stolen task is its owner's *last* — the thief starts it no
   later than the owner would have — so every task's start time is <=
   its fixed-schedule start time, and the makespan follows. *)

type strategy = [ `Fixed | `Steal ]

type plan = {
  p_makespan : int;  (* virtual completion time of the last task *)
  p_steals : int;
  p_worker_busy : int array;  (* per-worker sum of executed task costs *)
}

let plan ~(strategy : strategy) ~jobs ~costs =
  if jobs < 1 then Fmt.invalid_arg "Pool.plan: jobs must be >= 1 (got %d)" jobs;
  Array.iter
    (fun c ->
      if c < 0 then Fmt.invalid_arg "Pool.plan: negative task cost %d" c)
    costs;
  let n = Array.length costs in
  let w = max 1 (min jobs n) in
  let busy = Array.make w 0 in
  match strategy with
  | `Fixed ->
    for k = 0 to w - 1 do
      for i = block_lo ~n ~w k to block_hi ~n ~w k - 1 do
        busy.(k) <- busy.(k) + costs.(i)
      done
    done;
    {
      p_makespan = Array.fold_left max 0 busy;
      p_steals = 0;
      p_worker_busy = busy;
    }
  | `Steal ->
    let lo = Array.init w (block_lo ~n ~w) and hi = Array.init w (block_hi ~n ~w) in
    let clock = Array.make w 0 in
    let steals = ref 0 in
    let remaining = ref n in
    while !remaining > 0 do
      let k = ref 0 in
      for j = 1 to w - 1 do
        if clock.(j) < clock.(!k) then k := j
      done;
      let k = !k in
      let task =
        if lo.(k) < hi.(k) then begin
          let i = lo.(k) in
          lo.(k) <- i + 1;
          Some i
        end
        else begin
          let found = ref None in
          let v = ref 1 in
          while !found = None && !v < w do
            let d = (k + !v) mod w in
            if lo.(d) < hi.(d) then begin
              hi.(d) <- hi.(d) - 1;
              found := Some hi.(d)
            end;
            incr v
          done;
          (match !found with Some _ -> incr steals | None -> ());
          !found
        end
      in
      match task with
      | Some i ->
        clock.(k) <- clock.(k) + costs.(i);
        busy.(k) <- busy.(k) + costs.(i);
        decr remaining
      | None ->
        (* unreachable: the deques hold exactly the unstarted tasks, so
           [remaining > 0] implies some deque is non-empty *)
        assert false
    done;
    {
      p_makespan = Array.fold_left max 0 clock;
      p_steals = !steals;
      p_worker_busy = busy;
    }
