(* Fixed domain pool. Workers block on a condition variable between
   batches; a batch is published as a bump of [seq] plus a [run_one]
   closure that claims task indices from an atomic cursor, so the
   domains never contend on anything but the two counters. Results land
   in a per-batch array indexed by input position — that array, read
   after the completion handshake (mutex + condition), is what makes
   the fold deterministic. *)

type batch = { run_one : unit -> bool }

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  wake : Condition.t; (* workers: new batch or shutdown *)
  batch_done : Condition.t; (* caller: all tasks of the batch finished *)
  mutable seq : int;
  mutable current : batch option;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let clamp_jobs n = min n (Domain.recommended_domain_count ())

let default_jobs () =
  match Sys.getenv_opt "MM_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> clamp_jobs n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let jobs t = t.n_jobs

let worker t =
  let last = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.stop) && t.seq = !last do
      Condition.wait t.wake t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      last := t.seq;
      let b = t.current in
      Mutex.unlock t.mutex;
      (match b with
      | Some b -> while b.run_one () do () done
      | None -> ());
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let n_jobs = max 1 jobs in
  let t =
    {
      n_jobs;
      mutex = Mutex.create ();
      wake = Condition.create ();
      batch_done = Condition.create ();
      seq = 0;
      current = None;
      stop = false;
      domains = [];
    }
  in
  if n_jobs > 1 then
    t.domains <- List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?jobs f =
  let t = create ~jobs:(match jobs with Some j -> j | None -> default_jobs ()) in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One governed task: a cooperative cancellation checkpoint at entry
   (after the chaos site, so an injected delay is observed by the
   deadline check), the task token installed as the ambient Govern
   token for checkpoints inside the body, and crashes captured with
   their raw backtrace at the raise site — the re-raise in [collect]
   then points at the real failure, not the dispatch site. *)
let run_task ~govern ~task_budget_s f x =
  let tok =
    match task_budget_s with
    | None -> govern
    | Some budget_s ->
      Govern.sub ~scope:(Govern.scope govern ^ ".task") ~budget_s govern
  in
  Govern.run tok (fun () ->
      Chaos.hit "pool.task";
      Govern.check tok;
      f x)

(* Live tasks across every pool — the occupancy series of the pool
   telemetry. Global, like the Obs sink the samples land in. *)
let active = Atomic.make 0

(* [run_task] plus the telemetry shell: per-task wall time into the
   [pool.task_s] histogram, busy nanoseconds into the batch's occupancy
   accumulator, and an active-worker sample at both edges (no-ops
   unless tracing is on). *)
let run_task_instrumented ~govern ~task_budget_s ~busy_ns f x =
  Obs.sample "pool.active_workers"
    (float_of_int (Atomic.fetch_and_add active 1 + 1));
  let t0 = Obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Int64.sub (Obs.Clock.now_ns ()) t0 in
      ignore (Atomic.fetch_and_add busy_ns (Int64.to_int dt));
      Metrics.observe "pool.task_s" (Int64.to_float dt /. 1e9);
      Progress.tick Progress.pool_tasks;
      Obs.sample "pool.active_workers"
        (float_of_int (Atomic.fetch_and_add active (-1) - 1)))
    (fun () -> run_task ~govern ~task_budget_s f x)

(* Re-raise the lowest-index crash — the exception a sequential
   left-to-right run would have hit first. *)
let collect results =
  Array.iter
    (function
      | Some (Govern.Crashed { exn; backtrace }) ->
        Printexc.raise_with_backtrace exn backtrace
      | Some (Govern.Interrupted r) -> raise (Govern.Cancelled r)
      | Some (Govern.Done _) | None -> ())
    results;
  Array.to_list
    (Array.map
       (function
         | Some (Govern.Done v) -> v
         | Some (Govern.Interrupted _ | Govern.Crashed _) | None -> assert false)
       results)

let observe_queue_depth ~n i =
  let remaining = float_of_int (n - i - 1) in
  Metrics.observe "pool.queue_depth" remaining;
  Obs.sample "pool.queue_depth" remaining

let outcome_array t ~govern ~task_budget_s f arr =
  let n = Array.length arr in
  Metrics.incr ~by:n "pool.tasks_executed";
  Metrics.incr "pool.batches";
  Progress.add_total Progress.pool_tasks n;
  let busy_ns = Atomic.make 0 in
  let batch_t0 = Obs.Clock.now_ns () in
  (* Batch occupancy: summed task time over (wall × workers) — 1.0 is a
     perfectly packed batch, low values mean workers starved on an
     uneven tail. Clamped because task edges and the batch edge are
     read from different clock calls. *)
  let record_occupancy () =
    if n > 0 then begin
      let wall_s = Obs.Clock.elapsed_s batch_t0 in
      let workers = float_of_int (max 1 (min t.n_jobs n)) in
      if wall_s > 0. then
        Metrics.observe "pool.occupancy"
          (Float.min 1.
             (float_of_int (Atomic.get busy_ns) /. 1e9 /. (wall_s *. workers)))
    end
  in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  let completed = Atomic.make 0 in
  (* Re-parent worker-domain spans under the caller's open span so
     multi-domain profiles keep one tree (see Obs.with_context). *)
  let ctx = Obs.capture () in
  let run_one () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i >= n then false
    else begin
      observe_queue_depth ~n i;
      (* Worker-side cancellation checkpoint: once the batch token
         has expired, remaining tasks are marked interrupted without
         running, so an exhausted budget drains the batch instead of
         wedging the pool. A drained task still ticks: it is settled. *)
      let r =
        match Govern.cancelled govern with
        | Some reason ->
          Progress.tick Progress.pool_tasks;
          Govern.Interrupted reason
        | None ->
          run_task_instrumented ~govern ~task_budget_s ~busy_ns
            (fun x -> Obs.with_context ctx (fun () -> f x))
            arr.(i)
      in
      results.(i) <- Some r;
      if Atomic.fetch_and_add completed 1 = n - 1 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.batch_done;
        Mutex.unlock t.mutex
      end;
      true
    end
  in
  Mutex.lock t.mutex;
  t.seq <- t.seq + 1;
  t.current <- Some { run_one };
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  (* The calling domain is a full participant; at jobs=1 it is the
     only one and has run every task when this loop ends. *)
  while run_one () do () done;
  Mutex.lock t.mutex;
  while Atomic.get completed < n do
    Condition.wait t.batch_done t.mutex
  done;
  t.current <- None;
  Mutex.unlock t.mutex;
  record_occupancy ();
  results

let map_outcome t ?(govern = Govern.never) ?task_budget_s f xs =
  Array.to_list
    (Array.map
       (function Some o -> o | None -> assert false)
       (outcome_array t ~govern ~task_budget_s f (Array.of_list xs)))

let map_array t f arr =
  collect (outcome_array t ~govern:Govern.never ~task_budget_s:None f arr)

let map t f xs = map_array t f (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Utilization report: the pool.* slice of the metrics registry,
   rendered for the profile footer. Reads the registry rather than
   pool-local state so it covers every pool the run created. *)

let utilization_report () =
  let counter name =
    match Metrics.get name with Some (Metrics.Counter n) -> n | _ -> 0
  in
  let hist name =
    match Metrics.get name with
    | Some (Metrics.Histogram h) when h.Metrics.h_count > 0 -> Some h
    | _ -> None
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "pool utilization\n";
  Buffer.add_string b
    (Printf.sprintf "  batches          %d\n" (counter "pool.batches"));
  Buffer.add_string b
    (Printf.sprintf "  tasks executed   %d\n" (counter "pool.tasks_executed"));
  (match hist "pool.task_s" with
  | Some h ->
    Buffer.add_string b
      (Printf.sprintf "  task time (s)    p50 %.6f  p90 %.6f  max %.6f\n"
         (Metrics.percentile h 0.50)
         (Metrics.percentile h 0.90)
         h.Metrics.h_max)
  | None -> ());
  (match hist "pool.queue_depth" with
  | Some h ->
    Buffer.add_string b
      (Printf.sprintf "  queue depth      p50 %.0f  p90 %.0f  max %.0f\n"
         (Metrics.percentile h 0.50)
         (Metrics.percentile h 0.90)
         h.Metrics.h_max)
  | None -> ());
  (match hist "pool.occupancy" with
  | Some h ->
    Buffer.add_string b
      (Printf.sprintf "  occupancy        mean %.2f  min %.2f  max %.2f\n"
         (h.Metrics.h_sum /. float_of_int h.Metrics.h_count)
         h.Metrics.h_min h.Metrics.h_max)
  | None -> ());
  Buffer.contents b
