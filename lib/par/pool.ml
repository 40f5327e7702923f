type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = { group : int; mutable cell : 'a state }

(* Queue entries erase the result type: [e_run] computes the task and
   stores the outcome into its future under the pool lock.  A plain
   list is fine as the queue — a submission is one serve request's
   distinct groups (tens of entries).
   [e_submitted] (monotonic) is stamped at enqueue so the executing
   domain can report how long the task sat in the queue. *)
type entry = { e_group : int; e_submitted : float; e_run : unit -> unit }

type t = {
  m : Mutex.t;
  cv : Condition.t;
      (* signalled on: new work, a future resolving, shutdown *)
  mutable queue : entry list;  (* FIFO, head oldest *)
  mutable stop : bool;
  n_jobs : int;
  mutable workers : unit Domain.t list;
}

let fresh_group = Atomic.make 0

(* Stable small index per domain for metric names: 0 = the main
   domain, 1..jobs-1 = pool workers.  (Domain.self () :> int) is
   unique but not dense, which would fragment per-domain series. *)
let worker_ix_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let worker_ix () = Domain.DLS.get worker_ix_key

(* Execute one queue entry, publishing its lifecycle: queue-wait and
   run latency as pooled and per-domain histograms, plus one
   "pool.task" event.  Fully guarded — with both observability
   switches off this is two atomic loads on top of [e_run].  The pooled
   histograms count tasks, one sample each; which domain runs a task,
   and how often a worker parks, is up to the scheduler, so the
   per-domain and idle histograms are declared measured: their sample
   counts are not gated as deterministic. *)
let run_entry e =
  if not (Obs.Trace_ctx.enabled () || Obs.Event.enabled ()) then e.e_run ()
  else begin
    let w = worker_ix () in
    let start = Obs.Clock.now () in
    let wait_s = start -. e.e_submitted in
    Fun.protect
      ~finally:(fun () ->
        let run_s = Obs.Clock.now () -. start in
        Obs.Metric.observe_value "pool.queue_wait_s" wait_s;
        Obs.Metric.observe_value ~measured:true
          (Printf.sprintf "pool.d%d.queue_wait_s" w)
          wait_s;
        Obs.Metric.observe_value "pool.run_s" run_s;
        Obs.Metric.observe_value ~measured:true
          (Printf.sprintf "pool.d%d.run_s" w)
          run_s;
        Obs.Event.emit "pool.task"
          [
            ("worker", Obs.Event.Int w);
            ("group", Obs.Event.Int e.e_group);
            ("queue_wait_s", Obs.Event.Float wait_s);
            ("run_s", Obs.Event.Float run_s);
          ])
      e.e_run
  end

let worker t =
  Mutex.lock t.m;
  let rec loop () =
    if t.stop then Mutex.unlock t.m
    else
      match t.queue with
      | e :: rest ->
        t.queue <- rest;
        Mutex.unlock t.m;
        run_entry e;
        Mutex.lock t.m;
        loop ()
      | [] ->
        (* time spent parked on the condvar = this worker's idle time *)
        let w0 = Obs.Clock.now () in
        Condition.wait t.cv t.m;
        if Obs.Trace_ctx.enabled () then begin
          let idle_s = Obs.Clock.now () -. w0 in
          Obs.Metric.observe_value ~measured:true "pool.idle_s" idle_s;
          Obs.Metric.observe_value ~measured:true
            (Printf.sprintf "pool.d%d.idle_s" (worker_ix ()))
            idle_s
        end;
        loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Par.Pool.create: jobs must be >= 1";
  let t =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      queue = [];
      stop = false;
      n_jobs = jobs;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set worker_ix_key (i + 1);
            worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let submit_group t group f =
  let fut = { group; cell = Pending } in
  let run () =
    let r =
      try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.m;
    fut.cell <- r;
    Condition.broadcast t.cv;
    Mutex.unlock t.m
  in
  let e = { e_group = group; e_submitted = Obs.Clock.now (); e_run = run } in
  Mutex.lock t.m;
  t.queue <- t.queue @ [ e ];
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  fut

(* steal the oldest queued task of [group], if any (caller holds m) *)
let pick_group t group =
  let rec pick acc = function
    | [] -> None
    | entry :: rest ->
      if entry.e_group = group then begin
        t.queue <- List.rev_append acc rest;
        Some entry
      end
      else pick (entry :: acc) rest
  in
  pick [] t.queue

let await t fut =
  Mutex.lock t.m;
  let rec wait () =
    match fut.cell with
    | Done v ->
      Mutex.unlock t.m;
      v
    | Failed (e, bt) ->
      Mutex.unlock t.m;
      Printexc.raise_with_backtrace e bt
    | Pending -> (
      (* help: run a queued task of the same group rather than idling —
         this is what makes nested submissions on one pool
         deadlock-free (the awaited task is either queued here, and we
         run it ourselves, or already running on some domain that will
         broadcast on completion) *)
      match pick_group t fut.group with
      | Some entry ->
        Mutex.unlock t.m;
        run_entry entry;
        Mutex.lock t.m;
        wait ()
      | None ->
        Condition.wait t.cv t.m;
        wait ())
  in
  wait ()

(* Sharding: one future per thunk, all in a single submission group so
   an [await] on any of them helps with the others.  This is what the
   serve layer uses to spread independent slot groups across the
   pool. *)
let submit_list t thunks =
  let group = Atomic.fetch_and_add fresh_group 1 in
  List.map (fun f -> submit_group t group f) thunks

let await_list t futures = List.map (fun fut -> await t fut) futures

(* ------------------------------------------------------------------ *)
(* process default *)

let default_m = Mutex.create ()
let default_pool : t option ref = ref None
let requested = ref 1

let default () =
  Mutex.lock default_m;
  match !default_pool with
  | Some p ->
    Mutex.unlock default_m;
    p
  | None ->
    let p = create ~jobs:!requested in
    default_pool := Some p;
    Mutex.unlock default_m;
    p

let set_default_jobs j =
  if j < 1 then invalid_arg "Par.Pool.set_default_jobs: jobs must be >= 1";
  Mutex.lock default_m;
  requested := j;
  match !default_pool with
  | Some p when p.n_jobs <> j ->
    default_pool := None;
    Mutex.unlock default_m;
    shutdown p
  | Some _ | None -> Mutex.unlock default_m

(* worker domains blocked on the condvar must be joined before process
   teardown *)
let () =
  at_exit (fun () ->
      Mutex.lock default_m;
      let p = !default_pool in
      default_pool := None;
      Mutex.unlock default_m;
      Option.iter shutdown p)
