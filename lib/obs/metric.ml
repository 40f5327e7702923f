type counter = { c_name : string; v : int Atomic.t }

(* [None] = unset; a CAS loop makes [set_max] exact when several
   domains race to publish peaks. *)
type gauge = { g_name : string; g : float option Atomic.t }

type histogram = {
  h_name : string;
  h_measured : bool;
  h_lock : Mutex.t;
  mutable values : float array;
  mutable len : int;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let find_or_create name make =
  with_lock registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        m)

let counter name =
  match
    find_or_create name (fun () -> C { c_name = name; v = Atomic.make 0 })
  with
  | C c -> c
  | G _ | H _ -> invalid_arg ("Metric.counter: " ^ name ^ " is not a counter")

let add c n = if Trace_ctx.enabled () then ignore (Atomic.fetch_and_add c.v n)
let incr c = add c 1
let value c = Atomic.get c.v

let gauge name =
  match
    find_or_create name (fun () -> G { g_name = name; g = Atomic.make None })
  with
  | G g -> g
  | C _ | H _ -> invalid_arg ("Metric.gauge: " ^ name ^ " is not a gauge")

let set g v = if Trace_ctx.enabled () then Atomic.set g.g (Some v)

let set_max g v =
  if Trace_ctx.enabled () then begin
    let rec loop () =
      let cur = Atomic.get g.g in
      match cur with
      | Some m when v <= m -> ()
      | _ -> if not (Atomic.compare_and_set g.g cur (Some v)) then loop ()
    in
    loop ()
  end

let gauge_value g = Atomic.get g.g

let histogram ?(measured = false) name =
  match
    find_or_create name (fun () ->
        H
          {
            h_name = name;
            h_measured = measured;
            h_lock = Mutex.create ();
            values = [||];
            len = 0;
          })
  with
  | H h -> h
  | C _ | G _ -> invalid_arg ("Metric.histogram: " ^ name ^ " is not a histogram")

let observe h v =
  if Trace_ctx.enabled () then
    with_lock h.h_lock (fun () ->
        if h.len = Array.length h.values then begin
          let cap = Int.max 16 (2 * h.len) in
          let grown = Array.make cap 0. in
          Array.blit h.values 0 grown 0 h.len;
          h.values <- grown
        end;
        h.values.(h.len) <- v;
        h.len <- h.len + 1)

(* Copy under the histogram lock, sort outside it. *)
let sorted_values h =
  let a = with_lock h.h_lock (fun () -> Array.sub h.values 0 h.len) in
  Array.sort compare a;
  a

let percentile_of_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    a.(Int.max 0 (Int.min (n - 1) rank))
  end

let percentile h q = percentile_of_sorted (sorted_values h) q

let count name n = if Trace_ctx.enabled () then add (counter name) n
let set_gauge name v = if Trace_ctx.enabled () then set (gauge name) v
let max_gauge name v = if Trace_ctx.enabled () then set_max (gauge name) v
let observe_value ?measured name v =
  if Trace_ctx.enabled () then observe (histogram ?measured name) v

type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  measured : bool;
}

type entry =
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * summary

let summarise_sorted ~measured a =
  let n = Array.length a in
  let total = Array.fold_left ( +. ) 0. a in
  {
    n;
    min = a.(0);
    max = a.(n - 1);
    mean = total /. float_of_int n;
    p50 = percentile_of_sorted a 0.5;
    p90 = percentile_of_sorted a 0.9;
    p99 = percentile_of_sorted a 0.99;
    measured;
  }

let snapshot () =
  (* Collect handles under the registry lock; summarising takes each
     histogram's own lock, so do it after release to keep lock
     ordering trivial. *)
  let metrics =
    with_lock registry_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  List.fold_left
    (fun acc (name, m) ->
      match m with
      | C c -> if Atomic.get c.v <> 0 then Counter (name, Atomic.get c.v) :: acc else acc
      | G g -> (
        match Atomic.get g.g with
        | Some v -> Gauge (name, v) :: acc
        | None -> acc)
      | H h ->
        let a = sorted_values h in
        if Array.length a > 0 then
          Histogram (name, summarise_sorted ~measured:h.h_measured a) :: acc
        else acc)
    [] metrics
  |> List.sort (fun a b ->
         let name = function
           | Counter (n, _) | Gauge (n, _) | Histogram (n, _) -> n
         in
         String.compare (name a) (name b))

let reset () = with_lock registry_lock (fun () -> Hashtbl.reset registry)
