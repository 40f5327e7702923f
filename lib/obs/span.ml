type t = int

let none = 0

type open_span = {
  o_name : string;
  o_parent : int option;
  o_start : float;
  o_minor_w : float;
  o_major_w : float;
  o_compact : int;
}

type record = {
  id : int;
  name : string;
  parent : int option;
  start_s : float;
  dur_s : float;
  gc_minor_w : float;
  gc_major_w : float;
  gc_compact : int;
}

(* Open spans and the finished ring share one mutex: both are touched
   on every start/finish, contention is bounded by span frequency
   (phases, not inner loops), and a single lock rules out ordering
   bugs between the two structures. *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let open_spans : (int, open_span) Hashtbl.t = Hashtbl.create 16

(* Fixed-capacity ring of finished spans, oldest overwritten first: a
   long-running command with spans in a hot loop keeps the newest
   [capacity] records and counts the rest instead of growing without
   bound. *)
let default_capacity = 8192
let ring : record option array ref = ref (Array.make default_capacity None)
let ring_head = ref 0 (* next write position *)
let ring_len = ref 0
let dropped_count = ref 0

let set_capacity n =
  let n = Int.max 1 n in
  with_lock (fun () ->
      ring := Array.make n None;
      ring_head := 0;
      ring_len := 0;
      dropped_count := 0)

let dropped () = with_lock (fun () -> !dropped_count)

let push_finished r =
  let cap = Array.length !ring in
  if !ring_len = cap then incr dropped_count else incr ring_len;
  !ring.(!ring_head) <- Some r;
  ring_head := (!ring_head + 1) mod cap

let start name =
  if not (Trace_ctx.enabled ()) then none
  else begin
    let id = Trace_ctx.fresh_id () in
    let parent = Trace_ctx.current_parent () in
    let gc = Gc.quick_stat () in
    let minor_w = Gc.minor_words () in
    with_lock (fun () ->
        Hashtbl.replace open_spans id
          {
            o_name = name;
            o_parent = parent;
            o_start = Clock.now ();
            o_minor_w = minor_w;
            o_major_w = gc.Gc.major_words;
            o_compact = gc.Gc.compactions;
          });
    Trace_ctx.push id;
    id
  end

let finish t =
  if t <> none then begin
    let now = Clock.now () in
    let minor_w = Gc.minor_words () in
    let gc = Gc.quick_stat () in
    with_lock (fun () ->
        match Hashtbl.find_opt open_spans t with
        | None -> ()
        | Some o ->
          Hashtbl.remove open_spans t;
          push_finished
            {
              id = t;
              name = o.o_name;
              parent = o.o_parent;
              start_s = o.o_start;
              dur_s = now -. o.o_start;
              gc_minor_w = minor_w -. o.o_minor_w;
              gc_major_w = gc.Gc.major_words -. o.o_major_w;
              gc_compact = gc.Gc.compactions - o.o_compact;
            });
    Trace_ctx.pop t
  end

let with_ name f =
  if not (Trace_ctx.enabled ()) then f ()
  else begin
    let s = start name in
    Fun.protect ~finally:(fun () -> finish s) f
  end

let drain () =
  with_lock (fun () ->
      let cap = Array.length !ring in
      let n = !ring_len in
      let first = (!ring_head - n + cap) mod cap in
      let out = ref [] in
      for i = n - 1 downto 0 do
        match !ring.((first + i) mod cap) with
        | Some r -> out := r :: !out
        | None -> ()
      done;
      Array.fill !ring 0 cap None;
      ring_head := 0;
      ring_len := 0;
      !out)

let reset () =
  with_lock (fun () ->
      Hashtbl.reset open_spans;
      Array.fill !ring 0 (Array.length !ring) None;
      ring_head := 0;
      ring_len := 0;
      dropped_count := 0)
