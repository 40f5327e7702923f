type field =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  ts_s : float;  (* monotonic seconds since [enable] *)
  domain : int;
  name : string;
  fields : (string * field) list;
}

(* The stream has its own switch, independent of Trace_ctx: metrics
   are cheap enough to leave on whenever --metrics is given, while the
   event stream allocates a record per emission and is only worth
   paying for when a sink (--events) will consume it. *)
let on = Atomic.make false
let t0 = Atomic.make 0.

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

let default_capacity = 65536
let capacity = ref default_capacity
let queue : t Queue.t = Queue.create ()
let queued : (string, int) Hashtbl.t = Hashtbl.create 16 (* per name *)
let dropped_count = ref 0

let enabled () = Atomic.get on

let enable () =
  Atomic.set t0 (Clock.now ());
  Atomic.set on true

let disable () = Atomic.set on false

let set_capacity n =
  with_lock (fun () ->
      capacity := Int.max 1 n;
      Queue.clear queue;
      Hashtbl.reset queued;
      dropped_count := 0)

let dropped () = with_lock (fun () -> !dropped_count)

(* Drop-newest under pressure, per event name: each name keeps the
   prefix of its own records intact (heartbeat rates stay
   interpretable, and a chatty source such as pool task lifecycles
   cannot crowd the search's records out) and the drop counter reports
   the truncation. *)
let emit name fields =
  if Atomic.get on then begin
    let ev =
      {
        ts_s = Clock.now () -. Atomic.get t0;
        domain = (Domain.self () :> int);
        name;
        fields;
      }
    in
    with_lock (fun () ->
        let k = Option.value ~default:0 (Hashtbl.find_opt queued name) in
        if k >= !capacity then incr dropped_count
        else begin
          Hashtbl.replace queued name (k + 1);
          Queue.add ev queue
        end)
  end

let drain () =
  with_lock (fun () ->
      let out = List.of_seq (Queue.to_seq queue) in
      Queue.clear queue;
      Hashtbl.reset queued;
      out)

let reset () =
  with_lock (fun () ->
      Queue.clear queue;
      Hashtbl.reset queued;
      dropped_count := 0);
  Atomic.set on false

let to_json ev =
  let field_json = function
    | Int i -> Jsonx.Int i
    | Float f -> Jsonx.Float f
    | Str s -> Jsonx.String s
    | Bool b -> Jsonx.Bool b
  in
  Jsonx.Assoc
    (("ev", Jsonx.String ev.name)
     :: ("ts_s", Jsonx.Float ev.ts_s)
     :: ("domain", Jsonx.Int ev.domain)
     :: List.map (fun (k, v) -> (k, field_json v)) ev.fields)
