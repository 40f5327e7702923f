(* The benchmark's own spans, recorded around each call into a layer.

   A span holds a name, start, end, parent span and op id.  Spans stay
   in memory; [summary] folds them into per-layer totals and self time
   (a span's duration minus the union of its children's intervals), and
   nothing else is written out.  Spans are opened on the calling domain
   only; work timed on pool workers is added afterwards with [add]. *)

type span = {
  name : string;
  op : int;
  parent : int;
  start : float;
  mutable stop : float;
}

let spans = ref [||]
let count = ref 0
let current = ref (-1)
let op = ref 0

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (Int.max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let with_ name f =
  let id = push { name; op = !op; parent = !current; start = Util.now (); stop = 0. } in
  let saved = !current in
  current := id;
  Fun.protect
    ~finally:(fun () ->
      !spans.(id).stop <- Util.now ();
      current := saved)
    f

(* one root span per op; every span opened inside carries its id *)
let with_op id f =
  op := id;
  with_ "op" f

(* a span measured elsewhere (e.g. on a pool worker), under the
   innermost open span *)
let add name ~start ~stop =
  ignore (push { name; op = !op; parent = !current; start; stop })

type layer = { mutable n : int; mutable total : float; mutable self : float }

(* length of the union of [intervals] clipped to [lo, hi] *)
let covered lo hi intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur_lo cur_hi = function
    | [] -> acc +. Float.max 0. (cur_hi -. cur_lo)
    | (a, b) :: rest ->
      let a = Float.max lo a and b = Float.min hi b in
      if b <= a then go acc cur_lo cur_hi rest
      else if a > cur_hi then go (acc +. Float.max 0. (cur_hi -. cur_lo)) a b rest
      else go acc cur_lo (Float.max cur_hi b) rest
  in
  go 0. lo lo sorted

let summary () =
  let children = Array.make !count [] in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then
      children.(s.parent) <- (s.start, s.stop) :: children.(s.parent)
  done;
  let layers = Hashtbl.create 16 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    let l =
      match Hashtbl.find_opt layers s.name with
      | Some l -> l
      | None ->
        let l = { n = 0; total = 0.; self = 0. } in
        Hashtbl.add layers s.name l;
        l
    in
    let dur = s.stop -. s.start in
    l.n <- l.n + 1;
    l.total <- l.total +. dur;
    l.self <- l.self +. dur -. covered s.start s.stop children.(i)
  done;
  layers

let layer layers name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None -> { n = 0; total = 0.; self = 0. }

(* the share of op wall time that layer spans cover *)
let coverage layers =
  let o = layer layers "op" in
  if o.total = 0. then 0. else 1. -. (o.self /. o.total)

let print layers =
  let o = layer layers "op" in
  Printf.printf "trace: %d span(s) over %d op(s); self time per layer:\n" !count o.n;
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) layers []
  |> List.sort (fun (_, a) (_, b) -> compare b.self a.self)
  |> List.iter (fun (name, l) ->
         Printf.printf "  %-18s %7d span(s) %10.3f ms self %6.1f%% of op time\n"
           name l.n (l.self *. 1000.)
           (100. *. Util.ratio l.self o.total))
