type phase =
  | Steady
  | Waiting of { wt : int }
  | Running of { wt_granted : int; ct : int; dt_min : int; dt_max : int }
  | Safe of { age : int }
  | Error

type t = { phases : phase array; buffer : int list; owner : int option }

type outcome = {
  granted : (int * int) list;
  released : int list;
  preempted : int list;
  new_errors : int list;
  denied : int list;
}

type policy = Eager_preempt | Lazy_preempt

let initial specs =
  Array.iteri
    (fun i (s : Appspec.t) ->
      if s.Appspec.id <> i then
        invalid_arg "Slot_state.initial: ids must be dense and in order")
    specs;
  { phases = Array.map (fun _ -> Steady) specs; buffer = []; owner = None }

(* An application's quiet period is over at the coming tick: the
   [Safe -> Steady] step of aging, and why a disturbance arriving at
   that very instant is admissible. *)
let quiet_ends (spec : Appspec.t) age = age + 1 >= spec.Appspec.r

(* ------------------------------------------------------------------ *)
(* The working form.  Per application, the fields the packed codec
   stores (below), as ints:

     tags     Steady 0, Error 1, Waiting 2, Running 3, Safe 4
     xs       Waiting: wt; Running: wt_granted; Safe: age; else 0
     ys       Waiting: position in the EDF buffer; Running: ct; else 0
     budgets  remaining disturbance instances (0 when unbounded)

   plus the buffer itself ([order.(0 .. nwait - 1)], service order) and
   the running application ([occupant], -1 for none).  [dt_min]/[dt_max]
   are table lookups at [wt_granted].  In bounded mode an arrival spends
   its application's budget, and a [Safe] application with no budget
   left is collapsed to [Steady]. *)

let tag_steady = 0
let tag_error = 1
let tag_waiting = 2
let tag_running = 3
let tag_safe = 4

type work = {
  tags : int array;
  xs : int array;
  ys : int array;
  budgets : int array;
  order : int array;
  mutable nwait : int;
  mutable occupant : int;
  bounded : bool;
}

let make_work ~bounded n =
  {
    tags = Array.make n tag_steady;
    xs = Array.make n 0;
    ys = Array.make n 0;
    budgets = Array.make n 0;
    order = Array.make n 0;
    nwait = 0;
    occupant = -1;
    bounded;
  }

(* EDF insertion implementing the Sort automaton: the new request is
   placed before the first queued request with strictly larger slack.
   Slack of a waiting app = t_w_max - wt. *)
let slack specs w i = specs.(i).Appspec.t_w_max - w.xs.(i)

let admit specs w id =
  if id < 0 || id >= Array.length specs then
    invalid_arg "Slot_state.tick: bad id";
  if w.tags.(id) <> tag_steady then
    invalid_arg
      (Printf.sprintf
         "Slot_state.tick: disturbance for %s while not steady (violates \
          the sporadic model)"
         specs.(id).Appspec.name);
  if w.bounded then begin
    if w.budgets.(id) <= 0 then
      invalid_arg "Slot_state.tick_into: disturbance past the budget";
    w.budgets.(id) <- w.budgets.(id) - 1
  end;
  w.tags.(id) <- tag_waiting;
  w.xs.(id) <- 0;
  let s = slack specs w id in
  let p = ref 0 in
  while !p < w.nwait && slack specs w w.order.(!p) <= s do
    incr p
  done;
  for k = w.nwait downto !p + 1 do
    w.order.(k) <- w.order.(k - 1)
  done;
  w.order.(!p) <- id;
  w.nwait <- w.nwait + 1

(* the occupant leaves the slot for ET mode: the quiet timer of ET_SAFE
   runs from the sample at which the scheduler first saw the
   disturbance (the paper's time[id]), wt_granted + ct samples ago *)
let vacate w o =
  w.tags.(o) <- tag_safe;
  w.xs.(o) <- w.xs.(o) + w.ys.(o);
  w.ys.(o) <- 0;
  w.occupant <- -1

(* some waiter is on its last admissible sample *)
let last_chance specs w =
  let found = ref false and k = ref 0 in
  while (not !found) && !k < w.nwait do
    let i = w.order.(!k) in
    if w.xs.(i) >= specs.(i).Appspec.t_w_max then found := true;
    incr k
  done;
  !found

(* how the occupant of the previous sample left the slot, in bits 1-2
   of [tick_into]'s result *)
let left_released = 1
let left_preempted = 2
let left_denied = 3

let tick_into ~policy ~slot_available specs w ~disturbed =
  let n = Array.length specs in
  let tags = w.tags and xs = w.xs and ys = w.ys in
  (* 1. aging, and 2. quiet period over: an application whose
     post-disturbance quiet time reaches [r] returns to [Steady] *)
  for i = 0 to n - 1 do
    let tag = tags.(i) in
    if tag = tag_waiting then xs.(i) <- xs.(i) + 1
    else if tag = tag_running then ys.(i) <- ys.(i) + 1
    else if tag = tag_safe then
      if quiet_ends specs.(i) xs.(i) then begin
        tags.(i) <- tag_steady;
        xs.(i) <- 0
      end
      else xs.(i) <- xs.(i) + 1
  done;
  (* 3. admit new disturbances, in arrival order *)
  for k = 0 to Array.length disturbed - 1 do
    admit specs w disturbed.(k)
  done;
  (* 4. deadline misses: an application that has waited past T*_w can
     no longer be served within its table and is in error; it must be
     flagged (and dropped from the buffer) before any grant so the
     dwell lookup below never sees an out-of-range wait *)
  let erred = ref 0 in
  for i = 0 to n - 1 do
    if tags.(i) = tag_waiting && xs.(i) > specs.(i).Appspec.t_w_max then begin
      tags.(i) <- tag_error;
      xs.(i) <- 0;
      ys.(i) <- 0;
      erred := 1
    end
  done;
  if !erred = 1 then begin
    let m = ref 0 in
    for k = 0 to w.nwait - 1 do
      let id = w.order.(k) in
      if tags.(id) = tag_waiting then begin
        w.order.(!m) <- id;
        incr m
      end
    done;
    w.nwait <- !m
  end;
  (* 5. slot update; the buffer head is granted at the end when [grant]
     is set *)
  let left = ref 0 and grant = ref false in
  let o = w.occupant in
  if o >= 0 && tags.(o) <> tag_running then
    invalid_arg "Slot_state: owner not running";
  if not slot_available then begin
    (* TT slot blackout: the occupant is evicted to ET mode (its dwell
       may be cut below T-_dw — the guarantee monitor's business, not
       ours) and nobody is granted; waiting applications keep aging
       towards Error *)
    if o >= 0 then begin
      vacate w o;
      left := left_denied
    end
  end
  else if o < 0 then grant := true
  else begin
    let s = specs.(o) and wt = xs.(o) and ct = ys.(o) in
    if ct >= s.Appspec.t_dw_max.(wt) then begin
      (* voluntary release at the maximum useful dwell *)
      vacate w o;
      left := left_released;
      grant := true
    end
    else if
      ct >= s.Appspec.t_dw_min.(wt)
      && w.nwait > 0
      &&
      match policy with
      | Eager_preempt -> true
      | Lazy_preempt ->
        (* postpone until some waiter is on its last chance *)
        last_chance specs w
    then begin
      (* preemption once the minimum dwell is honoured *)
      vacate w o;
      left := left_preempted;
      grant := true
    end
  end;
  let g =
    if !grant && w.nwait > 0 then begin
      let id = w.order.(0) in
      if tags.(id) <> tag_waiting then
        invalid_arg "Slot_state: buffer head not waiting";
      for k = 1 to w.nwait - 1 do
        w.order.(k - 1) <- w.order.(k)
      done;
      w.nwait <- w.nwait - 1;
      tags.(id) <- tag_running;
      ys.(id) <- 0;
      w.occupant <- id;
      1 + id + (n * xs.(id))
    end
    else 0
  in
  for k = 0 to w.nwait - 1 do
    ys.(w.order.(k)) <- k
  done;
  (* bounded mode: an application that can never be disturbed again has
     a behaviourally inert quiet countdown *)
  if w.bounded then
    for i = 0 to n - 1 do
      if tags.(i) = tag_safe && w.budgets.(i) = 0 then begin
        tags.(i) <- tag_steady;
        xs.(i) <- 0
      end
    done;
  (g lsl 3) lor (!left lsl 1) lor !erred

let erred events = events land 1 = 1
let grant events = events lsr 3

let disturbable_mask specs w =
  let m = ref 0 in
  for i = 0 to Array.length specs - 1 do
    let tag = w.tags.(i) in
    if
      (tag = tag_steady || (tag = tag_safe && quiet_ends specs.(i) w.xs.(i)))
      && ((not w.bounded) || w.budgets.(i) > 0)
    then m := !m lor (1 lsl i)
  done;
  !m

(* the boxed state as a working form, and back *)
let load t w =
  if Array.length t.phases <> Array.length w.tags then
    invalid_arg "Slot_state: state of another group";
  for i = 0 to Array.length t.phases - 1 do
    match t.phases.(i) with
    | Steady ->
      w.tags.(i) <- tag_steady;
      w.xs.(i) <- 0;
      w.ys.(i) <- 0
    | Error ->
      w.tags.(i) <- tag_error;
      w.xs.(i) <- 0;
      w.ys.(i) <- 0
    | Waiting { wt } ->
      w.tags.(i) <- tag_waiting;
      w.xs.(i) <- wt
    | Running { wt_granted; ct; _ } ->
      w.tags.(i) <- tag_running;
      w.xs.(i) <- wt_granted;
      w.ys.(i) <- ct
    | Safe { age } ->
      w.tags.(i) <- tag_safe;
      w.xs.(i) <- age;
      w.ys.(i) <- 0
  done;
  let rec queue k = function
    | [] -> w.nwait <- k
    | id :: rest ->
      w.order.(k) <- id;
      w.ys.(id) <- k;
      queue (k + 1) rest
  in
  queue 0 t.buffer;
  w.occupant <- (match t.owner with Some o -> o | None -> -1)

let unload specs w =
  let phases = Array.make (Array.length specs) Steady in
  for i = 0 to Array.length specs - 1 do
    let tag = w.tags.(i) and x = w.xs.(i) in
    if tag = tag_error then phases.(i) <- Error
    else if tag = tag_waiting then phases.(i) <- Waiting { wt = x }
    else if tag = tag_running then
      phases.(i) <-
        Running
          {
            wt_granted = x;
            ct = w.ys.(i);
            dt_min = specs.(i).Appspec.t_dw_min.(x);
            dt_max = specs.(i).Appspec.t_dw_max.(x);
          }
    else if tag = tag_safe then phases.(i) <- Safe { age = x }
  done;
  let buffer = ref [] in
  for k = w.nwait - 1 downto 0 do
    buffer := w.order.(k) :: !buffer
  done;
  {
    phases;
    buffer = !buffer;
    owner = (if w.occupant < 0 then None else Some w.occupant);
  }

let tick ?(policy = Eager_preempt) ?(slot_available = true) specs state
    ~disturbed =
  let n = Array.length specs in
  let w = make_work ~bounded:false n in
  load state w;
  let events =
    tick_into ~policy ~slot_available specs w
      ~disturbed:(Array.of_list disturbed)
  in
  let left how =
    match state.owner with
    | Some o when (events lsr 1) land 3 = how -> [ o ]
    | Some _ | None -> []
  in
  let g = grant events in
  ( unload specs w,
    {
      granted = (if g = 0 then [] else [ ((g - 1) mod n, (g - 1) / n) ]);
      released = left left_released;
      preempted = left left_preempted;
      new_errors =
        (if erred events then
           List.filter
             (fun i -> w.tags.(i) = tag_error && state.phases.(i) <> Error)
             (List.init n Fun.id)
         else []);
      denied = left left_denied;
    } )

let has_error t =
  Array.exists (function Error -> true | _ -> false) t.phases

let phase t i = t.phases.(i)

let all_steady t =
  Array.for_all (function Steady -> true | _ -> false) t.phases

let disturbable specs t =
  let acc = ref [] in
  for i = Array.length t.phases - 1 downto 0 do
    match t.phases.(i) with
    | Steady -> acc := i :: !acc
    | Safe { age } when quiet_ends specs.(i) age -> acc := i :: !acc
    | Waiting _ | Running _ | Safe _ | Error -> ()
  done;
  !acc

let equal a b =
  a.owner = b.owner && a.buffer = b.buffer && a.phases = b.phases

(* ------------------------------------------------------------------ *)
(* Packed codec.  Every timing variable of a state ranges over a small
   finite set fixed by its application's spec, so a state is a row of
   per-application bit fields.  Each application owns [width] bits,
   read as one int laid out (most significant first) as

     tag (3 bits) | x | budget | y

   with the working form's tag, x, budget and y; x is equally wide in
   every application's field.  [dt_min]/[dt_max] are table lookups at
   [wt_granted], the buffer is the waiting applications ordered by
   position, and the owner is the one running application, so nothing
   else is stored.  The fields are packed in application order into the
   ints of an array, [word_bits] bits per int, starting a new int
   whenever the next field would not fit, so a field never straddles two
   ints; unused bits stay zero, so array equality is state equality.

   The antichain's comparisons work on whole ints.  Only [Safe] (4) sets
   a tag's bit 2, so shifting an int right by 2 and masking it with the
   positions of every tag's bit 0 ([tag0]) leaves one bit [s] per [Safe]
   application, directly above its age; with x [wx] bits wide,
   [s - (s lsr wx)] covers exactly those ages. *)

module Packed = struct
  (* one application's field: int [word] of the encoding, bits
     [shift, shift + width) *)
  type app = {
    spec : Appspec.t;
    word : int;
    shift : int;
    width : int;
    tag_shift : int;
    x_shift : int;
    x_mask : int;
    budget_shift : int;
    y_mask : int;
  }

  type layout = {
    specs : Appspec.t array;
    apps : app array;
    bounded : bool;
    instances : int;
    budget_mask : int;
    bits : int;
    words : int;
    wx : int;  (* width of every field's x *)
    tag0 : int array;  (* per int of an encoding, bit 0 of every tag *)
  }

  let max_width = 49
  let word_bits = 62

  (* bits needed to hold every value in [0, v] *)
  let bits_for v =
    let rec go b = if v lsr b = 0 then b else go (b + 1) in
    go 0

  let layout ?instances specs =
    let n = Array.length specs in
    let k =
      match instances with
      | None -> 0
      | Some k when k >= 0 -> k
      | Some _ -> invalid_arg "Slot_state.Packed.layout: negative instances"
    in
    let wb = bits_for k in
    (* wt and wt_granted never exceed t_w_max, and age stays below r
       (Appspec guarantees r > t_w + t_dw_max(t_w)); ct stays below the
       granted t_dw_max *)
    let wx =
      Array.fold_left
        (fun m (spec : Appspec.t) ->
          Int.max m
            (Int.max (bits_for spec.Appspec.t_w_max) (bits_for (spec.Appspec.r - 1))))
        0 specs
    in
    let word = ref 0 and shift = ref 0 and bits = ref 0 in
    let apps =
      Array.map
        (fun (spec : Appspec.t) ->
          let wy =
            Int.max (bits_for (n - 1))
              (bits_for (Array.fold_left Int.max 0 spec.Appspec.t_dw_max))
          in
          let width = 3 + wx + wb + wy in
          if width > max_width then
            invalid_arg
              "Slot_state.Packed.layout: an application field exceeds 49 bits";
          if !shift + width > word_bits then begin
            incr word;
            shift := 0
          end;
          let a =
            {
              spec;
              word = !word;
              shift = !shift;
              width;
              tag_shift = wx + wb + wy;
              x_shift = wb + wy;
              x_mask = (1 lsl wx) - 1;
              budget_shift = wy;
              y_mask = (1 lsl wy) - 1;
            }
          in
          shift := !shift + width;
          bits := !bits + width;
          a)
        specs
    in
    let words = if n = 0 then 0 else !word + 1 in
    let tag0 = Array.make words 0 in
    Array.iter
      (fun a ->
        tag0.(a.word) <- tag0.(a.word) lor (1 lsl (a.shift + a.tag_shift)))
      apps;
    {
      specs;
      apps;
      bounded = Option.is_some instances;
      instances = k;
      budget_mask = (1 lsl wb) - 1;
      bits = !bits;
      words;
      wx;
      tag0;
    }

  let bits l = l.bits
  let length l = l.words

  let work l =
    let w = make_work ~bounded:l.bounded (Array.length l.apps) in
    Array.fill w.budgets 0 (Array.length l.apps) l.instances;
    w

  let check_length l e =
    if Array.length e <> l.words then
      invalid_arg "Slot_state.Packed: not an encoding of this layout"

  let field a e = (Array.unsafe_get e a.word lsr a.shift) land ((1 lsl a.width) - 1)

  let set_field a e v =
    let m = ((1 lsl a.width) - 1) lsl a.shift in
    Array.unsafe_set e a.word
      ((Array.unsafe_get e a.word land lnot m) lor (v lsl a.shift))

  let read l e w =
    check_length l e;
    let n = Array.length l.apps in
    let bad () = invalid_arg "Slot_state.Packed.read: not an encoding" in
    for k = 0 to n - 1 do
      w.order.(k) <- -1
    done;
    w.occupant <- -1;
    let nwait = ref 0 in
    for i = 0 to n - 1 do
      let a = l.apps.(i) in
      let v = field a e in
      let tag = v lsr a.tag_shift
      and x = (v lsr a.x_shift) land a.x_mask
      and y = v land a.y_mask in
      w.tags.(i) <- tag;
      w.xs.(i) <- x;
      w.ys.(i) <- y;
      w.budgets.(i) <- (v lsr a.budget_shift) land l.budget_mask;
      if tag = tag_waiting then begin
        if x > a.spec.Appspec.t_w_max || y >= n || w.order.(y) >= 0 then bad ();
        w.order.(y) <- i;
        incr nwait
      end
      else if tag = tag_running then begin
        if x > a.spec.Appspec.t_w_max || w.occupant >= 0 then bad ();
        w.occupant <- i
      end
      else if tag > tag_safe then bad ()
    done;
    for k = 0 to !nwait - 1 do
      if w.order.(k) < 0 then bad ()
    done;
    w.nwait <- !nwait

  let write l w e =
    check_length l e;
    for k = 0 to l.words - 1 do
      Array.unsafe_set e k 0
    done;
    for i = 0 to Array.length l.apps - 1 do
      let a = l.apps.(i) in
      let x = w.xs.(i) and y = w.ys.(i) and bi = w.budgets.(i) in
      if
        x < 0 || x > a.x_mask || y < 0 || y > a.y_mask || bi < 0
        || bi > l.instances
      then invalid_arg "Slot_state.Packed.write: state outside the layout";
      Array.unsafe_set e a.word
        (Array.unsafe_get e a.word
        lor (((w.tags.(i) lsl a.tag_shift) lor (x lsl a.x_shift)
             lor (bi lsl a.budget_shift) lor y)
            lsl a.shift))
    done

  let decode l e =
    let w = make_work ~bounded:l.bounded (Array.length l.apps) in
    read l e w;
    unload l.specs w

  let budget l e i =
    check_length l e;
    let a = l.apps.(i) in
    (field a e lsr a.budget_shift) land l.budget_mask

  (* an Error tag (1) has bit 0 set and bits 1 and 2 clear *)
  let has_error l e =
    check_length l e;
    let found = ref false in
    for k = 0 to l.words - 1 do
      let v = Array.unsafe_get e k in
      if v land l.tag0.(k) land lnot (v lsr 1) land lnot (v lsr 2) <> 0 then
        found := true
    done;
    !found

  let sort_apps l orbits e ~into =
    check_length l e;
    check_length l into;
    let out = ref e in
    for o = 0 to Array.length orbits - 1 do
      let g = orbits.(o) in
      let first = l.apps.(g.(0)) in
      let sorted = ref true and prev = ref (field first !out) in
      for k = 1 to Array.length g - 1 do
        let a = l.apps.(g.(k)) in
        if a.width <> first.width || a.x_shift <> first.x_shift then
          invalid_arg "Slot_state.Packed.sort_apps: mixed layouts";
        let v = field a !out in
        if v < !prev then sorted := false;
        prev := v
      done;
      if not !sorted then begin
        if !out != into then Array.blit !out 0 into 0 l.words;
        (* insertion sort of the members' fields, in place *)
        for k = 1 to Array.length g - 1 do
          let v = field l.apps.(g.(k)) into in
          let j = ref (k - 1) in
          while !j >= 0 && field l.apps.(g.(!j)) into > v do
            set_field l.apps.(g.(!j + 1)) into (field l.apps.(g.(!j)) into);
            decr j
          done;
          set_field l.apps.(g.(!j + 1)) into v
        done;
        out := into
      end
    done;
    !out

  (* the bit above each [Safe] application's age in int [k] of [e] *)
  let safe_bits l e k = (Array.unsafe_get e k lsr 2) land Array.unsafe_get l.tag0 k
  let ages_mask l s = s - (s lsr l.wx)

  let hash_quiet l e =
    check_length l e;
    let h = ref 0 in
    for k = 0 to l.words - 1 do
      let m = ages_mask l (safe_bits l e k) in
      h := (!h lxor (Array.unsafe_get e k land lnot m)) * 0x100000001b3
    done;
    (!h lxor (!h lsr 29)) land max_int

  (* a [Safe] application in only one of [a] and [b] has a different
     tag, which [a]'s mask keeps *)
  let equal_quiet l a b =
    check_length l a;
    check_length l b;
    let eq = ref true and k = ref 0 in
    while !eq && !k < l.words do
      let m = ages_mask l (safe_bits l a !k) in
      if Array.unsafe_get a !k lor m <> Array.unsafe_get b !k lor m then
        eq := false;
      incr k
    done;
    !eq

  (* every age field at once: with the bit above each age set in [a]'s
     ages, subtracting [b]'s ages clears it exactly where [b]'s age is
     larger *)
  let older l a b =
    check_length l a;
    check_length l b;
    let ok = ref true and k = ref 0 in
    while !ok && !k < l.words do
      let s = safe_bits l a !k in
      let m = ages_mask l s in
      if
        (((Array.unsafe_get a !k land m) lor s) - (Array.unsafe_get b !k land m))
        land s
        <> s
      then ok := false;
      incr k
    done;
    !ok
end

let pp specs ppf t =
  let pp_phase ppf = function
    | Steady -> Format.pp_print_string ppf "steady"
    | Waiting { wt } -> Format.fprintf ppf "wait(%d)" wt
    | Running { ct; wt_granted; _ } -> Format.fprintf ppf "run(ct=%d,w=%d)" ct wt_granted
    | Safe { age } -> Format.fprintf ppf "safe(%d)" age
    | Error -> Format.pp_print_string ppf "ERROR"
  in
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun i p ->
      if i > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%s:%a" specs.(i).Appspec.name pp_phase p)
    t.phases;
  Format.fprintf ppf "@]"
