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

(* EDF insertion implementing the Sort automaton: the new request is
   placed before the first queued request with strictly larger slack.
   Slack of a waiting app = t_w_max - wt. *)
let slack specs phases i =
  match phases.(i) with
  | Waiting { wt } -> specs.(i).Appspec.t_w_max - wt
  | Steady | Running _ | Safe _ | Error ->
    invalid_arg "Slot_state: non-waiting id in buffer"

let rec insert_edf specs phases s_new id = function
  | [] -> [ id ]
  | q :: rest as all ->
    if slack specs phases q > s_new then id :: all
    else q :: insert_edf specs phases s_new id rest

(* admit the disturbances of one tick, in arrival order *)
let rec admit specs phases buffer = function
  | [] -> buffer
  | id :: rest ->
    if id < 0 || id >= Array.length specs then
      invalid_arg "Slot_state.tick: bad id";
    (match phases.(id) with
     | Steady -> phases.(id) <- Waiting { wt = 0 }
     | Waiting _ | Running _ | Safe _ | Error ->
       invalid_arg
         (Printf.sprintf
            "Slot_state.tick: disturbance for %s while not steady \
             (violates the sporadic model)"
            specs.(id).Appspec.name));
    admit specs phases
      (insert_edf specs phases (slack specs phases id) id buffer)
      rest

let tick ?(policy = Eager_preempt) ?(slot_available = true) specs state ~disturbed =
  let n = Array.length specs in
  let phases = Array.copy state.phases in
  (* 1. aging, and 2. quiet period over: an application whose
     post-disturbance quiet time reaches [r] returns to [Steady] *)
  for i = 0 to n - 1 do
    match phases.(i) with
    | Steady | Error -> ()
    | Waiting { wt } -> phases.(i) <- Waiting { wt = wt + 1 }
    | Running r -> phases.(i) <- Running { r with ct = r.ct + 1 }
    | Safe { age } ->
      phases.(i) <-
        (if age + 1 >= specs.(i).Appspec.r then Steady else Safe { age = age + 1 })
  done;
  (* 3. admit new disturbances *)
  let buffer = ref (admit specs phases state.buffer disturbed) in
  (* 4. deadline misses: an application that has waited past T*_w can
     no longer be served within its table and is in error; it must be
     flagged (and dropped from the buffer) before any grant so the
     dwell lookup below never sees an out-of-range wait *)
  let new_errors = ref [] in
  for i = n - 1 downto 0 do
    match phases.(i) with
    | Waiting { wt } when wt > specs.(i).Appspec.t_w_max ->
      phases.(i) <- Error;
      new_errors := i :: !new_errors
    | Waiting _ | Steady | Running _ | Safe _ | Error -> ()
  done;
  (match !new_errors with
   | [] -> ()
   | _ :: _ ->
     buffer :=
       List.filter
         (fun id -> match phases.(id) with Waiting _ -> true | _ -> false)
         !buffer);
  (* 5. slot update; the buffer head is granted at the end when [grant]
     is set *)
  let released = ref [] and preempted = ref [] and denied = ref [] in
  let owner = ref state.owner and grant = ref false in
  if not slot_available then begin
    (* TT slot blackout: the occupant is evicted to ET mode (its dwell
       may be cut below T-_dw — the guarantee monitor's business, not
       ours) and nobody is granted; waiting applications keep aging
       towards Error *)
    match !owner with
    | None -> ()
    | Some id ->
      (match phases.(id) with
       | Running { ct; wt_granted; _ } ->
         phases.(id) <- Safe { age = wt_granted + ct };
         owner := None;
         denied := [ id ]
       | Steady | Waiting _ | Safe _ | Error ->
         invalid_arg "Slot_state: owner not running")
  end
  else
  (match !owner with
   | None -> grant := true
   | Some id ->
     (match phases.(id) with
      | Running { ct; dt_max; dt_min; wt_granted } ->
        (* the quiet timer of ET_SAFE runs from the sample at which the
           scheduler first saw the disturbance (the paper's time[id]),
           which is wt_granted + ct samples ago *)
        if ct >= dt_max then begin
          (* voluntary release at the maximum useful dwell *)
          phases.(id) <- Safe { age = wt_granted + ct };
          owner := None;
          released := [ id ];
          grant := true
        end
        else if
          ct >= dt_min
          && (match !buffer with [] -> false | _ :: _ -> true)
          && (match policy with
              | Eager_preempt -> true
              | Lazy_preempt ->
                (* postpone until some waiter is on its last chance *)
                List.exists
                  (fun i ->
                    match phases.(i) with
                    | Waiting { wt } -> wt >= specs.(i).Appspec.t_w_max
                    | Steady | Running _ | Safe _ | Error -> false)
                  !buffer)
        then begin
          (* preemption once the minimum dwell is honoured *)
          phases.(id) <- Safe { age = wt_granted + ct };
          owner := None;
          preempted := [ id ];
          grant := true
        end
      | Steady | Waiting _ | Safe _ | Error ->
        invalid_arg "Slot_state: owner not running"));
  let granted = ref [] in
  (if !grant then
     match !buffer with
     | [] -> ()
     | id :: rest ->
       (match phases.(id) with
        | Waiting { wt } ->
          let dt_min = specs.(id).Appspec.t_dw_min.(wt)
          and dt_max = specs.(id).Appspec.t_dw_max.(wt) in
          phases.(id) <- Running { wt_granted = wt; ct = 0; dt_min; dt_max };
          buffer := rest;
          owner := Some id;
          granted := [ (id, wt) ]
        | Steady | Running _ | Safe _ | Error ->
          invalid_arg "Slot_state: buffer head not waiting"));
  ( { phases; buffer = !buffer; owner = !owner },
    {
      granted = !granted;
      released = !released;
      preempted = !preempted;
      new_errors = !new_errors;
      denied = !denied;
    } )

let force_steady t ~keep_quiet =
  let changed = ref false in
  let phases =
    Array.mapi
      (fun i p ->
        match p with
        | Safe _ when not (keep_quiet i) ->
          changed := true;
          Steady
        | Safe _ | Steady | Waiting _ | Running _ | Error -> p)
      t.phases
  in
  if !changed then { t with phases } else t

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
    | Safe { age } when age + 1 >= specs.(i).Appspec.r -> acc := i :: !acc
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

     tag     Steady 0, Error 1, Waiting 2, Running 3, Safe 4
     x       Waiting: wt; Running: wt_granted; Safe: age; else 0
     budget  remaining disturbance instances (0 bits when unbounded)
     y       Waiting: position in the EDF buffer; Running: ct; else 0

   [dt_min]/[dt_max] are table lookups at [wt_granted], the buffer is
   the waiting applications ordered by position, and the owner is the
   one running application, so nothing else is stored.  The fields are
   concatenated little-endian (stream bit [k] is bit [k land 7] of
   byte [k lsr 3]) into [nbytes] bytes whose spare bits stay zero, so
   string equality is state equality.

   A field is at most 49 bits, so it moves through one int at any bit
   offset (49 + 7 < 63).  Whole encodings are read and written front to
   back, [acc] holding the [nacc] bits not yet consumed or flushed. *)

module Packed = struct
  (* one application's field *)
  type app = {
    spec : Appspec.t;
    off : int;  (* first bit *)
    width : int;
    tag_shift : int;
    x_shift : int;
    x_mask : int;
    budget_shift : int;
    y_mask : int;
  }

  type layout = {
    apps : app array;
    instances : int;
    budget_mask : int;
    bits : int;
    nbytes : int;
  }

  let tag_steady = 0
  let tag_error = 1
  let tag_waiting = 2
  let tag_running = 3
  let tag_safe = 4
  let max_width = 49

  (* bits needed to hold every value in [0, v] *)
  let bits_for v =
    let rec go b = if v lsr b = 0 then b else go (b + 1) in
    go 0

  let layout ?instances specs =
    let n = Array.length specs in
    let instances =
      match instances with
      | None -> 0
      | Some k when k >= 0 -> k
      | Some _ -> invalid_arg "Slot_state.Packed.layout: negative instances"
    in
    let wb = bits_for instances in
    let off = ref 0 in
    let apps =
      Array.map
        (fun (spec : Appspec.t) ->
          (* wt and wt_granted never exceed t_w_max, and age stays below
             r (Appspec guarantees r > t_w + t_dw_max(t_w)); ct stays
             below the granted t_dw_max *)
          let wx =
            Int.max (bits_for spec.Appspec.t_w_max) (bits_for (spec.Appspec.r - 1))
          and wy =
            Int.max (bits_for (n - 1))
              (bits_for (Array.fold_left Int.max 0 spec.Appspec.t_dw_max))
          in
          let width = 3 + wx + wb + wy in
          if width > max_width then
            invalid_arg
              "Slot_state.Packed.layout: an application field exceeds 49 bits";
          let a =
            {
              spec;
              off = !off;
              width;
              tag_shift = wx + wb + wy;
              x_shift = wb + wy;
              x_mask = (1 lsl wx) - 1;
              budget_shift = wy;
              y_mask = (1 lsl wy) - 1;
            }
          in
          off := !off + width;
          a)
        specs
    in
    {
      apps;
      instances;
      budget_mask = (1 lsl wb) - 1;
      bits = !off;
      nbytes = (!off + 7) / 8;
    }

  let bits l = l.bits

  (* random access to one field: the bytes it spans, high to low *)
  let field a s =
    let v = ref 0 in
    for k = (a.off + a.width - 1) lsr 3 downto a.off lsr 3 do
      v := (!v lsl 8) lor Char.code s.[k]
    done;
    (!v lsr (a.off land 7)) land ((1 lsl a.width) - 1)

  let check_length l s =
    if String.length s <> l.nbytes then
      invalid_arg "Slot_state.Packed: not an encoding of this layout"

  let rec position id k = function
    | [] -> -1
    | j :: rest -> if j = id then k else position id (k + 1) rest

  let encode l ?budget t =
    let n = Array.length l.apps in
    let bad () = invalid_arg "Slot_state.Packed.encode: state outside the layout" in
    if Array.length t.phases <> n then bad ();
    (match budget with Some b when Array.length b <> n -> bad () | _ -> ());
    let b = Bytes.create l.nbytes in
    let acc = ref 0 and nacc = ref 0 and pos = ref 0 in
    let waiting = ref 0 and running = ref 0 in
    for i = 0 to n - 1 do
      let a = l.apps.(i) in
      let tag = ref tag_steady and x = ref 0 and y = ref 0 in
      (match t.phases.(i) with
       | Steady -> ()
       | Error -> tag := tag_error
       | Waiting { wt } ->
         let p = position i 0 t.buffer in
         if p < 0 || wt > a.spec.Appspec.t_w_max then bad ();
         incr waiting;
         tag := tag_waiting;
         x := wt;
         y := p
       | Running { wt_granted; ct; dt_min; dt_max } ->
         if
           (match t.owner with Some o -> o <> i | None -> true)
           || wt_granted < 0
           || wt_granted > a.spec.Appspec.t_w_max
           || dt_min <> a.spec.Appspec.t_dw_min.(wt_granted)
           || dt_max <> a.spec.Appspec.t_dw_max.(wt_granted)
         then bad ();
         incr running;
         tag := tag_running;
         x := wt_granted;
         y := ct
       | Safe { age } ->
         tag := tag_safe;
         x := age);
      let bi = match budget with None -> 0 | Some b -> b.(i) in
      if
        !x < 0 || !x > a.x_mask || !y < 0 || !y > a.y_mask || bi < 0
        || bi > l.instances
      then bad ();
      let v =
        (!tag lsl a.tag_shift) lor (!x lsl a.x_shift)
        lor (bi lsl a.budget_shift) lor !y
      in
      acc := !acc lor (v lsl !nacc);
      nacc := !nacc + a.width;
      while !nacc >= 8 do
        Bytes.unsafe_set b !pos (Char.unsafe_chr (!acc land 0xff));
        incr pos;
        acc := !acc lsr 8;
        nacc := !nacc - 8
      done
    done;
    if !nacc > 0 then Bytes.unsafe_set b !pos (Char.unsafe_chr !acc);
    if
      !waiting <> List.length t.buffer
      || !running <> match t.owner with None -> 0 | Some _ -> 1
    then bad ();
    Bytes.unsafe_to_string b

  let decode l s =
    check_length l s;
    let n = Array.length l.apps in
    let bad () = invalid_arg "Slot_state.Packed.decode: not an encoding" in
    let phases = Array.make n Steady in
    let at = Array.make n (-1) in
    let owner = ref None and waiting = ref 0 in
    let acc = ref 0 and nacc = ref 0 and pos = ref 0 in
    for i = 0 to n - 1 do
      let a = l.apps.(i) in
      while !nacc < a.width do
        acc := !acc lor (Char.code (String.unsafe_get s !pos) lsl !nacc);
        incr pos;
        nacc := !nacc + 8
      done;
      let v = !acc land ((1 lsl a.width) - 1) in
      acc := !acc lsr a.width;
      nacc := !nacc - a.width;
      let x = (v lsr a.x_shift) land a.x_mask and y = v land a.y_mask in
      let tag = v lsr a.tag_shift in
      if tag = tag_steady then ()
      else if tag = tag_error then phases.(i) <- Error
      else if tag = tag_waiting then begin
        if x > a.spec.Appspec.t_w_max || y >= n || at.(y) >= 0 then bad ();
        at.(y) <- i;
        incr waiting;
        phases.(i) <- Waiting { wt = x }
      end
      else if tag = tag_running then begin
        if x > a.spec.Appspec.t_w_max || Option.is_some !owner then bad ();
        owner := Some i;
        phases.(i) <-
          Running
            {
              wt_granted = x;
              ct = y;
              dt_min = a.spec.Appspec.t_dw_min.(x);
              dt_max = a.spec.Appspec.t_dw_max.(x);
            }
      end
      else if tag = tag_safe then phases.(i) <- Safe { age = x }
      else bad ()
    done;
    let buffer = ref [] in
    for k = !waiting - 1 downto 0 do
      if at.(k) < 0 then bad ();
      buffer := at.(k) :: !buffer
    done;
    { phases; buffer = !buffer; owner = !owner }

  let budget l s i =
    check_length l s;
    let a = l.apps.(i) in
    (field a s lsr a.budget_shift) land l.budget_mask

  (* [s] with every application's field [v] replaced by [f i v] *)
  let map_fields l s f =
    let b = Bytes.create l.nbytes in
    let acc = ref 0 and nacc = ref 0 and pos = ref 0 in
    Array.iteri
      (fun i a ->
        acc := !acc lor (f i (field a s) lsl !nacc);
        nacc := !nacc + a.width;
        while !nacc >= 8 do
          Bytes.unsafe_set b !pos (Char.unsafe_chr (!acc land 0xff));
          incr pos;
          acc := !acc lsr 8;
          nacc := !nacc - 8
        done)
      l.apps;
    if !nacc > 0 then Bytes.unsafe_set b !pos (Char.unsafe_chr !acc);
    Bytes.unsafe_to_string b

  let sort_apps l groups s =
    check_length l s;
    List.fold_left
      (fun s g ->
        let first = l.apps.(g.(0)) in
        let sorted = ref true and prev = ref (field first s) in
        for k = 1 to Array.length g - 1 do
          let a = l.apps.(g.(k)) in
          if a.width <> first.width || a.x_shift <> first.x_shift then
            invalid_arg "Slot_state.Packed.sort_apps: mixed layouts";
          let v = field a s in
          if v < !prev then sorted := false;
          prev := v
        done;
        if !sorted then s
        else begin
          let vals = Array.map (fun i -> field l.apps.(i) s) g in
          Array.sort Int.compare vals;
          let slot = Array.make (Array.length l.apps) (-1) in
          Array.iteri (fun k i -> slot.(i) <- k) g;
          map_fields l s (fun i v -> if slot.(i) < 0 then v else vals.(slot.(i)))
        end)
      s groups

  let split_ages l s =
    check_length l s;
    let n = Array.length l.apps in
    let safe = ref 0 and aged = ref false in
    let acc = ref 0 and nacc = ref 0 and pos = ref 0 in
    for i = 0 to n - 1 do
      let a = l.apps.(i) in
      while !nacc < a.width do
        acc := !acc lor (Char.code (String.unsafe_get s !pos) lsl !nacc);
        incr pos;
        nacc := !nacc + 8
      done;
      let v = !acc land ((1 lsl a.width) - 1) in
      acc := !acc lsr a.width;
      nacc := !nacc - a.width;
      if v lsr a.tag_shift = tag_safe then begin
        incr safe;
        if (v lsr a.x_shift) land a.x_mask <> 0 then aged := true
      end
    done;
    let ages = Array.make !safe 0 in
    if not !aged then (s, ages)
    else begin
      (* second pass: [acc]/[nacc]/[pos] read [s], [wacc]/[wnacc]/
         [wpos] write the masked copy *)
      let b = Bytes.create l.nbytes in
      let wacc = ref 0 and wnacc = ref 0 and wpos = ref 0 and k = ref 0 in
      acc := 0;
      nacc := 0;
      pos := 0;
      for i = 0 to n - 1 do
        let a = l.apps.(i) in
        while !nacc < a.width do
          acc := !acc lor (Char.code (String.unsafe_get s !pos) lsl !nacc);
          incr pos;
          nacc := !nacc + 8
        done;
        let v = !acc land ((1 lsl a.width) - 1) in
        acc := !acc lsr a.width;
        nacc := !nacc - a.width;
        let v =
          if v lsr a.tag_shift <> tag_safe then v
          else begin
            ages.(!k) <- (v lsr a.x_shift) land a.x_mask;
            incr k;
            v land lnot (a.x_mask lsl a.x_shift)
          end
        in
        wacc := !wacc lor (v lsl !wnacc);
        wnacc := !wnacc + a.width;
        while !wnacc >= 8 do
          Bytes.unsafe_set b !wpos (Char.unsafe_chr (!wacc land 0xff));
          incr wpos;
          wacc := !wacc lsr 8;
          wnacc := !wnacc - 8
        done
      done;
      if !wnacc > 0 then Bytes.unsafe_set b !wpos (Char.unsafe_chr !wacc);
      (Bytes.unsafe_to_string b, ages)
    end
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
