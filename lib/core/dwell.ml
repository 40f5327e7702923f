type t = {
  j_star : int;
  jt : int;
  je : int;
  t_w_max : int;
  stride : int;
  t_dw_min : int array;
  t_dw_max : int array;
  j_at_min : int array;
  j_at_max : int array;
}

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun s -> raise (Infeasible s)) fmt

(* [f ()], with the samples [k] steps meanwhile counted under tracing *)
let counting_samples k f =
  let before = Control.Settle_kernel.samples k in
  Fun.protect
    ~finally:(fun () ->
      if Obs.Trace_ctx.enabled () then
        Obs.Metric.count "dwell.samples"
          (Control.Settle_kernel.samples k - before))
    f

let surface p g ~t_w_max ~t_dw_max =
  Obs.Span.with_ "dwell.surface" (fun () ->
      let k = Control.Settle_kernel.make p g in
      let s =
        counting_samples k (fun () ->
            List.concat
              (List.init (t_w_max + 1) (fun t_w ->
                   List.mapi
                     (fun d j -> (t_w, d + 1, j))
                     (Array.to_list
                        (Control.Settle_kernel.dwells k ~t_w ~len:t_dw_max)))))
      in
      if Obs.Trace_ctx.enabled () then begin
        Obs.Metric.count "dwell.simulations" (List.length s);
        Obs.Metric.count "dwell.infeasible_skipped"
          (List.length (List.filter (fun (_, _, j) -> j = None) s))
      end;
      s)

(* Per-wait analysis: scan dwell times and extract the min feasible
   dwell and the first dwell achieving the best attainable settling. *)
let analyse_wait k ~j_star ~t_w =
  match Control.Settle_kernel.hold k ~t_w with
  | None ->
    (* even holding the slot forever never settles *)
    if Obs.Trace_ctx.enabled () then begin
      Obs.Metric.count "dwell.simulations" 1;
      Obs.Metric.count "dwell.infeasible_skipped" 1
    end;
    None
  | Some j_hold ->
    let cap = Int.max (j_hold - t_w) (j_star - t_w) + 25 in
    let js = Control.Settle_kernel.dwells k ~t_w ~len:cap in
    if Obs.Trace_ctx.enabled () then begin
      Obs.Metric.count "dwell.simulations" (cap + 1);
      Obs.Metric.count "dwell.infeasible_skipped"
        (Array.fold_left (fun acc j -> if j = None then acc + 1 else acc) 0 js)
    end;
    let best =
      Array.fold_left
        (fun acc j ->
          match (acc, j) with
          | None, x -> x
          | Some b, Some x -> Some (Int.min b x)
          | Some b, None -> Some b)
        (Some j_hold) js
    in
    let best = match best with Some b -> b | None -> j_hold in
    let first pred =
      let rec go d =
        if d >= cap then None
        else
          match js.(d) with
          | Some j when pred j -> Some (d + 1, j)
          | Some _ | None -> go (d + 1)
      in
      go 0
    in
    let feasible d =
      (* dwell d = array index d - 1 *)
      match js.(d - 1) with Some j -> j <= j_star | None -> false
    in
    (match first (fun j -> j <= j_star) with
     | None -> None
     | Some _ ->
       let dw_max, j_max =
         match first (fun j -> j = best) with
         | Some (dw_max, j_max) -> (dw_max, j_max)
         | None ->
           (* best only attained by holding forever; treat the cap as
              the saturation point *)
           (cap, j_hold)
       in
       (* The occupant can be preempted at ANY dwell in
          [T⁻_dw, T⁺_dw], so the minimum must be suffix-safe: every
          dwell from it up to T⁺_dw meets the budget.  (The paper's
          "minimum dwell meeting J <= J*" implicitly assumes
          feasibility is upward-closed; on its case study the two
          definitions coincide — see EXPERIMENTS.md.) *)
       if not (feasible dw_max) then None
       else begin
         let rec lowest d = if d >= 2 && feasible (d - 1) then lowest (d - 1) else d in
         let dw_min = lowest dw_max in
         match js.(dw_min - 1) with
         | Some j_min -> Some (dw_min, j_min, dw_max, j_max)
         | None -> None
       end)

(* [analyse_wait] with its wall time fed to the per-T_w histogram *)
let analyse_wait_timed k ~j_star ~t_w =
  if not (Obs.Trace_ctx.enabled ()) then analyse_wait k ~j_star ~t_w
  else begin
    let t0 = Obs.Clock.now () in
    let r = analyse_wait k ~j_star ~t_w in
    Obs.Metric.observe_value "dwell.per_tw_s" (Obs.Clock.now () -. t0);
    r
  end

(* ------------------------------------------------------------------ *)
(* Grid indexing.  Rows are stored one per simulated wait, so the row
   for wait [t_w] lives at index [t_w / stride] — and only waits on the
   stride grid have a row at all.  Consumers must go through these
   accessors instead of indexing the arrays with the raw wait (which is
   wrong whenever [stride > 1]). *)

let index_of_wait t ~t_w =
  if t_w >= 0 && t_w <= t.t_w_max && t_w mod t.stride = 0 then
    Some (t_w / t.stride)
  else None

let row_exn name t ~t_w a =
  match index_of_wait t ~t_w with
  | Some i -> a.(i)
  | None ->
    invalid_arg
      (Printf.sprintf "Dwell.%s: wait %d is off the stride-%d grid [0..%d]"
         name t_w t.stride t.t_w_max)

let dw_min t ~t_w = row_exn "dw_min" t ~t_w t.t_dw_min
let dw_max t ~t_w = row_exn "dw_max" t ~t_w t.t_dw_max

let waits t = List.init (Array.length t.t_dw_min) (fun i -> i * t.stride)

(* ------------------------------------------------------------------ *)
(* Content-addressed fingerprint of a table computation.  Every input
   that the result depends on is serialised exactly: floats in lossless
   hex notation (%h), dimensions explicit, fields separated by bytes
   that cannot occur inside a %h rendering or a decimal integer — the
   key is injective, so equal keys mean an identical computation. *)

type cache = t Par.Vcache.t

let create_cache ?backing () = Par.Vcache.create ~label:"dwell" ?backing ()

let fingerprint ?(stride = 1) (p : Control.Plant.t) (g : Control.Switched.gains) ~j_star =
  let fl x = Printf.sprintf "%h" x in
  let arr a = String.concat "," (Array.to_list (Array.map fl a)) in
  let mat (m : Linalg.Mat.t) =
    Printf.sprintf "%dx%d:%s" m.Linalg.Mat.rows m.Linalg.Mat.cols
      (arr m.Linalg.Mat.data)
  in
  String.concat "|"
    [
      "dwell";
      mat p.Control.Plant.phi;
      arr p.Control.Plant.gamma;
      arr p.Control.Plant.c;
      fl p.Control.Plant.h;
      arr g.Control.Switched.kt;
      arr g.Control.Switched.ke;
      (* the settling band's field: always Control.Settle.threshold,
         written as the literal existing keys carry, so the tables a
         store already holds still match *)
      "default";
      string_of_int stride;
      string_of_int j_star;
    ]

let compute ?cache ?(stride = 1) p g ~j_star =
  if stride < 1 then invalid_arg "Dwell.compute: stride must be >= 1";
  if j_star < 1 then invalid_arg "Dwell.compute: j_star must be >= 1";
  let compute_impl () =
  Obs.Span.with_ "dwell.compute" @@ fun () ->
  let a_tt = Control.Feedback.closed_loop_tt p g.Control.Switched.kt in
  let a_et = Control.Feedback.closed_loop_et p g.Control.Switched.ke in
  if not (Linalg.Eig.is_schur_stable a_tt) then
    infeasible "TT closed loop is unstable";
  if not (Linalg.Eig.is_schur_stable a_et) then
    infeasible "ET closed loop is unstable";
  let k = Control.Settle_kernel.make p g in
  counting_samples k @@ fun () ->
  let jt =
    match Control.Settle_kernel.pure k Control.Switched.Mt with
    | Some j -> j
    | None -> infeasible "TT mode does not settle within the horizon"
  in
  let je =
    match Control.Settle_kernel.pure k Control.Switched.Me with
    | Some j -> j
    | None -> infeasible "ET mode does not settle within the horizon"
  in
  if jt > j_star then
    infeasible "requirement J* = %d unattainable: J_T = %d" j_star jt;
  if je <= j_star then
    infeasible "requirement J* = %d trivially met on ET: J_E = %d" j_star je;
  let rec collect t_w acc =
    match analyse_wait_timed k ~j_star ~t_w with
    | None -> List.rev acc
    | Some entry -> collect (t_w + stride) ((t_w, entry) :: acc)
  in
  match collect 0 [] with
  | [] -> infeasible "no feasible wait time at all"
  | entries ->
    let t_w_max = fst (List.nth entries (List.length entries - 1)) in
    let len = (t_w_max / stride) + 1 in
    let t_dw_min = Array.make len 0
    and t_dw_max = Array.make len 0
    and j_at_min = Array.make len 0
    and j_at_max = Array.make len 0 in
    List.iteri
      (fun i (_, (dmin, jmin, dmax, jmax)) ->
        t_dw_min.(i) <- dmin;
        j_at_min.(i) <- jmin;
        t_dw_max.(i) <- dmax;
        j_at_max.(i) <- jmax)
      entries;
    { j_star; jt; je; t_w_max; stride; t_dw_min; t_dw_max; j_at_min; j_at_max }
  in
  match cache with
  | None -> compute_impl ()
  | Some c ->
    Par.Vcache.find_or_add c
      (fingerprint ~stride p g ~j_star)
      compute_impl

let deadline t ~t_w =
  if t_w < 0 || t_w > t.t_w_max then
    invalid_arg
      (Printf.sprintf "Dwell.deadline: wait %d outside [0..%d]" t_w t.t_w_max);
  t.t_w_max - t_w

let validate t =
  let len = Array.length t.t_dw_min in
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () =
    check
      (len = Array.length t.t_dw_max
      && len = Array.length t.j_at_min
      && len = Array.length t.j_at_max)
      "array lengths disagree"
  in
  let* () = check (len >= 1) "empty table" in
  let* () = check (t.stride >= 1) "stride must be >= 1" in
  let* () =
    check
      (t.t_w_max = (len - 1) * t.stride)
      "t_w_max disagrees with the row count and stride"
  in
  let* () = check (t.jt <= t.j_star && t.j_star < t.je) "J_T <= J* < J_E violated" in
  let* () =
    check
      (Array.for_all2 (fun a b -> a <= b) t.t_dw_min t.t_dw_max)
      "t_dw_min exceeds t_dw_max"
  in
  let* () =
    check
      (Array.for_all (fun j -> j <= t.j_star) t.j_at_min)
      "a j_at_min entry violates the requirement"
  in
  check
    (Array.for_all2 (fun a b -> b <= a) t.j_at_min t.j_at_max)
    "dwelling longer must not worsen settling"

let pp ppf t =
  let pp_arr ppf a =
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      (Array.to_list a)
  in
  Format.fprintf ppf
    "@[<v>J* = %d, J_T = %d, J_E = %d, T*_w = %d%s@,T-_dw = %a@,T+_dw = %a@]"
    t.j_star t.jt t.je t.t_w_max
    (if t.stride = 1 then "" else Printf.sprintf " (stride %d)" t.stride)
    pp_arr t.t_dw_min pp_arr t.t_dw_max
