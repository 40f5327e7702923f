(* The hybrid state [x; u_prev] lives in one float array of length n+1,
   which is also the augmented ET state z.  [advance], [step_tt] and
   [step_et] repeat Switched.step's arithmetic operation for operation
   (accumulators from 0.0, [u * gamma_i + (phi x)_i]), so every
   simulated float equals the reference's. *)

type certificate = { p : float array; dim : int; gain : float }

let certify a c =
  let m = Linalg.Mat.rows a in
  match Linalg.Lyapunov.solve_discrete a (Linalg.Mat.identity m) with
  | exception Linalg.Lu.Singular -> None
  | p ->
    if
      not
        (Linalg.Lyapunov.is_positive_definite p
        && Linalg.Lyapunov.decreases p a)
    then None
    else (
      match Linalg.Lu.solve p c with
      | exception Linalg.Lu.Singular -> None
      | w ->
        let gain = Linalg.Vec.dot c w in
        if gain >= 0. then Some { p = p.Linalg.Mat.data; dim = m; gain }
        else None)

(* zᵀPz over the certificate's leading [dim] coordinates *)
let energy cert z =
  let m = cert.dim in
  let v = ref 0. in
  for i = 0 to m - 1 do
    let row = ref 0. in
    for j = 0 to m - 1 do
      row := !row +. (cert.p.((i * m) + j) *. z.(j))
    done;
    v := !v +. (z.(i) *. !row)
  done;
  !v

let bound cert z = sqrt (cert.gain *. Float.max 0. (energy cert z))

let pure_horizon = 600
let hold_horizon = 600
let tail_horizon = 400

type t = {
  n : int;
  phi : float array;
  gamma : float array;
  c : float array;
  kt : float array;
  ke : float array;
  cert_tt : certificate option;
  cert_et : certificate option;
  z : float array;  (* the state being run to its settling index *)
  seg : float array;  (* the end of the shared prefix and TT segment *)
  pre : float array;  (* the ET wait from the disturbance, at [pre_at] *)
  mutable pre_at : int;
  mutable pre_last : int;  (* its last violating sample, -1 for none *)
  tmp : float array;
  mutable samples : int;
}

(* (threshold (1 - 1e-9))², the certificate's bar *)
let limit = (Settle.threshold *. (1. -. 1e-9)) ** 2.

let make p (g : Switched.gains) =
  let n = Plant.order p in
  let c = p.Plant.c in
  {
    n;
    phi = p.Plant.phi.Linalg.Mat.data;
    gamma = p.Plant.gamma;
    c;
    kt = g.Switched.kt;
    ke = g.Switched.ke;
    cert_tt = certify (Feedback.closed_loop_tt p g.Switched.kt) c;
    cert_et =
      certify (Feedback.closed_loop_et p g.Switched.ke) (Array.append c [| 0. |]);
    z = Array.make (n + 1) 0.;
    seg = Array.make (n + 1) 0.;
    pre = Array.init (n + 1) (fun i -> if i = 0 then 1. else 0.);
    pre_at = 0;
    pre_last = -1;
    tmp = Array.make n 0.;
    samples = 0;
  }

let samples k = k.samples

let output k z =
  let acc = ref 0. in
  for i = 0 to k.n - 1 do
    acc := !acc +. (k.c.(i) *. z.(i))
  done;
  !acc

(* x <- phi x + gamma u *)
let advance k z u =
  let n = k.n in
  for i = 0 to n - 1 do
    let acc = ref 0. in
    for j = 0 to n - 1 do
      acc := !acc +. (k.phi.((i * n) + j) *. z.(j))
    done;
    k.tmp.(i) <- (u *. k.gamma.(i)) +. !acc
  done;
  Array.blit k.tmp 0 z 0 n

let step_tt k z =
  let acc = ref 0. in
  for i = 0 to k.n - 1 do
    acc := !acc +. (k.kt.(i) *. z.(i))
  done;
  let u = -. !acc in
  advance k z u;
  z.(k.n) <- u;
  k.samples <- k.samples + 1

let step_et k z =
  let acc = ref 0. in
  for i = 0 to k.n do
    acc := !acc +. (k.ke.(i) *. z.(i))
  done;
  advance k z z.(k.n);
  z.(k.n) <- -. !acc;
  k.samples <- k.samples + 1

let step k mode z =
  match mode with Switched.Mt -> step_tt k z | Switched.Me -> step_et k z

let violates k z = Float.abs (output k z) > Settle.threshold

let disturb k z =
  Array.fill z 0 (k.n + 1) 0.;
  z.(0) <- 1.

(* Run [z], which holds sample [from], in [mode] until [cap] and return
   the settling index of the whole trace, given [last], the last
   violating sample before [from] (-1 for none).  A sample inside the
   band whose certified bound is below the bar ends the run: no later
   sample can leave the band. *)
let tail k mode z ~from ~cap ~last =
  let cert = match mode with Switched.Mt -> k.cert_tt | Switched.Me -> k.cert_et in
  let rec go i last =
    let last = if violates k z then i else last in
    if i = cap then if last = cap then None else Some (last + 1)
    else
      match cert with
      | Some c when last < i && c.gain *. energy c z < limit -> Some (last + 1)
      | Some _ | None ->
        step k mode z;
        go (i + 1) last
  in
  go from last

(* Copy the ET wait's state at sample [t_w] into [z] and return its last
   violation.  The wait is simulated once and extended from one [t_w] to
   the next; asking for an earlier wait restarts it. *)
let prefix k z ~t_w =
  if t_w < 0 then invalid_arg "Settle_kernel: negative wait";
  if t_w < k.pre_at then begin
    disturb k k.pre;
    k.pre_at <- 0;
    k.pre_last <- -1
  end;
  while k.pre_at < t_w do
    if violates k k.pre then k.pre_last <- k.pre_at;
    step_et k k.pre;
    k.pre_at <- k.pre_at + 1
  done;
  Array.blit k.pre 0 z 0 (k.n + 1);
  k.pre_last

let pure k mode =
  disturb k k.z;
  tail k mode k.z ~from:0 ~cap:pure_horizon ~last:(-1)

let hold k ~t_w =
  let last = prefix k k.z ~t_w in
  tail k Switched.Mt k.z ~from:t_w ~cap:(t_w + hold_horizon) ~last

let dwells k ~t_w ~len =
  if len < 0 then invalid_arg "Settle_kernel.dwells: negative length";
  let last = ref (prefix k k.seg ~t_w) in
  Array.init len (fun d ->
      (* [seg] holds sample t_w + d, the last one this dwell spends in MT *)
      if violates k k.seg then last := t_w + d;
      step_tt k k.seg;
      let t_dw = d + 1 in
      Array.blit k.seg 0 k.z 0 (k.n + 1);
      tail k Switched.Me k.z ~from:(t_w + t_dw)
        ~cap:(t_w + t_dw + tail_horizon)
        ~last:!last)
