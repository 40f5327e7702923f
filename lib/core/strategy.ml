let mode_at ~t_w ~t_dw k =
  if t_w < 0 || t_dw < 0 then invalid_arg "Strategy.mode_at: negative time";
  if k >= t_w && k < t_w + t_dw then Control.Switched.Mt else Control.Switched.Me

let pure mode _k = mode

(* long enough that the post-switch ET tail decides settling: the ET
   closed loop is required to be Schur stable, so a few multiples of the
   slowest-mode memory suffice; 400 samples dwarf every settling time in
   the paper's operating range *)
let default_horizon ~t_w ~t_dw = t_w + t_dw + 400

let response ?horizon p g ~t_w ~t_dw =
  let horizon =
    match horizon with Some n -> n | None -> default_horizon ~t_w ~t_dw
  in
  Control.Switched.run p g (mode_at ~t_w ~t_dw) (Control.Switched.disturbed p)
    horizon

let settling ?threshold ?horizon p g ~t_w ~t_dw =
  Control.Settle.settling_index ?threshold (response ?horizon p g ~t_w ~t_dw)
