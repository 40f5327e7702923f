type t = { w_star : int; c_occ : int }

let compute p g ~j_star =
  (* settling when waiting t_w and then holding the slot to rejection:
     w_star is the longest wait that still meets J*, c_occ the longest
     hold among the waits up to it *)
  let k = Control.Settle_kernel.make p g in
  let rec scan t_w c_occ =
    match Control.Settle_kernel.hold k ~t_w with
    | Some j when j <= j_star -> scan (t_w + 1) (Int.max c_occ (j - t_w))
    | Some j when t_w = 0 ->
      raise
        (Dwell.Infeasible
           (Printf.sprintf "baseline: immediate grant settles at %d > J* = %d" j
              j_star))
    | None when t_w = 0 -> raise (Dwell.Infeasible "baseline: TT mode never settles")
    | Some _ | None -> { w_star = t_w - 1; c_occ }
  in
  scan 0 1

let to_spec ~id ~name ~r t =
  Sched.Baseline.make_spec ~id ~name ~w_star:t.w_star ~c_occ:t.c_occ ~r
