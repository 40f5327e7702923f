let threshold = 0.02

let settling_index y =
  let n = Array.length y in
  if n = 0 then Some 0
  else
    (* scan backwards for the last violation *)
    let rec last_violation k =
      if k < 0 then None
      else if Float.abs y.(k) > threshold then Some k
      else last_violation (k - 1)
    in
    match last_violation (n - 1) with
    | None -> Some 0
    | Some k when k = n - 1 -> None (* still violating at the horizon *)
    | Some k -> Some (k + 1)

let peak y = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0. y
