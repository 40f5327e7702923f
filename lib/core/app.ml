type t = {
  name : string;
  plant : Control.Plant.t;
  gains : Control.Switched.gains;
  r : int;
  j_star : int;
  table : Dwell.t;
}

let make ?cache ~name ~plant ~gains ~r ~j_star () =
  if j_star >= r then
    invalid_arg "App.make: the sporadic model requires J* < r";
  let table = Dwell.compute ?cache plant gains ~j_star in
  (* fail early if the spec would be rejected by the scheduler layer *)
  let _ : Sched.Appspec.t =
    Sched.Appspec.make ~id:0 ~name ~t_w_max:table.Dwell.t_w_max
      ~t_dw_min:table.Dwell.t_dw_min ~t_dw_max:table.Dwell.t_dw_max ~r
  in
  { name; plant; gains; r; j_star; table }

let spec t ~id =
  Sched.Appspec.make ~id ~name:t.name ~t_w_max:t.table.Dwell.t_w_max
    ~t_dw_min:t.table.Dwell.t_dw_min ~t_dw_max:t.table.Dwell.t_dw_max ~r:t.r

let t_w_max t = t.table.Dwell.t_w_max

let pp ppf t =
  Format.fprintf ppf "@[<v>%s (J* = %d, r = %d)@,%a@]" t.name t.j_star t.r
    Dwell.pp t.table

let pp_tables ppf t =
  let row ppf a =
    Format.fprintf ppf "[%s]"
      (String.concat "," (Array.to_list (Array.map string_of_int a)))
  in
  let d = t.table in
  Format.fprintf ppf
    "%s: r=%d J*=%d | J_T=%d J_E=%d T*_w=%d@\n  T-_dw=%a@\n  T+_dw=%a" t.name
    t.r t.j_star d.Dwell.jt d.Dwell.je d.Dwell.t_w_max row d.Dwell.t_dw_min row
    d.Dwell.t_dw_max
