type row = {
  name : string;
  j_star : int;
  worst_wait : int option;
  worst_settling : int option;
  margin : int option;
}

type report = { rows : row list; safe : bool }

let worst_settling_of (a : App.t) ~worst_wait =
  let t = a.App.table in
  let k = Control.Settle_kernel.make a.App.plant a.App.gains in
  let worst = ref 0 in
  (* iterate grid waits only: with stride > 1 the raw wait is not a
     valid row index *)
  List.iter
    (fun t_w ->
      if t_w <= worst_wait then begin
        let js = Control.Settle_kernel.dwells k ~t_w ~len:(Dwell.dw_max t ~t_w) in
        for t_dw = Dwell.dw_min t ~t_w to Dwell.dw_max t ~t_w do
          match js.(t_dw - 1) with
          | Some j -> if j > !worst then worst := j
          | None -> ()
        done
      end)
    (Dwell.waits t);
  !worst

let analyse ?policy ~apps () =
  let specs = Mapping.specs_of_group apps in
  let result = Dverify.verify ?policy specs in
  let safe =
    (* unbudgeted run: Undetermined cannot occur, but margins would be
       meaningless without a safety proof anyway *)
    match result.Dverify.verdict with
    | Dverify.Safe -> true
    | Dverify.Unsafe _ | Dverify.Undetermined _ -> false
  in
  let rows =
    List.mapi
      (fun i (a : App.t) ->
        let w = result.Dverify.stats.Dverify.max_wait.(i) in
        if (not safe) || w < 0 then
          {
            name = a.App.name;
            j_star = a.App.j_star;
            worst_wait = None;
            worst_settling = None;
            margin = None;
          }
        else begin
          let ws = worst_settling_of a ~worst_wait:w in
          {
            name = a.App.name;
            j_star = a.App.j_star;
            worst_wait = Some w;
            worst_settling = Some ws;
            margin = Some (a.App.j_star - ws);
          }
        end)
      apps
  in
  { rows; safe }

let pp ppf t =
  if not t.safe then Format.fprintf ppf "group is UNSAFE: no margins"
  else begin
    Format.fprintf ppf "@[<v>%-6s %-8s %-12s %-16s %s@," "app" "J*"
      "worst wait" "worst settling" "margin";
    List.iter
      (fun r ->
        match (r.worst_wait, r.worst_settling, r.margin) with
        | Some w, Some ws, Some m ->
          Format.fprintf ppf "%-6s %-8d %-12d %-16d %d@," r.name r.j_star w ws m
        | _ ->
          Format.fprintf ppf "%-6s %-8d %-12s %-16s -@," r.name r.j_star
            "never" "-")
      t.rows;
    Format.fprintf ppf "@]"
  end
