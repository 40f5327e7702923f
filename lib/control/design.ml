type candidate = {
  kt_radius : float;
  ke_source : string;
  jt : int option;
  je : int option;
  switching_stable : bool;
  verdict : [ `Accepted | `Rejected of string ];
}

type outcome = { gains : Switched.gains option; trace : candidate list }

(* distinct real poles on a ring: radius, radius*0.9, radius*0.8, ...
   (distinct so Ackermann's conditioning stays reasonable) *)
let ring_poles n radius =
  List.init n (fun i -> (radius *. (1. -. (0.1 *. float_of_int i)), 0.))

(* the candidate grid: K_T pole radii, then the K_E designs (LQR input
   weights, slow pole radii) tried for each *)
let kt_radii = [ 0.15; 0.2; 0.25; 0.3; 0.4; 0.5; 0.6 ]
let lqr_weights = [ 0.1; 0.5; 1.; 3.; 10.; 30. ]
let ke_radii = [ 0.8; 0.85; 0.9; 0.95 ]

let search ?(require_cqlf = false) plant ~j_star =
  if j_star < 1 then invalid_arg "Design.search: j_star must be >= 1";
  if not (Ctrb.is_controllable plant.Plant.phi plant.Plant.gamma) then
    invalid_arg "Design.search: plant is not controllable";
  let n = Plant.order plant in
  let ke_candidates =
    List.map (fun r -> (Printf.sprintf "lqr r=%g" r, `Lqr r)) lqr_weights
    @ List.map
        (fun rho -> (Printf.sprintf "poles rho=%g" rho, `Poles rho))
        ke_radii
  in
  let make_ke = function
    | `Lqr r -> (try Some (Lqr.gain_et ~r plant) with Lqr.No_convergence -> None)
    | `Poles rho ->
      (try Some (Pole_place.place_et plant (ring_poles (n + 1) rho))
       with Pole_place.Uncontrollable | Linalg.Lu.Singular -> None)
  in
  let trace = ref [] in
  let found = ref None in
  let fallback = ref None in
  let consider kt_radius kt (ke_source, ke_spec) =
    if !found = None then begin
      match make_ke ke_spec with
      | None ->
        trace :=
          {
            kt_radius;
            ke_source;
            jt = None;
            je = None;
            switching_stable = false;
            verdict = `Rejected "K_E synthesis failed";
          }
          :: !trace
      | Some ke ->
        let gains = Switched.make_gains plant ~kt ~ke in
        let kernel = Settle_kernel.make plant gains in
        let jt = Settle_kernel.pure kernel Switched.Mt in
        let je = Settle_kernel.pure kernel Switched.Me in
        let record switching_stable verdict =
          trace :=
            { kt_radius; ke_source; jt; je; switching_stable; verdict }
            :: !trace
        in
        (match (jt, je) with
         | None, _ -> record false (`Rejected "TT mode does not settle")
         | _, None -> record false (`Rejected "ET mode does not settle")
         | Some jt', _ when jt' > j_star ->
           record false (`Rejected "K_T too slow (J_T > J*)")
         | _, Some je' when je' <= j_star ->
           record false (`Rejected "K_E already meets J* (no TT needed)")
         | Some _, Some _ ->
           if Switch_stab.is_switching_stable plant gains then begin
             record true `Accepted;
             found := Some gains
           end
           else begin
             (* keep the first bracketing-but-uncertified pair around *)
             if !fallback = None then fallback := Some gains;
             record false (`Rejected "no common Lyapunov certificate")
           end)
    end
  in
  List.iter
    (fun kt_radius ->
      if !found = None then
        match Pole_place.place_tt plant (ring_poles n kt_radius) with
        | kt -> List.iter (consider kt_radius kt) ke_candidates
        | exception (Pole_place.Uncontrollable | Linalg.Lu.Singular) ->
          trace :=
            {
              kt_radius;
              ke_source = "-";
              jt = None;
              je = None;
              switching_stable = false;
              verdict = `Rejected "K_T synthesis failed";
            }
            :: !trace)
    kt_radii;
  let gains =
    match !found with
    | Some _ as g -> g
    | None -> if require_cqlf then None else !fallback
  in
  { gains; trace = List.rev !trace }

let synthesize ?require_cqlf plant ~j_star =
  let o = search ?require_cqlf plant ~j_star in
  match o.gains with
  | Some g -> Ok g
  | None ->
    let tried = List.length o.trace in
    let reasons =
      o.trace
      |> List.filter_map (fun c ->
             match c.verdict with `Rejected r -> Some r | `Accepted -> None)
      |> List.sort_uniq compare
    in
    Error
      (Printf.sprintf "no admissible gain pair among %d candidates (%s)" tried
         (String.concat "; " reasons))
