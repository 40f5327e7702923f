(* Seeded request logs for the serve workloads.

   A population of inline applications (raw timing specs, no control
   layer) is drawn from the seed; slot groups of 2-4 of them are drawn
   until there are [distinct_groups] different ones, and the log asks
   about each exactly once, ten groups per verify request, with a few
   map and dwell requests about the case study in between.  Everything
   here is a pure function of the seed.  perfbench/README.md lists the
   source of each parameter, or the assumption behind it. *)

type app = {
  name : string;
  t_w_max : int;
  t_dw_min : int array;
  t_dw_max : int array;
  r : int;
}

type request = Verify of app list list | Map | Dwell of string

type log = {
  population : int;
  groups : app list array;  (** the distinct groups, in log order *)
  requests : request array;
  lines : string array;  (** [lines.(i)] is request [i] with id [i] *)
}

let population = 3000
let distinct_groups = 10_000
let groups_per_request = 10

(* group sizes 2, 3 and 4 in proportion 4:4:2 *)
let size_weights = [ (2, 4); (3, 4); (4, 2) ]

(* a map request before a verify request with probability 1/50, a dwell
   request with probability 3/100 *)
let map_per_mille = 20
let dwell_per_mille = 30

let max_service a =
  let m = ref 0 in
  Array.iteri (fun w d -> m := Int.max !m (w + d)) a.t_dw_max;
  !m

(* the validity rule of Sched.Appspec.make *)
let valid a =
  Array.length a.t_dw_min = a.t_w_max + 1
  && Array.length a.t_dw_max = a.t_w_max + 1
  && Array.for_all (fun d -> d >= 1) a.t_dw_min
  && Array.for_all2 ( <= ) a.t_dw_min a.t_dw_max
  && a.r > max_service a

let random_app st ~name =
  let t_w_max = 1 + Random.State.int st 3 in
  let t_dw_min = Array.init (t_w_max + 1) (fun _ -> 1 + Random.State.int st 2) in
  let t_dw_max = Array.map (fun d -> d + Random.State.int st 2) t_dw_min in
  let a = { name; t_w_max; t_dw_min; t_dw_max; r = 0 } in
  { a with r = max_service a + 2 + Random.State.int st 8 }

let pick_size st =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 size_weights in
  let rec go k = function
    | [] -> assert false
    | (size, w) :: rest -> if k < w then size else go (k - w) rest
  in
  go (Random.State.int st total) size_weights

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let app_json a =
  Printf.sprintf
    "{\"name\":\"%s\",\"t_w_max\":%d,\"t_dw_min\":[%s],\"t_dw_max\":[%s],\"r\":%d}"
    a.name a.t_w_max (ints a.t_dw_min) (ints a.t_dw_max) a.r

let verify_line ~id groups =
  Printf.sprintf "{\"id\":%d,\"kind\":\"verify\",\"groups\":[%s]}" id
    (String.concat ","
       (List.map (fun g -> "[" ^ String.concat "," (List.map app_json g) ^ "]") groups))

let line ~id = function
  | Verify groups -> verify_line ~id groups
  | Map -> Printf.sprintf "{\"id\":%d,\"kind\":\"map\",\"optimal\":false}" id
  | Dwell app -> Printf.sprintf "{\"id\":%d,\"kind\":\"dwell\",\"app\":\"%s\"}" id app

let specs group =
  Array.of_list
    (List.mapi
       (fun id a ->
         Sched.Appspec.make ~id ~name:a.name ~t_w_max:a.t_w_max
           ~t_dw_min:a.t_dw_min ~t_dw_max:a.t_dw_max ~r:a.r)
       group)

let generate ~seed =
  let st = Random.State.make [| 0x5e7e; seed |] in
  let pop = Array.init population (fun i -> random_app st ~name:(Printf.sprintf "P%d" i)) in
  let seen = Hashtbl.create (2 * distinct_groups) in
  let groups = ref [] in
  while Hashtbl.length seen < distinct_groups do
    let size = pick_size st in
    let members = ref [] in
    while List.length !members < size do
      let i = Random.State.int st population in
      if not (List.mem i !members) then members := i :: !members
    done;
    let key = List.sort compare !members in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      groups := List.rev_map (fun i -> pop.(i)) !members :: !groups
    end
  done;
  let groups = Array.of_list (List.rev !groups) in
  let case_apps = Array.of_list (List.map (fun a -> a.Casestudy.name) Casestudy.all) in
  let requests = ref [] in
  let n_verify = distinct_groups / groups_per_request in
  for k = 0 to n_verify - 1 do
    let roll = Random.State.int st 1000 in
    (* the first request is always a map and a dwell always precedes
       the second verify request, so every log carries both kinds *)
    if k = 0 || roll < map_per_mille then requests := Map :: !requests;
    if k = 1 || (roll >= map_per_mille && roll < map_per_mille + dwell_per_mille)
    then
      requests :=
        Dwell case_apps.(Random.State.int st (Array.length case_apps)) :: !requests;
    requests :=
      Verify (Array.to_list (Array.sub groups (k * groups_per_request) groups_per_request))
      :: !requests
  done;
  let requests = Array.of_list (List.rev !requests) in
  {
    population;
    groups;
    requests;
    lines = Array.mapi (fun id r -> line ~id r) requests;
  }

(* a seeded change to one application's dwell bound or [r], under a
   fresh name, keeping it a valid spec *)
let mutate st a ~name =
  let rec attempt () =
    let w = Random.State.int st (a.t_w_max + 1) in
    let delta = if Random.State.bool st then 1 else -1 in
    let b =
      match Random.State.int st 3 with
      | 0 -> { a with r = a.r + delta }
      | 1 ->
        let t_dw_max = Array.copy a.t_dw_max in
        t_dw_max.(w) <- t_dw_max.(w) + delta;
        { a with t_dw_max }
      | _ ->
        let t_dw_min = Array.copy a.t_dw_min in
        t_dw_min.(w) <- t_dw_min.(w) + delta;
        { a with t_dw_min }
    in
    if valid b then { b with name } else attempt ()
  in
  attempt ()
