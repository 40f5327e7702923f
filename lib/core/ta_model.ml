module Layout = struct
  (* shared integer store, [n] applications:
     [0..n-1]      WT[i]      wait counters
     [n..2n-1]     DT-[i]     granted minimum dwell
     [2n..3n-1]    DT+[i]     granted maximum dwell
     [3n]          run        slot occupied?
     [3n+1]        owner      occupant id (-1 when free)
     [3n+2]        dist       id being registered over reqTT
     [3n+3]        len0       buffer0 length
     [3n+4..4n+3]  buffer0    arrival queue
     [4n+4]        len        buffer length
     [4n+5..5n+4]  buffer     EDF-sorted service queue *)
  let wt ~n:_ i = i
  let dt_min ~n i = n + i
  let dt_max ~n i = (2 * n) + i
  let run ~n = 3 * n
  let owner ~n = (3 * n) + 1
  let dist ~n = (3 * n) + 2
  let len0 ~n = (3 * n) + 3
  let buf0 ~n j = (3 * n) + 4 + j
  let len ~n = (4 * n) + 4
  let buf ~n j = (4 * n) + 5 + j
  let store_size ~n = (5 * n) + 5

  (* clocks: time[id] = id+1, then cT, then x *)
  let clock_time id = id + 1
  let clock_ct ~n = n + 1
  let clock_x ~n = n + 2

  (* application automaton locations *)
  let loc_steady = 0
  let loc_dist_init = 1
  let loc_et_wait = 2
  let loc_tt = 3
  let loc_et_safe = 4
  let loc_error = 5
end

(* channels: reqTT, then getTT[i], then leaveTT[i] *)
let chan_req = 0
let chan_get ~n:_ i = 1 + i
let chan_leave ~n i = 1 + n + i

let application_automaton (specs : Sched.Appspec.t array) id =
  let n = Array.length specs in
  let spec = specs.(id) in
  let open Ta.Automaton in
  let time = Layout.clock_time id in
  let locations =
    [|
      location "Steady";
      location ~kind:Committed "Dist_init";
      location "ET_Wait";
      location "TT";
      location
        ~invariant:[ guard_const time Le spec.Sched.Appspec.r ]
        "ET_SAFE";
      location "Error";
    |]
  in
  let edges =
    [
      (* a disturbance may arrive at any time in Steady *)
      edge ~src:Layout.loc_steady ~dst:Layout.loc_dist_init
        ~resets:[ (time, 0) ]
        ~update:(fun s ->
          let s = Array.copy s in
          s.(Layout.dist ~n) <- id;
          s)
        ();
      edge ~src:Layout.loc_dist_init ~dst:Layout.loc_et_wait
        ~sync:(Send chan_req) ();
      edge ~src:Layout.loc_et_wait ~dst:Layout.loc_tt
        ~sync:(Recv (chan_get ~n id)) ();
      (* deadline miss: the wait is measured from the sample at which
         the scheduler first saw the request (time[id] is reset at the
         buffer transfer), so the edge is armed only once the request
         sits in the sorted service queue.  Without this data guard the
         literal Fig. 5 guard fires vacuously in the sub-sample window
         between registration and transfer whenever T*_w = 0. *)
      edge ~src:Layout.loc_et_wait ~dst:Layout.loc_error
        ~guards:[ guard_const time Gt spec.Sched.Appspec.t_w_max ]
        ~data_guard:(fun s ->
          let len = s.(Layout.len ~n) in
          let rec in_buffer j =
            j < len && (s.(Layout.buf ~n j) = id || in_buffer (j + 1))
          in
          in_buffer 0)
        ();
      edge ~src:Layout.loc_tt ~dst:Layout.loc_et_safe
        ~sync:(Recv (chan_leave ~n id)) ();
      edge ~src:Layout.loc_et_safe ~dst:Layout.loc_steady
        ~guards:[ guard_const time Eq spec.Sched.Appspec.r ]
        ();
    ]
  in
  make ~name:spec.Sched.Appspec.name ~locations ~initial:Layout.loc_steady
    ~edges

(* the EDF insertion of the Sort automaton: the incoming request goes
   before the first queued request with strictly larger slack *)
let insert_sorted (specs : Sched.Appspec.t array) s id =
  let n = Array.length specs in
  let slack i = specs.(i).Sched.Appspec.t_w_max - s.(Layout.wt ~n i) in
  let len = s.(Layout.len ~n) in
  let pos = ref len in
  (try
     for j = 0 to len - 1 do
       if slack s.(Layout.buf ~n j) > slack id then begin
         pos := j;
         raise Exit
       end
     done
   with Exit -> ());
  for j = len downto !pos + 1 do
    s.(Layout.buf ~n j) <- s.(Layout.buf ~n (j - 1))
  done;
  s.(Layout.buf ~n !pos) <- id;
  s.(Layout.len ~n) <- len + 1

let scheduler_automaton (specs : Sched.Appspec.t array) =
  let n = Array.length specs in
  let open Ta.Automaton in
  let x = Layout.clock_x ~n and ct = Layout.clock_ct ~n in
  let idle = 0
  and tick_slot = 1
  and grant_loc = 2
  and released_loc = 3 in
  let locations =
    [|
      location ~invariant:[ guard_const x Le 1 ] "Idle";
      location ~kind:Committed "TickSlot";
      location ~kind:Committed "Grant";
      location ~kind:Committed "Released";
    |]
  in
  let v_run s = s.(Layout.run ~n) in
  let v_len s = s.(Layout.len ~n) in
  let head s = s.(Layout.buf ~n 0) in
  let dt_min_of_owner s = s.(Layout.dt_min ~n s.(Layout.owner ~n)) in
  let dt_max_of_owner s = s.(Layout.dt_max ~n s.(Layout.owner ~n)) in
  let grant_update k s =
    let s = Array.copy s in
    let w = s.(Layout.wt ~n k) in
    s.(Layout.dt_min ~n k) <- specs.(k).Sched.Appspec.t_dw_min.(w);
    s.(Layout.dt_max ~n k) <- specs.(k).Sched.Appspec.t_dw_max.(w);
    (* hygiene: the wait counter has served its purpose (the table
       lookup); clearing it keeps stale values from multiplying the
       symbolic state space *)
    s.(Layout.wt ~n k) <- 0;
    s.(Layout.owner ~n) <- k;
    s.(Layout.run ~n) <- 1;
    (* pop the buffer head *)
    let len = s.(Layout.len ~n) in
    for j = 0 to len - 2 do
      s.(Layout.buf ~n j) <- s.(Layout.buf ~n (j + 1))
    done;
    s.(Layout.len ~n) <- len - 1;
    (* hygiene: clear vacated queue tail *)
    s.(Layout.buf ~n (len - 1)) <- 0;
    s
  in
  let leave_update k s =
    let s = Array.copy s in
    s.(Layout.run ~n) <- 0;
    s.(Layout.owner ~n) <- -1;
    (* hygiene: the granted dwell bounds are dead after the release *)
    s.(Layout.dt_min ~n k) <- 0;
    s.(Layout.dt_max ~n k) <- 0;
    s
  in
  (* grants jump straight back to Idle, starting both the dwell clock
     and the next sample period *)
  let grant_edges ~src =
    List.init n (fun k ->
        edge ~src ~dst:idle
          ~data_guard:(fun s -> v_run s = 0 && v_len s > 0 && head s = k)
          ~sync:(Send (chan_get ~n k))
          ~resets:[ (ct, 0); (x, 0) ]
          ~update:(grant_update k) ())
  in
  let edges =
    (* registration of asynchronous requests, any time *)
    edge ~src:idle ~dst:idle ~sync:(Recv chan_req)
      ~update:(fun s ->
        let s = Array.copy s in
        let l0 = s.(Layout.len0 ~n) in
        s.(Layout.buf0 ~n l0) <- s.(Layout.dist ~n);
        s.(Layout.len0 ~n) <- l0 + 1;
        (* hygiene: the mailbox variable is dead once consumed *)
        s.(Layout.dist ~n) <- 0;
        s)
      ()
    (* the sample tick: bump the wait counters of everything already
       being served (upd_WT of Fig. 7), then run Policy + Sort folded
       into one atomic transfer - move buffer0 into the EDF-sorted
       buffer, resetting WT and time of each moved id *)
    :: edge ~src:idle ~dst:tick_slot
         ~guards:[ guard_const x Eq 1 ]
         ~dyn_resets:(fun s ->
           List.init s.(Layout.len0 ~n) (fun j ->
               (Layout.clock_time s.(Layout.buf0 ~n j), 0)))
         ~update:(fun s ->
           let s = Array.copy s in
           for j = 0 to s.(Layout.len ~n) - 1 do
             let i = s.(Layout.buf ~n j) in
             s.(Layout.wt ~n i) <- s.(Layout.wt ~n i) + 1
           done;
           for j = 0 to s.(Layout.len0 ~n) - 1 do
             let id = s.(Layout.buf0 ~n j) in
             s.(Layout.wt ~n id) <- 0;
             insert_sorted specs s id;
             (* hygiene: clear the consumed buffer0 cell *)
             s.(Layout.buf0 ~n j) <- 0
           done;
           s.(Layout.len0 ~n) <- 0;
           s)
         ()
    (* slot idle, nobody waiting *)
    :: edge ~src:tick_slot ~dst:idle ~resets:[ (x, 0) ]
         ~data_guard:(fun s -> v_run s = 0 && v_len s = 0)
         ()
    (* occupant still within its protected minimum dwell *)
    :: edge ~src:tick_slot ~dst:idle ~resets:[ (x, 0) ]
         ~data_guard:(fun s -> v_run s = 1)
         ~guards:[ guard_var ct Lt dt_min_of_owner ]
         ()
    (* occupant past T-_dw but nobody waiting: keep the slot *)
    :: edge ~src:tick_slot ~dst:idle ~resets:[ (x, 0) ]
         ~data_guard:(fun s -> v_run s = 1 && v_len s = 0)
         ~guards:
           [ guard_var ct Ge dt_min_of_owner; guard_var ct Lt dt_max_of_owner ]
         ()
    (* released location with empty buffer: nothing to grant *)
    :: edge ~src:released_loc ~dst:idle ~resets:[ (x, 0) ]
         ~data_guard:(fun s -> v_len s = 0)
         ()
    (* slot idle and somebody waiting: grant to the buffer head *)
    :: grant_edges ~src:tick_slot
    @ grant_edges ~src:grant_loc
    @ grant_edges ~src:released_loc
    (* preemption: occupant past T-_dw and somebody waiting *)
    @ List.init n (fun k ->
          edge ~src:tick_slot ~dst:grant_loc
            ~data_guard:(fun s ->
              v_run s = 1 && s.(Layout.owner ~n) = k && v_len s > 0)
            ~guards:
              [
                guard_var ct Ge dt_min_of_owner;
                guard_var ct Lt dt_max_of_owner;
              ]
            ~sync:(Send (chan_leave ~n k))
            ~update:(leave_update k) ())
    (* voluntary release at T+_dw *)
    @ List.init n (fun k ->
          edge ~src:tick_slot ~dst:released_loc
            ~data_guard:(fun s -> v_run s = 1 && s.(Layout.owner ~n) = k)
            ~guards:[ guard_var ct Eq dt_max_of_owner ]
            ~sync:(Send (chan_leave ~n k))
            ~update:(leave_update k) ())
  in
  make ~name:"Scheduler" ~locations ~initial:idle ~edges

let build specs =
  let n = Array.length specs in
  if n = 0 then invalid_arg "Ta_model.build: empty group";
  let automata =
    Array.init (n + 1) (fun i ->
        if i < n then application_automaton specs i
        else scheduler_automaton specs)
  in
  let store = Array.make (Layout.store_size ~n) 0 in
  store.(Layout.owner ~n) <- -1;
  let clock_names =
    Array.init (n + 2) (fun i ->
        if i < n then Printf.sprintf "time[%s]" specs.(i).Sched.Appspec.name
        else if i = n then "cT"
        else "x")
  in
  let channel_names =
    Array.init (1 + (2 * n)) (fun c ->
        if c = 0 then "reqTT"
        else if c <= n then
          Printf.sprintf "getTT[%s]" specs.(c - 1).Sched.Appspec.name
        else
          Printf.sprintf "leaveTT[%s]" specs.(c - 1 - n).Sched.Appspec.name)
  in
  let clock_maxima =
    Array.init (n + 2) (fun i ->
        if i < n then
          Int.max specs.(i).Sched.Appspec.r (specs.(i).Sched.Appspec.t_w_max + 1)
        else if i = n then
          (* cT is compared against dwell-table entries *)
          Array.fold_left
            (fun acc (s : Sched.Appspec.t) ->
              Array.fold_left Int.max acc s.Sched.Appspec.t_dw_max)
            0 specs
        else 1)
  in
  Ta.Network.make ~automata ~clock_names ~channel_names ~initial_store:store
    ~clock_maxima

let error_target (specs : Sched.Appspec.t array) ~locs ~store =
  ignore store;
  let n = Array.length specs in
  let hit = ref false in
  for i = 0 to n - 1 do
    if locs.(i) = Layout.loc_error then hit := true
  done;
  !hit

type result = {
  outcome : [ `Safe | `Unsafe | `Undetermined of Ta.Reach.budget_reason ];
  stats : Ta.Reach.stats;
}

let verify ?(max_states = 2_000_000) ?deadline specs =
  let r =
    Ta.Reach.run ~max_states ?deadline ~inclusion:false (build specs)
      (error_target specs)
  in
  let outcome =
    match r.Ta.Reach.outcome with
    | Ta.Reach.Hit _ -> `Unsafe
    | Ta.Reach.Unreachable -> `Safe
    | Ta.Reach.Exhausted reason -> `Undetermined reason
  in
  { outcome; stats = r.Ta.Reach.stats }
