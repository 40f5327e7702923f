(* one mutable job per submitted message: transmission attempts burned
   so far, and when (if ever) the message made it onto the bus *)
type job = {
  msg : Bus.message;
  mutable tries : int;
  mutable delivered_at : int option;
}

let validate config (m : Bus.message) =
  if m.Bus.release_us < 0 then invalid_arg "Sim.simulate: negative release";
  match m.Bus.cls with
  | Bus.Tt { channel } ->
    if channel < 0 || channel >= config.Config.static_slot_count then
      invalid_arg "Sim.simulate: static slot out of range"
  | Bus.Et { flow; size } ->
    if flow < 1 then invalid_arg "Sim.simulate: frame ids are 1-based";
    if size < 1 then invalid_arg "Sim.simulate: empty frame";
    if size > config.Config.minislot_count then
      invalid_arg "Sim.simulate: dynamic frame exceeds the segment"

let simulate ?(loss = Bus.loss_none) config ~until_us messages =
  List.iter (validate config) messages;
  let jobs =
    List.map (fun m -> { msg = m; tries = 0; delivered_at = None }) messages
  in
  let cycle_us = Config.cycle_us config in
  let cycles = (until_us / cycle_us) + 1 in
  let deliveries = ref [] and lost_tx = ref 0 in
  (* a transmission opportunity for [j]: burn an attempt, ask the loss
     hook, and either deliver or leave the job queued for the next one *)
  let attempt j ~finish =
    j.tries <- j.tries + 1;
    if loss j.msg ~attempt:j.tries then begin
      incr lost_tx;
      false
    end
    else begin
      j.delivered_at <- Some finish;
      deliveries :=
        { Bus.message = j.msg; delivered_us = finish; attempts = j.tries }
        :: !deliveries;
      true
    end
  in
  (* static messages, per slot, oldest first *)
  let static_queue = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match j.msg.Bus.cls with
      | Bus.Tt { channel = slot } ->
        Hashtbl.replace static_queue slot
          (j :: Option.value ~default:[] (Hashtbl.find_opt static_queue slot))
      | Bus.Et _ -> ())
    jobs;
  Hashtbl.iter
    (fun slot q ->
      Hashtbl.replace static_queue slot
        (List.sort
           (fun a b -> compare a.msg.Bus.release_us b.msg.Bus.release_us)
           q))
    static_queue;
  (* dynamic messages sorted by release *)
  let dynamic_jobs =
    List.filter
      (fun j ->
        match j.msg.Bus.cls with Bus.Et _ -> true | Bus.Tt _ -> false)
      jobs
    |> List.sort (fun a b -> compare a.msg.Bus.release_us b.msg.Bus.release_us)
  in
  let dyn_waiting = ref [] (* (frame_id, length, job) pending *)
  and dyn_future = ref dynamic_jobs in
  for cycle = 0 to cycles - 1 do
    let cycle_start = cycle * cycle_us in
    (* static segment *)
    for slot = 0 to config.Config.static_slot_count - 1 do
      let slot_start = Config.static_slot_start config ~cycle ~slot in
      match Hashtbl.find_opt static_queue slot with
      | Some (j :: rest) when j.msg.Bus.release_us <= slot_start ->
        if attempt j ~finish:(slot_start + config.Config.static_slot_us) then
          Hashtbl.replace static_queue slot rest
      | Some _ | None -> ()
    done;
    (* dynamic segment: admit messages released before it starts *)
    let dyn_start = cycle_start + Config.static_us config in
    let admitted, still_future =
      List.partition (fun j -> j.msg.Bus.release_us <= dyn_start) !dyn_future
    in
    dyn_future := still_future;
    List.iter
      (fun j ->
        match j.msg.Bus.cls with
        | Bus.Et { flow = frame_id; size = length_minislots } ->
          dyn_waiting := (frame_id, length_minislots, j) :: !dyn_waiting
        | Bus.Tt _ -> assert false)
      admitted;
    (* one frame id transmits at most one message per cycle: offer the
       oldest pending message of each id to the arbitration *)
    let oldest_per_id =
      List.sort
        (fun (_, _, a) (_, _, b) ->
          compare a.msg.Bus.release_us b.msg.Bus.release_us)
        !dyn_waiting
      |> List.fold_left
           (fun acc ((id, _, _) as entry) ->
             if List.exists (fun (id', _, _) -> id' = id) acc then acc
             else entry :: acc)
           []
    in
    let pending = List.map (fun (id, len, _) -> (id, len)) oldest_per_id in
    let sent, _leftover =
      if pending = [] then ([], [])
      else
        Dynamic_segment.arbitrate ~minislot_count:config.Config.minislot_count
          ~pending
    in
    List.iter
      (fun (tx : Dynamic_segment.transmission) ->
        match
          List.find_opt
            (fun (id, _, _) -> id = tx.Dynamic_segment.frame_id)
            oldest_per_id
        with
        | Some (_, _, j) ->
          let finish =
            dyn_start
            + ((tx.Dynamic_segment.start_minislot
                + tx.Dynamic_segment.length_minislots)
               * config.Config.minislot_us)
          in
          if attempt j ~finish then
            dyn_waiting := List.filter (fun (_, _, j') -> j' != j) !dyn_waiting
        | None -> assert false)
      sent
  done;
  let delivered_in_time j =
    match j.delivered_at with Some t -> t <= until_us | None -> false
  in
  {
    Bus.deliveries =
      List.filter
        (fun d -> d.Bus.delivered_us <= until_us)
        (List.rev !deliveries);
    undelivered =
      List.filter_map
        (fun j -> if delivered_in_time j then None else Some (j.msg, j.tries))
        jobs;
    lost_tx = !lost_tx;
  }
