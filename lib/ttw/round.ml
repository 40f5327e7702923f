(* Round-accurate TTW simulation over the generic message model.

   The round scheduler is centralized (the host computes each round's
   schedule at the beacon), so only messages released at or before the
   round start participate.  TT channels own their reserved slot; ET
   flows are packed into the contended slots greedily in ascending
   flow-id order, one message per flow per round, skipping flows whose
   frame no longer fits — first-fit, no priority gaps.  A transmission
   destroyed by the loss hook burns its slots; the message stays queued
   and retries in a later round. *)

type job = {
  msg : Bus.message;
  mutable tries : int;
  mutable delivered_at : int option;
}

let validate config (m : Bus.message) =
  if m.Bus.release_us < 0 then invalid_arg "Ttw: negative release";
  match m.Bus.cls with
  | Bus.Tt { channel } ->
    if channel < 0 || channel >= config.Config.tt_channels then
      invalid_arg "Ttw: TT channel out of range"
  | Bus.Et { flow; size } ->
    if flow < 1 then invalid_arg "Ttw: ET flow ids are 1-based";
    if size < 1 then invalid_arg "Ttw: empty frame";
    if size > Config.et_slots config then
      invalid_arg "Ttw: frame exceeds the contended segment"

let simulate ?(loss = Bus.loss_none) config ~until_us messages =
  List.iter (validate config) messages;
  let jobs =
    List.map (fun m -> { msg = m; tries = 0; delivered_at = None }) messages
  in
  let round_us = Config.round_us config in
  let rounds = (until_us / round_us) + 1 in
  let deliveries = ref [] and lost_tx = ref 0 in
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
  let by_release =
    List.sort (fun a b -> compare a.msg.Bus.release_us b.msg.Bus.release_us)
  in
  (* per-channel and per-flow queues, oldest release first (stable on
     ties, so submission order breaks them deterministically) *)
  let tt_queue = Hashtbl.create 8 and et_queue = Hashtbl.create 8 in
  let push tbl key j =
    Hashtbl.replace tbl key (j :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  List.iter
    (fun j ->
      match j.msg.Bus.cls with
      | Bus.Tt { channel } -> push tt_queue channel j
      | Bus.Et { flow; _ } -> push et_queue flow j)
    jobs;
  Hashtbl.iter (fun c q -> Hashtbl.replace tt_queue c (by_release (List.rev q))) tt_queue;
  Hashtbl.iter (fun f q -> Hashtbl.replace et_queue f (by_release (List.rev q))) et_queue;
  let flows =
    Hashtbl.fold (fun f _ acc -> f :: acc) et_queue [] |> List.sort compare
  in
  for round = 0 to rounds - 1 do
    let round_start = round * round_us in
    (* reserved head slots: channel c transmits in slot c *)
    for channel = 0 to config.Config.tt_channels - 1 do
      match Hashtbl.find_opt tt_queue channel with
      | Some (j :: rest) when j.msg.Bus.release_us <= round_start ->
        let finish =
          Config.slot_finish_us config ~round_start ~slot:channel
        in
        if attempt j ~finish then Hashtbl.replace tt_queue channel rest
      | Some _ | None -> ()
    done;
    (* contended slots: pack eligible flows in priority order *)
    let next_slot = ref config.Config.tt_channels in
    List.iter
      (fun flow ->
        match Hashtbl.find_opt et_queue flow with
        | Some (j :: rest) when j.msg.Bus.release_us <= round_start ->
          let size =
            match j.msg.Bus.cls with
            | Bus.Et { size; _ } -> size
            | Bus.Tt _ -> assert false
          in
          if !next_slot + size <= config.Config.slots_per_round then begin
            let finish =
              Config.slot_finish_us config ~round_start
                ~slot:(!next_slot + size - 1)
            in
            next_slot := !next_slot + size;
            if attempt j ~finish then Hashtbl.replace et_queue flow rest
          end
        | Some _ | None -> ())
      flows
  done;
  let delivered_in_time j =
    match j.delivered_at with Some t -> t <= until_us | None -> false
  in
  {
    Bus.deliveries =
      List.filter
        (fun (d : Bus.delivery) -> d.Bus.delivered_us <= until_us)
        (List.rev !deliveries);
    undelivered =
      List.filter_map
        (fun j -> if delivered_in_time j then None else Some (j.msg, j.tries))
        jobs;
    lost_tx = !lost_tx;
  }
