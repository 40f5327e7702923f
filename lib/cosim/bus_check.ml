let backends : Bus.backend list =
  [ Flexray.Backend.backend; Ttw.Backend.backend ]

type result = {
  backend : string;
  messages : int;
  delivered : int;
  tt_count : int;
  et_count : int;
  tt_delay_us : int * int;
  et_delay_us : int * int;
  h_us : int;
  tt_deterministic : bool;
  one_sample_ok : bool;
  all_delivered : bool;
  lost_tx : int;
  et_overruns : int;
  max_attempts : int;
}

let validate_slots ~bus ?(loss = Bus.loss_none) ?(h_us = 20_000) groups =
  if List.length groups > Bus.tt_channels bus then
    invalid_arg "Bus_check.validate: more groups than TT channels";
  let frame_size = Bus.control_frame_size bus in
  let all_names = List.concat_map fst groups in
  if Bus.et_capacity bus < frame_size + List.length all_names then
    invalid_arg "Bus_check.validate: contended segment too small";
  let frame_id name =
    let rec go i = function
      | [] -> invalid_arg "Bus_check: unknown app"
      | n :: rest -> if String.equal n name then i else go (i + 1) rest
    in
    go 1 all_names
  in
  let horizon =
    List.fold_left
      (fun acc (_, trace) -> Int.min acc (Array.length trace.Trace.owner))
      max_int groups
  in
  let messages = ref [] in
  List.iteri
    (fun slot_index (names, trace) ->
      let names = Array.of_list names in
      for k = 0 to horizon - 1 do
        Array.iteri
          (fun local name ->
            let release_us = k * h_us in
            let m =
              if trace.Trace.owner.(k) = Some local then
                Bus.tt ~channel:slot_index ~release_us
              else
                Bus.et ~flow:(frame_id name) ~size:frame_size ~release_us ()
            in
            messages := m :: !messages)
          names
      done)
    groups;
  let messages = List.rev !messages in
  let outcome =
    Bus.simulate ~loss bus ~until_us:((horizon + 2) * h_us) messages
  in
  let deliveries = outcome.Bus.deliveries in
  let tt_per_slot = Hashtbl.create 8 in
  let tt = ref [] and et = ref [] in
  List.iter
    (fun (d : Bus.delivery) ->
      match d.Bus.message.Bus.cls with
      | Bus.Tt { channel } ->
        let x = Bus.delay_us d in
        tt := x :: !tt;
        Hashtbl.replace tt_per_slot channel
          (x :: Option.value ~default:[] (Hashtbl.find_opt tt_per_slot channel))
      | Bus.Et _ -> et := Bus.delay_us d :: !et)
    deliveries;
  let bounds = function
    | [] -> (0, 0)
    | x :: rest ->
      List.fold_left (fun (lo, hi) v -> (Int.min lo v, Int.max hi v)) (x, x) rest
  in
  let tt_delay_us = bounds !tt and et_delay_us = bounds !et in
  let et_undelivered =
    List.exists
      (fun ((m : Bus.message), _) ->
        match m.Bus.cls with Bus.Et _ -> true | Bus.Tt _ -> false)
      outcome.Bus.undelivered
  in
  {
    backend = Bus.configured_name bus;
    messages = List.length messages;
    delivered = List.length deliveries;
    tt_count = List.length !tt;
    et_count = List.length !et;
    tt_delay_us;
    et_delay_us;
    h_us;
    (* a TT channel is deterministic when every delivery through it has
       the same latency; different channels naturally differ by their
       position in the cycle *)
    tt_deterministic =
      Hashtbl.fold
        (fun _ delays acc ->
          acc
          && (match delays with
              | [] -> true
              | x :: rest -> List.for_all (Int.equal x) rest))
        tt_per_slot true;
    one_sample_ok = snd et_delay_us <= h_us && not et_undelivered;
    all_delivered = List.length deliveries = List.length messages;
    lost_tx = outcome.Bus.lost_tx;
    et_overruns =
      List.length
        (List.filter
           (fun (d : Bus.delivery) ->
             match d.Bus.message.Bus.cls with
             | Bus.Et _ -> Bus.delay_us d > h_us
             | Bus.Tt _ -> false)
           deliveries);
    max_attempts =
      List.fold_left
        (fun acc (d : Bus.delivery) -> Int.max acc d.Bus.attempts)
        (List.fold_left
           (fun acc (_, tries) -> Int.max acc tries)
           0 outcome.Bus.undelivered)
        deliveries;
  }

let facts_hold r = r.tt_deterministic && r.one_sample_ok && r.all_delivered

let pp ppf r =
  Format.fprintf ppf
    "@[<v>bus (%s): %d messages, %d delivered (%d TT, %d ET)@,\
     TT delay: %d..%d us (deterministic: %b)@,\
     ET delay: %d..%d us (one-sample bound %d us: %b)@,\
     losses: %d transmission(s) destroyed, %d undelivered, %d ET \
     overrun(s), max %d attempt(s)@]"
    r.backend r.messages r.delivered r.tt_count r.et_count
    (fst r.tt_delay_us) (snd r.tt_delay_us) r.tt_deterministic
    (fst r.et_delay_us) (snd r.et_delay_us) r.h_us r.one_sample_ok r.lost_tx
    (r.messages - r.delivered) r.et_overruns r.max_attempts
