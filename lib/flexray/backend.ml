module B = struct
  let name = "flexray"

  type config = Config.t

  (* the phase-aligned configuration the bus-delay check has always
     used: a 2 ms cycle (10 x 100 us static + 250 x 4 us dynamic) that
     divides the case study's 20 ms sampling period, so TT slot offsets
     repeat identically every sample *)
  let default_config =
    Config.make ~static_slot_count:10 ~static_slot_us:100 ~minislot_count:250
      ~minislot_us:4

  let config_info cfg = Format.asprintf "%a" Config.pp cfg
  let cycle_us = Config.cycle_us
  let tt_channels (cfg : config) = cfg.Config.static_slot_count
  let et_capacity (cfg : config) = cfg.Config.minislot_count

  (* the 8-minislot control frame the bus-delay check has always
     budgeted per application *)
  let control_frame_size (_ : config) = 8

  let simulate = Sim.simulate

  let wcrt_us cfg ~flow ~size ~hp =
    let cycle = Config.cycle_us cfg in
    let hp =
      List.map
        (fun (size, period_us) ->
          {
            Wcrt.length_minislots = size;
            period_cycles = Int.max 1 (period_us / cycle);
          })
        hp
    in
    Wcrt.wcrt_us cfg ~own_id:flow ~own_length:size hp
end

let backend : Bus.backend = (module B)
let configured cfg : Bus.configured = Bus.Configured ((module B), cfg)
let default : Bus.configured = Bus.default backend
