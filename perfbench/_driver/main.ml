(* The cpsdim benchmark driver:

     main.exe --workload W --seed N --seconds S --trace 0|1
              --cpsdim PATH --tmp DIR

   runs one workload (casestudy-cold, serve-churn) for S
   seconds on inputs generated from N, checks every answer, and prints
   the generated mix and, as its last line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
   perfbench/run.py builds it and supplies the cpsdim executable and a
   fresh temporary directory. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0. and trace = ref 0 in
  let cpsdim = ref "" and tmp = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME casestudy-cold | serve-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--cpsdim", Arg.Set_string cpsdim, "PATH the cpsdim executable (serve-churn)");
      ("--tmp", Arg.Set_string tmp, "DIR fresh directory for the store (serve-churn)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --cpsdim PATH --tmp DIR";
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  (* a dead child must surface as an error, not kill the driver *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let serve () =
    if !cpsdim = "" || !tmp = "" then begin
      prerr_endline "serve-churn needs --cpsdim and --tmp";
      exit 2
    end;
    if trace then Serve_wl.run_traced ~exe:!cpsdim ~tmp:!tmp ~seed ~seconds
    else Serve_wl.run ~exe:!cpsdim ~tmp:!tmp ~seed ~seconds
  in
  let o =
    match !workload with
    | "casestudy-cold" -> Cold.run ~seed ~seconds ~trace
    | "serve-churn" -> serve ()
    | w ->
      Printf.eprintf "unknown workload %S (casestudy-cold, serve-churn)\n" w;
      exit 2
  in
  Util.print_result ~correct:o.Layers.correct ~attempted:o.Layers.attempted
    ~failed:o.Layers.failed o.Layers.metrics
