(* The per-layer metrics a traced run reports, named after the modules
   they time.  Every traced run prints all of them; a layer the
   workload does not reach reads 0. *)

let all =
  [
    ("dwell.ms_per_table", "ms");
    ("prefilter.decided_frac", "ratio");
    ("prefilter.us_per_group", "us");
    ("dverify.runs_per_op", "count");
    ("dverify.states_per_op", "count");
    ("dverify.ms_per_op", "ms");
    ("dverify.states_per_s", "1/s");
    ("dverify.words_per_state", "words");
    ("dverify.ms_per_run", "ms");
    ("mapping.self_ms_per_op", "ms");
    ("campaign.ms_per_op", "ms");
    ("gc.major_collections_per_op", "count");
    ("gc.top_heap_mb", "MB");
    ("gc.minor_kwords_per_op", "kwords");
    ("daemon.us_per_request", "us");
    ("protocol.us_per_parse", "us");
    ("protocol.us_per_encode", "us");
    ("service.self_us_per_request", "us");
    ("vcache.mem_frac", "ratio");
    ("vcache.us_per_hit", "us");
    ("store.open_s", "s");
    ("store.mb", "MB");
    ("store.disk_frac", "ratio");
    ("store.us_per_find", "us");
    ("store.us_per_append", "us");
    ("pool.tasks_per_request", "count");
    ("pool.queue_wait_us", "us");
    ("pool.task_us", "us");
    ("trace.coverage_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name all) then invalid_arg ("unknown layer metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      Util.m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
    all

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Util.metric list;
}
