(* the salt names every run-invariant input a cached value depends on:
   bump the engine tag whenever Dverify/Dwell semantics change (the
   prefilter/symmetry hot-path rework is "dverify-2 prefilter-1": the
   verdicts are provably unchanged, but verdict provenance now spans
   the analytic screen, so pre-screen stores are retired wholesale
   rather than audited); the codec version rides along so a format
   change invalidates too *)
let engine_salt = Printf.sprintf "dverify-2 prefilter-1 codec-%d" Table_codec.version

type t = {
  store : Store.t;
  mapping : Mapping.cache Lazy.t;
  dwell : Dwell.cache Lazy.t;
}

(* key prefixes keep the two artifact namespaces disjoint even though
   both fingerprints are injective on their own *)
let verdict_key fp = "v:" ^ fp
let table_key fp = "d:" ^ fp

let obs_hit () =
  if Obs.Trace_ctx.enabled () then Obs.Metric.count "store.hits" 1

let obs_append () =
  if Obs.Trace_ctx.enabled () then Obs.Metric.count "store.appends" 1

let verdict_to_string = function
  | `Safe -> "safe"
  | `Unsafe -> "unsafe"
  | `Undetermined _ -> invalid_arg "Pcache: undetermined is not persistable"

let verdict_of_string = function
  | "safe" -> Some `Safe
  | "unsafe" -> Some `Unsafe
  | _ -> None

let mapping_backing store : Mapping.verdict Par.Vcache.backing =
  {
    load =
      (fun fp ->
        match Option.bind (Store.find store (verdict_key fp)) verdict_of_string with
        | Some v ->
          obs_hit ();
          Some (v : Mapping.verdict)
        | None -> None);
    save =
      (fun fp v ->
        match v with
        | `Undetermined _ -> ()
        | (`Safe | `Unsafe) as v ->
          Store.add store (verdict_key fp) (verdict_to_string v);
          obs_append ());
  }

let dwell_backing store : Dwell.t Par.Vcache.backing =
  {
    load =
      (fun fp ->
        match Store.find store (table_key fp) with
        | None -> None
        | Some s -> (
          match Table_codec.table_of_string s with
          | Ok t ->
            obs_hit ();
            Some t
          | Error _ -> None));
    save =
      (fun fp t ->
        Store.add store (table_key fp) (Table_codec.table_to_string t);
        obs_append ());
  }

let open_ ~path =
  match Store.open_ ~path ~salt:engine_salt with
  | Error _ as e -> e
  | Ok store ->
    if Obs.Trace_ctx.enabled () then begin
      let s = Store.stats store in
      Obs.Metric.set_gauge "store.entries" (float_of_int s.Store.entries);
      if s.Store.stale_dropped > 0 then
        Obs.Metric.count "store.stale_dropped" s.Store.stale_dropped;
      if s.Store.torn_dropped > 0 then
        Obs.Metric.count "store.torn_dropped" s.Store.torn_dropped
    end;
    Ok
      {
        store;
        mapping =
          lazy (Mapping.create_cache ~backing:(mapping_backing store) ());
        dwell = lazy (Dwell.create_cache ~backing:(dwell_backing store) ());
      }

let mapping_cache t = Lazy.force t.mapping
let dwell_cache t = Lazy.force t.dwell

let record_verdict t specs v =
  match v with
  | `Undetermined _ -> ()
  | (`Safe | `Unsafe) as v ->
    Store.add t.store
      (verdict_key (Mapping.fingerprint specs))
      (verdict_to_string v);
    obs_append ()

let find_verdict t specs : Mapping.verdict option =
  Option.bind
    (Store.find t.store (verdict_key (Mapping.fingerprint specs)))
    verdict_of_string

let store t = t.store
let stats t = Store.stats t.store
let read_only t = Store.read_only t.store

let close t = Store.close t.store
