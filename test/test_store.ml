(* Tests for the persistent verification cache stack: the append-only
   Store file format (robustness against torn tails, corruption, stale
   salts, hostile bytes), the Vcache backing protocol, the Pcache
   verdict/table codecs and soundness rules (Undetermined is never
   persisted), the collision-proof Mapping.fingerprint, and the
   end-to-end guarantee that first_fit/optimal report byte-identical
   outcomes whatever the cache (none, cold, warm, or persistent across
   a process-like reopen) — with zero engine runs when warm. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_path () =
  let path = Filename.temp_file "cpsdim-test" ".store" in
  Sys.remove path;
  path

(* a store file and its writer-lock sibling *)
let remove_store path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".lock" ]

let with_store f =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> remove_store path) (fun () -> f path)

let open_exn ~path ~salt =
  match Store.open_ ~path ~salt with
  | Ok s -> s
  | Error m -> Alcotest.failf "Store.open_ failed: %s" m

(* ------------------------------------------------------------------ *)
(* Store *)

(* keys and values carrying every byte class the framing must survive:
   newlines, NUL, the record tag, spaces, and the fingerprint
   delimiters *)
let hostile =
  [
    ("plain", "value");
    ("key with spaces", "R 3 4 deadbeef");
    ("newline\nin\nkey", "newline\nin\nvalue\n");
    ("nul\000byte", "\000\000");
    ("delims|;,:", "v2 1 2 3 | 4*5");
    ("", "empty key");
    ("empty value", "");
  ]

(* the published FNV-1a-64 test vectors: the checksum of every record
   an existing store holds, so a changed hash would drop them all as
   damaged *)
let test_fnv64_vectors () =
  List.iter
    (fun (input, digest) -> check_string input digest (Store.fnv64 input))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

let test_store_roundtrip () =
  with_store @@ fun path ->
  let s = open_exn ~path ~salt:"s1" in
  List.iter (fun (k, v) -> Store.add s k v) hostile;
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) ("find " ^ String.escaped k) (Some v)
        (Store.find s k))
    hostile;
  check_int "length" (List.length hostile) (Store.length s);
  Store.close s;
  (* reopen: everything must come back from disk *)
  let s = open_exn ~path ~salt:"s1" in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string))
        ("reloaded " ^ String.escaped k)
        (Some v) (Store.find s k))
    hostile;
  let st = Store.stats s in
  check_int "loaded" (List.length hostile) st.Store.loaded;
  check_int "no stale drops" 0 st.Store.stale_dropped;
  check_int "no torn drops" 0 st.Store.torn_dropped;
  Store.close s

let test_store_first_write_wins () =
  with_store @@ fun path ->
  let s = open_exn ~path ~salt:"s1" in
  Store.add s "k" "first";
  Store.add s "k" "second";
  Alcotest.(check (option string)) "duplicate ignored" (Some "first")
    (Store.find s "k");
  check_int "one entry" 1 (Store.length s);
  Store.close s;
  let s = open_exn ~path ~salt:"s1" in
  Alcotest.(check (option string)) "after reopen" (Some "first")
    (Store.find s "k");
  check_int "one record on disk" 1 (Store.length s);
  Store.close s

let test_store_stale_salt_invalidates () =
  with_store @@ fun path ->
  let s = open_exn ~path ~salt:"engine-A" in
  Store.add s "k1" "v1";
  Store.add s "k2" "v2";
  Store.close s;
  let s = open_exn ~path ~salt:"engine-B" in
  check_int "stale store starts empty" 0 (Store.length s);
  check_int "both records counted as dropped" 2
    (Store.stats s).Store.stale_dropped;
  Store.add s "k1" "new";
  Store.close s;
  (* the rewrite is durable: reopening under the new salt keeps the new
     record and drops nothing *)
  let s = open_exn ~path ~salt:"engine-B" in
  Alcotest.(check (option string)) "new-salt record" (Some "new")
    (Store.find s "k1");
  check_int "nothing dropped" 0 (Store.stats s).Store.stale_dropped;
  Store.close s

let test_store_torn_tail_healed () =
  with_store @@ fun path ->
  let s = open_exn ~path ~salt:"s1" in
  Store.add s "good" "kept";
  Store.close s;
  (* simulate a crash mid-append: a record header without its body *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "R 5 5 0123456789abcdef\nhal";
  close_out oc;
  let s = open_exn ~path ~salt:"s1" in
  Alcotest.(check (option string)) "intact prefix kept" (Some "kept")
    (Store.find s "good");
  check_int "torn tail counted" 1 (Store.stats s).Store.torn_dropped;
  (* the heal compacted the file: appends after it must survive *)
  Store.add s "after" "heal";
  Store.close s;
  let s = open_exn ~path ~salt:"s1" in
  check_int "both records" 2 (Store.length s);
  check_int "clean after heal" 0 (Store.stats s).Store.torn_dropped;
  Store.close s

let test_store_checksum_poisons_suffix () =
  with_store @@ fun path ->
  let s = open_exn ~path ~salt:"s1" in
  Store.add s "a" "1";
  Store.add s "b" "2";
  Store.add s "c" "3";
  Store.close s;
  (* flip a payload byte of record "b": its checksum fails, and "c"
     behind it must be dropped too — framing after damage is untrusted *)
  let content = In_channel.with_open_bin path In_channel.input_all in
  (* locate record b's payload "b2\n" by scanning (no Str dependency) *)
  let i =
    let needle = "b2\n" in
    let rec scan i =
      if i + String.length needle > String.length content then
        Alcotest.fail "payload not found"
      else if String.equal (String.sub content i (String.length needle)) needle
      then i
      else scan (i + 1)
    in
    scan 0
  in
  let bytes = Bytes.of_string content in
  Bytes.set bytes (i + 1) '9';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  let s = open_exn ~path ~salt:"s1" in
  Alcotest.(check (option string)) "record before damage" (Some "1")
    (Store.find s "a");
  Alcotest.(check (option string)) "damaged record gone" None
    (Store.find s "b");
  Alcotest.(check (option string)) "suffix after damage gone" None
    (Store.find s "c");
  check_int "one torn marker" 1 (Store.stats s).Store.torn_dropped;
  Store.close s

let test_store_refuses_non_store () =
  with_store @@ fun path ->
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "just some file\n");
  (match Store.open_ ~path ~salt:"s1" with
   | Ok _ -> Alcotest.fail "opened a non-store file"
   | Error _ -> ());
  (* and the file was not clobbered *)
  check_string "file untouched" "just some file\n"
    (In_channel.with_open_bin path In_channel.input_all)

let test_store_clear_and_peek () =
  with_store @@ fun path ->
  let s = open_exn ~path ~salt:"s1" in
  Store.add s "k" "v";
  Store.flush s;
  (match Store.peek ~path with
   | Ok (salt, n) ->
     check_string "peek salt" "s1" salt;
     check_int "peek records" 1 n
   | Error m -> Alcotest.failf "peek failed: %s" m);
  Store.clear s;
  check_int "cleared in memory" 0 (Store.length s);
  Store.close s;
  (match Store.peek ~path with
   | Ok (_, n) -> check_int "cleared on disk" 0 n
   | Error m -> Alcotest.failf "peek after clear failed: %s" m);
  (* peek never invalidates: a stale file keeps its salt *)
  let s = open_exn ~path ~salt:"other" in
  Store.add s "x" "y";
  Store.close s;
  match Store.peek ~path with
  | Ok (salt, n) ->
    check_string "peek reports the file's salt" "other" salt;
    check_int "peek reports its records" 1 n
  | Error m -> Alcotest.failf "peek on other salt failed: %s" m

(* the single-writer guard is a cross-process property (lockf conflicts
   only between processes), so the regression test really forks: the
   child races the parent's open handle, must land read-only, must
   still serve both the disk image and its own in-memory adds, and
   must leave the parent's file byte-exactly writer-only *)
let test_store_single_writer_lock () =
  with_store @@ fun path ->
  let s = open_exn ~path ~salt:"s1" in
  check_bool "first opener owns the file" false (Store.read_only s);
  Store.add s "k" "parent";
  Store.flush s;
  (match Unix.fork () with
   | 0 ->
     let rc =
       match Store.open_ ~path ~salt:"s1" with
       | Error _ -> 1
       | Ok s2 ->
         if not (Store.read_only s2) then 2
         else if Store.find s2 "k" <> Some "parent" then 3
         else begin
           Store.add s2 "k2" "child";
           if Store.find s2 "k2" <> Some "child" then 4
           else begin
             Store.close s2;
             0
           end
         end
     in
     (* _exit, not exit: the child must not run the parent's at_exit
        handlers (domain-pool shutdown, channel flushing) *)
     Unix._exit rc
   | pid ->
     let _, status = Unix.waitpid [] pid in
     check_bool "child degraded to read-only (exit 0)" true
       (status = Unix.WEXITED 0));
  (* the lock outlives the child: the parent still appends normally and
     the child's in-memory record never reached the file *)
  Store.add s "k3" "parent2";
  Store.close s;
  let s = open_exn ~path ~salt:"s1" in
  check_bool "lock released at close: reopen writes" false (Store.read_only s);
  check_int "only the writer's records on disk" 2 (Store.length s);
  Alcotest.(check (option string)) "child record absent" None
    (Store.find s "k2");
  Alcotest.(check (option string)) "writer records intact" (Some "parent2")
    (Store.find s "k3");
  Store.close s

let test_store_rejects_newline_salt () =
  with_store @@ fun path ->
  match Store.open_ ~path ~salt:"a\nb" with
  | Ok _ -> Alcotest.fail "accepted a salt with a newline"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Vcache backing protocol *)

let test_vcache_backing_hit_and_save () =
  let disk = Hashtbl.create 8 in
  Hashtbl.add disk "warm" 41;
  let saves = ref [] in
  let backing =
    {
      Par.Vcache.load = (fun k -> Hashtbl.find_opt disk k);
      save = (fun k v -> saves := (k, v) :: !saves);
    }
  in
  let c = Par.Vcache.create ~backing () in
  let computed = ref 0 in
  let get k v =
    Par.Vcache.find_or_add' c k (fun () ->
        incr computed;
        v)
  in
  (* backing hit: no compute, no save, promoted to memory *)
  check_bool "disk hit" true (get "warm" 0 = (41, `Disk));
  check_int "compute skipped" 0 !computed;
  check_bool "no save on a disk hit" true (!saves = []);
  check_bool "promoted: second lookup is a memory hit" true
    (get "warm" 0 = (41, `Mem));
  check_int "disk_hits" 1 (Par.Vcache.disk_hits c);
  (* miss: computed once and offered to the backing *)
  check_bool "miss computes" true (get "cold" 7 = (7, `Miss));
  check_int "computed once" 1 !computed;
  check_bool "saved to backing" true (!saves = [ ("cold", 7) ]);
  check_bool "then cached in memory" true (get "cold" 0 = (7, `Mem))

(* ------------------------------------------------------------------ *)
(* Fingerprint: the delimiter-injection regression *)

(* the pre-fix keying: fields joined on '|' and entries on ';' with the
   name unescaped — kept here as the collision witness *)
let old_fingerprint specs =
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let entry (s : Sched.Appspec.t) =
    Printf.sprintf "%s|%d|%s|%s|%d" s.Sched.Appspec.name
      s.Sched.Appspec.t_w_max
      (ints s.Sched.Appspec.t_dw_min)
      (ints s.Sched.Appspec.t_dw_max)
      s.Sched.Appspec.r
  in
  String.concat ";" (List.sort compare (List.map entry (Array.to_list specs)))

let adversarial_spec ~id ~name =
  Sched.Appspec.make ~id ~name ~t_w_max:1 ~t_dw_min:[| 3; 3 |]
    ~t_dw_max:[| 4; 4 |] ~r:9

let test_fingerprint_injection_regression () =
  (* two honest apps A and B ... *)
  let two =
    [| adversarial_spec ~id:0 ~name:"A"; adversarial_spec ~id:1 ~name:"B" |]
  in
  (* ... vs ONE app whose name smuggles the delimiters *)
  let one = [| adversarial_spec ~id:0 ~name:"A|1|3,3|4,4|9;B" |] in
  check_string "old keying collides (the bug)" (old_fingerprint two)
    (old_fingerprint one);
  check_bool "new keying separates them" true
    (not
       (String.equal (Core.Mapping.fingerprint two)
          (Core.Mapping.fingerprint one)))

let test_fingerprint_canonical () =
  let a = adversarial_spec ~id:0 ~name:"A"
  and b = adversarial_spec ~id:1 ~name:"B" in
  (* invariant under group order and id assignment *)
  check_string "permutation invariant"
    (Core.Mapping.fingerprint [| a; b |])
    (Core.Mapping.fingerprint
       [| Sched.Appspec.with_id b 0; Sched.Appspec.with_id a 1 |]);
  (* but sensitive to every timing field *)
  let a' =
    Sched.Appspec.make ~id:0 ~name:"A" ~t_w_max:1 ~t_dw_min:[| 3; 3 |]
      ~t_dw_max:[| 4; 4 |] ~r:10
  in
  check_bool "r matters" true
    (not
       (String.equal
          (Core.Mapping.fingerprint [| a |])
          (Core.Mapping.fingerprint [| a' |])))

(* the full group key of three applications whose names carry every
   delimiter of the encoding, one of them long enough that its length
   prefix sorts it first: a store answers a verdict lookup only under a
   byte-identical key *)
let test_group_fingerprint_pinned () =
  let app ~id ~name ~t_w_max ~dmin ~dmax ~r =
    Sched.Appspec.make ~id ~name ~t_w_max
      ~t_dw_min:(Array.init (t_w_max + 1) (fun w -> dmin + (w mod 3)))
      ~t_dw_max:(Array.init (t_w_max + 1) (fun w -> dmax + w))
      ~r
  in
  let g =
    [|
      app ~id:0 ~name:"b|1" ~t_w_max:3 ~dmin:2 ~dmax:9 ~r:40;
      app ~id:1 ~name:"a,b;c|d,e;f|g" ~t_w_max:1 ~dmin:1 ~dmax:11 ~r:128;
      app ~id:2 ~name:";" ~t_w_max:12 ~dmin:3 ~dmax:4 ~r:1024;
    |]
  in
  check_string "three-app group key"
    "3;13:a,b;c|d,e;f|g|1|1,2|11,12|128;1:;|12|3,4,5,3,4,5,3,4,5,3,4,5,3|4,5,6,7,8,9,10,11,12,13,14,15,16|1024;3:b|1|3|2,3,4,2|9,10,11,12|40"
    (Core.Mapping.fingerprint g)

(* the dwell-table key of C1, pinned by digest: a store answers a
   table lookup only under a byte-identical key, so any change to
   Dwell.fingerprint silently turns every persisted table into a miss *)
let test_dwell_fingerprint_pinned () =
  let a = Casestudy.c1 in
  check_string "C1 dwell key" "72bd8f38251eae11"
    (Store.fnv64
       (Core.Dwell.fingerprint a.Casestudy.plant a.Casestudy.gains
          ~j_star:a.Casestudy.j_star))

(* ------------------------------------------------------------------ *)
(* Pcache: codecs and soundness *)

let pcache_exn path =
  match Core.Pcache.open_ ~path with
  | Ok pc -> pc
  | Error m -> Alcotest.failf "Pcache.open_ failed: %s" m

let test_pcache_verdict_roundtrip () =
  with_store @@ fun path ->
  let safe = [| adversarial_spec ~id:0 ~name:"A" |]
  and unsafe = [| adversarial_spec ~id:0 ~name:"B" |]
  and undet = [| adversarial_spec ~id:0 ~name:"C" |] in
  let pc = pcache_exn path in
  Core.Pcache.record_verdict pc safe `Safe;
  Core.Pcache.record_verdict pc unsafe `Unsafe;
  Core.Pcache.record_verdict pc undet (`Undetermined "budget");
  Core.Pcache.close pc;
  let pc = pcache_exn path in
  check_bool "safe round-trips" true
    (Core.Pcache.find_verdict pc safe = Some `Safe);
  check_bool "unsafe round-trips" true
    (Core.Pcache.find_verdict pc unsafe = Some `Unsafe);
  check_bool "undetermined was never persisted" true
    (Core.Pcache.find_verdict pc undet = None);
  Core.Pcache.close pc

let test_pcache_mapping_cache_skips_engine () =
  with_store @@ fun path ->
  let specs =
    [| adversarial_spec ~id:0 ~name:"A"; adversarial_spec ~id:1 ~name:"B" |]
  in
  let pc = pcache_exn path in
  Core.Pcache.record_verdict pc specs `Unsafe;
  Core.Pcache.close pc;
  (* a FRESH handle (fresh in-memory cache) must answer from disk *)
  let pc = pcache_exn path in
  let cache = Core.Pcache.mapping_cache pc in
  let ran = ref false in
  let v =
    Par.Vcache.find_or_add cache
      (Core.Mapping.fingerprint specs)
      (fun () ->
        ran := true;
        `Safe)
  in
  check_bool "verdict came from the store" true (v = `Unsafe);
  check_bool "engine not consulted" false !ran;
  (* an undetermined fresh computation is memoised but not persisted *)
  let undet = [| adversarial_spec ~id:0 ~name:"U" |] in
  let v2 =
    Par.Vcache.find_or_add cache
      (Core.Mapping.fingerprint undet)
      (fun () -> `Undetermined "budget")
  in
  check_bool "undetermined returned" true (v2 = `Undetermined "budget");
  Core.Pcache.close pc;
  let pc = pcache_exn path in
  check_bool "undetermined absent after reopen" true
    (Core.Pcache.find_verdict pc undet = None);
  Core.Pcache.close pc

(* the prefilter/symmetry rework bumped the engine tag: verdicts from a
   pre-screen store must never be trusted by the new engine, so a store
   written under the previous salt is retired wholesale on open *)
let test_pcache_salt_bumped_for_prefilter () =
  check_bool "salt names the prefilter engine generation" true
    (String.length Core.Pcache.engine_salt >= 21
     && String.sub Core.Pcache.engine_salt 0 21 = "dverify-2 prefilter-1");
  with_store @@ fun path ->
  let specs = [| adversarial_spec ~id:0 ~name:"A" |] in
  (* forge a store as the previous engine generation would have written
     it: same record shape, pre-bump salt *)
  let old_salt =
    Printf.sprintf "dverify-1 codec-%d" Core.Table_codec.version
  in
  (match Store.open_ ~path ~salt:old_salt with
   | Ok s ->
     Store.add s ("v:" ^ Core.Mapping.fingerprint specs) "unsafe";
     Store.close s
   | Error m -> Alcotest.failf "seeding old-salt store failed: %s" m);
  let pc = pcache_exn path in
  check_bool "stale verdict dropped, not believed" true
    (Core.Pcache.find_verdict pc specs = None);
  check_bool "whole pre-bump store retired" true
    ((Core.Pcache.stats pc).Store.stale_dropped > 0);
  Core.Pcache.close pc

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: the mappers under every cache mode *)

let plant =
  Control.Plant.make
    ~phi:(Linalg.Mat.of_rows [ [ 0.95; 0.08 ]; [ 0.; 0.9 ] ])
    ~gamma:[| 0.004; 0.08 |] ~c:[| 1.; 0. |] ~h:0.02

let gains =
  let kt = Control.Pole_place.place_tt plant [ (0.25, 0.); (0.3, 0.) ] in
  let ke =
    Control.Pole_place.place_et plant [ (0.82, 0.); (0.85, 0.); (0.3, 0.) ]
  in
  Control.Switched.make_gains plant ~kt ~ke

let app ?(r = 120) name = Core.App.make ~name ~plant ~gains ~r ~j_star:25 ()

let abc = lazy [ app "A"; app ~r:130 "B"; app ~r:140 "C" ]

let outcome_key (o : Core.Mapping.outcome) =
  ( List.map
      (fun s ->
        (s.Core.Mapping.index, List.map (fun a -> a.Core.App.name) s.Core.Mapping.apps))
      o.Core.Mapping.slots,
    o.Core.Mapping.verifications,
    o.Core.Mapping.undetermined,
    Format.asprintf "%a" Core.Mapping.pp o )

let test_dwell_table_persists () =
  with_store @@ fun path ->
  let pc = pcache_exn path in
  let t1 =
    Core.Dwell.compute ~cache:(Core.Pcache.dwell_cache pc) plant gains
      ~j_star:25
  in
  Core.Pcache.close pc;
  let pc = pcache_exn path in
  let cache = Core.Pcache.dwell_cache pc in
  let t2 = Core.Dwell.compute ~cache plant gains ~j_star:25 in
  check_bool "table identical across reopen" true (t1 = t2);
  check_int "answered by the backing, not recomputed" 1
    (Par.Vcache.disk_hits cache);
  check_int "no fresh computation" 0 (Par.Vcache.misses cache);
  Core.Pcache.close pc

(* subsets/permutations of {A,B,C}; r=9 in `pair` style is not needed —
   these apps give a mix of groupings through real verification *)
let gen_apps =
  QCheck2.Gen.(
    let* perm = oneofl [ [ 0; 1; 2 ]; [ 2; 0; 1 ]; [ 1; 2; 0 ]; [ 2; 1; 0 ] ] in
    let* take = int_range 1 3 in
    let all = Array.of_list (Lazy.force abc) in
    return (List.filteri (fun i _ -> i < take) (List.map (Array.get all) perm)))

let prop_cache_invisible =
  QCheck2.Test.make ~name:"mapping outcome invariant under cache mode"
    ~count:6
    ~print:(fun apps ->
      String.concat "," (List.map (fun a -> a.Core.App.name) apps))
    gen_apps
    (fun apps ->
      let engine_runs = ref 0 in
      let counting specs =
        incr engine_runs;
        Core.Mapping.default_verifier specs
      in
      let run_ff ?cache () =
        Core.Mapping.first_fit ?cache ~verifier:counting apps
      and run_opt ?cache () =
        Core.Mapping.optimal ?cache ~verifier:counting apps
      in
      with_store (fun path ->
          (* reference: no cache at all *)
          let ff_ref = outcome_key (run_ff ())
          and opt_ref = outcome_key (run_opt ()) in
          (* cold + warm in-memory cache *)
          let mem = Core.Mapping.create_cache () in
          let ff_cold = outcome_key (run_ff ~cache:mem ())
          and ff_warm = outcome_key (run_ff ~cache:mem ()) in
          (* cold persistent, then a fresh handle over the warm store *)
          let pc = pcache_exn path in
          let ff_pcold =
            outcome_key (run_ff ~cache:(Core.Pcache.mapping_cache pc) ())
          in
          let opt_pcold =
            outcome_key (run_opt ~cache:(Core.Pcache.mapping_cache pc) ())
          in
          Core.Pcache.close pc;
          let pc = pcache_exn path in
          engine_runs := 0;
          let ff_pwarm =
            outcome_key (run_ff ~cache:(Core.Pcache.mapping_cache pc) ())
          in
          let ff_warm_runs = !engine_runs in
          let opt_pwarm =
            outcome_key (run_opt ~cache:(Core.Pcache.mapping_cache pc) ())
          in
          Core.Pcache.close pc;
          if ff_warm_runs <> 0 then
            QCheck2.Test.fail_reportf
              "warm persistent first_fit ran the engine %d time(s)"
              ff_warm_runs;
          List.for_all (( = ) ff_ref) [ ff_cold; ff_warm; ff_pcold; ff_pwarm ]
          && List.for_all (( = ) opt_ref) [ opt_pcold; opt_pwarm ]))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "FNV-1a-64 test vectors" `Quick
            test_fnv64_vectors;
          Alcotest.test_case "round-trip hostile bytes + reopen" `Quick
            test_store_roundtrip;
          Alcotest.test_case "first write wins" `Quick
            test_store_first_write_wins;
          Alcotest.test_case "stale salt invalidates" `Quick
            test_store_stale_salt_invalidates;
          Alcotest.test_case "torn tail healed" `Quick
            test_store_torn_tail_healed;
          Alcotest.test_case "checksum damage poisons suffix" `Quick
            test_store_checksum_poisons_suffix;
          Alcotest.test_case "refuses non-store files" `Quick
            test_store_refuses_non_store;
          Alcotest.test_case "clear and peek" `Quick test_store_clear_and_peek;
          Alcotest.test_case "single writer across processes" `Quick
            test_store_single_writer_lock;
          Alcotest.test_case "rejects newline salt" `Quick
            test_store_rejects_newline_salt;
        ] );
      ( "vcache",
        [
          Alcotest.test_case "backing hit/save protocol" `Quick
            test_vcache_backing_hit_and_save;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "delimiter-injection regression" `Quick
            test_fingerprint_injection_regression;
          Alcotest.test_case "canonical and field-sensitive" `Quick
            test_fingerprint_canonical;
          Alcotest.test_case "C1 dwell key pinned" `Quick
            test_dwell_fingerprint_pinned;
          Alcotest.test_case "group key pinned" `Quick
            test_group_fingerprint_pinned;
        ] );
      ( "pcache",
        [
          Alcotest.test_case "verdict codec + undetermined skipped" `Quick
            test_pcache_verdict_roundtrip;
          Alcotest.test_case "fresh handle answers from disk" `Quick
            test_pcache_mapping_cache_skips_engine;
          Alcotest.test_case "dwell table persists" `Quick
            test_dwell_table_persists;
          Alcotest.test_case "pre-prefilter salt retired" `Quick
            test_pcache_salt_bumped_for_prefilter;
        ] );
      ( "determinism", [ QCheck_alcotest.to_alcotest prop_cache_invisible ] );
    ]
